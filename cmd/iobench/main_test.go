package main

import (
	"errors"
	"testing"

	"repro/internal/registry"
)

// TestValidateCkptFlag pins the -ckpt exit-2 surface: empty (all headline
// arms), registry names, and aliases pass; unknown names fail with the
// registry's typed error.
func TestValidateCkptFlag(t *testing.T) {
	for _, name := range []string{"", "rbio", "coio1", "async", "ml"} {
		if err := validateCkptFlag(name); err != nil {
			t.Errorf("validateCkptFlag(%q) = %v", name, err)
		}
	}
	err := validateCkptFlag("mpiio")
	var ue *registry.UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown -ckpt returned %v, want *registry.UnknownError", err)
	}
}

func TestValidateLifecycleFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		epochs  int
		work    int
		set     map[string]bool
		wantErr bool
	}{
		{"defaults pass", 0, 0, set(), false},
		{"positive values pass", 12, 120, set("epochs", "work"), false},
		{"explicit zero epochs rejected", 0, 0, set("epochs"), true},
		{"explicit negative epochs rejected", -3, 0, set("epochs"), true},
		{"explicit zero work rejected", 0, 0, set("work"), true},
		{"explicit negative work rejected", 0, -1, set("work"), true},
		{"one bad one good still rejected", 12, -1, set("epochs", "work"), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateLifecycleFlags(c.epochs, c.work, c.set)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateLifecycleFlags(%d, %d, %v) = %v, wantErr %v",
					c.epochs, c.work, c.set, err, c.wantErr)
			}
		})
	}
}
