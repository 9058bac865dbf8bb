// Package registry is the one name table behind every selectable policy in
// the simulator: checkpoint strategies, storage backends, machine presets,
// placement and topology policies, burst-buffer drain schedulers and
// experiments. Entries register from package inits; a collision there is a
// wiring bug and panics. Lookups from user input fail with an *UnknownError
// listing the valid names, which the CLIs print verbatim on exit 2.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Registry maps names (and aliases) to values of one kind.
type Registry[T any] struct {
	pkg, kind string // error prefix and noun: "ckpt", "strategy"
	def       string // what the empty name resolves to ("" = no default)
	values    map[string]T
	aliases   map[string]string // alias -> canonical name
	order     []string          // canonical names in registration order
}

// New returns an empty registry whose errors read "<pkg>: unknown <kind>".
// def is the name the empty string resolves to; "" means no default.
func New[T any](pkg, kind, def string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, def: def, values: map[string]T{}, aliases: map[string]string{}}
}

// Register installs v under name and its aliases. An empty name or alias,
// or one that collides with an existing name or alias, panics before the
// registry changes.
func (r *Registry[T]) Register(name string, v T, aliases ...string) {
	if name == "" {
		r.panicf("empty %s name", r.kind)
	}
	if _, dup := r.values[name]; dup {
		r.panicf("duplicate %s registration: %s", r.kind, name)
	}
	if _, dup := r.aliases[name]; dup {
		r.panicf("%s name collides with an alias: %s", r.kind, name)
	}
	for _, a := range aliases {
		if a == "" {
			r.panicf("empty alias for %s %s", r.kind, name)
		}
		if _, dup := r.values[a]; dup {
			r.panicf("alias collides with a %s name: %s", r.kind, a)
		}
		if _, dup := r.aliases[a]; dup {
			r.panicf("duplicate %s alias: %s", r.kind, a)
		}
	}
	r.values[name] = v
	for _, a := range aliases {
		r.aliases[a] = name
	}
	r.order = append(r.order, name)
}

func (r *Registry[T]) panicf(format string, args ...any) {
	panic(r.pkg + ": " + fmt.Sprintf(format, args...))
}

// Lookup resolves a name or alias; the empty name resolves to the default.
// An unregistered name fails with an *UnknownError.
func (r *Registry[T]) Lookup(name string) (T, error) {
	if name == "" {
		name = r.def
	}
	if canon, ok := r.aliases[name]; ok {
		name = canon
	}
	v, ok := r.values[name]
	if !ok {
		return v, &UnknownError{Pkg: r.pkg, Kind: r.kind, Name: name, Known: r.Sorted()}
	}
	return v, nil
}

// Names returns the canonical names in registration order.
func (r *Registry[T]) Names() []string { return append([]string(nil), r.order...) }

// Sorted returns the canonical names in sorted order.
func (r *Registry[T]) Sorted() []string {
	names := r.Names()
	sort.Strings(names)
	return names
}

// Values returns the registered values in registration order.
func (r *Registry[T]) Values() []T {
	out := make([]T, len(r.order))
	for i, name := range r.order {
		out[i] = r.values[name]
	}
	return out
}

// UnknownError reports a name no entry of the registry answers to.
type UnknownError struct {
	Pkg   string   // the registry's package ("ckpt", "machine", ...)
	Kind  string   // what was looked up ("strategy", "placement", ...)
	Name  string   // the name looked up
	Known []string // the sorted canonical names
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("%s: unknown %s %q (valid: %s)", e.Pkg, e.Kind, e.Name, strings.Join(e.Known, ", "))
}
