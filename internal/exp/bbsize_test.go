package exp

import (
	"runtime"
	"testing"
)

// bbsizeOut renders the full bbsize output (fault-free sweep plus the
// faulted arm) at np=512 with the given experiment worker-pool size.
func bbsizeOut(t *testing.T, parallel int) string {
	t.Helper()
	r, err := BBSize(Options{Seed: 1, NPs: []int{512}, Parallel: parallel}, 512, 6)
	if err != nil {
		t.Fatal(err)
	}
	return r.Table() + r.FaultTable()
}

// TestBBSizeDeterminism is the fleet determinism suite: every bbsize row —
// shared striping, capacity spills, the deadline dispatcher's event-driven
// pumping, the faulted arm's loss accounting — must be byte-identical
// across experiment worker-pool sizes and under GOMAXPROCS=1. Pick is a
// pure function of the backlog, so no fleet configuration may move a
// single simulated number.
func TestBBSizeDeterminism(t *testing.T) {
	ref := bbsizeOut(t, 1)
	if got := bbsizeOut(t, 4); got != ref {
		t.Errorf("parallel=4 differs from serial:\n%s\nvs\n%s", got, ref)
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := bbsizeOut(t, 4); got != ref {
		t.Errorf("GOMAXPROCS=1 parallel=4 differs from serial:\n%s\nvs\n%s", got, ref)
	}
}

// TestFleetPrivateShapeIdentity pins the refactor's backward-compatibility
// contract at the experiment level: explicitly configuring the fleet as
// one-node-per-ION with the FIFO drain policy must reproduce the default
// (legacy) bbuf configuration byte for byte. np=512 has 2 psets, so
// BBNodes=2 is the private shape.
func TestFleetPrivateShapeIdentity(t *testing.T) {
	render := func(o Options) string {
		rows, err := DrainOverlap(o, 512)
		if err != nil {
			t.Fatal(err)
		}
		return DrainOverlapTable(rows)
	}
	legacy := render(Options{Seed: 1, NPs: []int{512}, Parallel: 1})
	fleet := render(Options{Seed: 1, NPs: []int{512}, Parallel: 1, BBNodes: 2, Drain: "fifo"})
	if legacy != fleet {
		t.Errorf("explicit private fleet differs from the legacy configuration:\n%s\nvs\n%s", fleet, legacy)
	}
}
