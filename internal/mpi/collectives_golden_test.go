package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// goldenRanks is deliberately not a power of two, so every binomial tree
// has ragged edges (ranks whose child would fall past the end).
const goldenRanks = 1000

// newGoldenWorld builds a 1,000-rank world on a slice of a 2,048-rank
// Intrepid partition. A 4-rank tenant takes the first pset, so the world's
// global ids start at a nonzero base.
func newGoldenWorld(t *testing.T, rec *trace.Recorder) *World {
	t.Helper()
	k := sim.NewKernel()
	k.SetRecorder(rec)
	m := bgp.MustNew(k, xrand.New(1), bgp.Intrepid(2048))
	al := machine.NewAllocator(m)
	if _, err := al.Alloc("pad", 4, "", 0); err != nil {
		t.Fatal(err)
	}
	a, err := al.Alloc("coll", goldenRanks, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorldOn(m, a, DefaultConfig())
}

func hashInts(v []int64) string {
	if v == nil {
		return "nil"
	}
	h := fnv.New64a()
	for _, x := range v {
		fmt.Fprintf(h, "%d,", x)
	}
	return fmt.Sprintf("%d:%x", len(v), h.Sum64())
}

func hashBytes(v [][]byte) string {
	h := fnv.New64a()
	for _, b := range v {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%d:%x", len(v), h.Sum64())
}

func hashBuf(b data.Buf) string {
	h := fnv.New64a()
	h.Write(b.Bytes())
	return fmt.Sprintf("%d:%x", b.Len(), h.Sum64())
}

func fbits(f float64) string { return fmt.Sprintf("%x", math.Float64bits(f)) }

// runCollectives drives every collective over the golden world and returns
// a header naming the operations, then one line per world rank: each
// operation's exit time (float bits) and result. The sequence covers roots
// other than 0, staggered arrivals (so receives hit both the inbox and the
// posted-receive path), point-to-point traffic in flight across
// collectives, an uneven Split with a single-rank group, and collectives on
// the child and grandchild communicators.
func runCollectives(t *testing.T, w *World) []string {
	t.Helper()
	lines := make([]string, w.Size())
	labels := make([]string, w.Size())
	err := w.Run(func(c *Comm, r *Rank) {
		var log, ops []string
		mark := func(label, result string) {
			ops = append(ops, label)
			log = append(log, fbits(r.Now())+"="+result)
		}
		n := c.Size()
		me := c.Rank(r)
		stagger := func(mod int) { r.Proc().Sleep(float64((me*7)%mod) * 3e-6) }

		c.Barrier(r)
		mark("barrier", "")

		var payload data.Buf
		if me == 7 {
			b := make([]byte, 333)
			for i := range b {
				b[i] = byte(i * 7)
			}
			payload = data.FromBytes(b)
		}
		mark("bcast7", hashBuf(c.Bcast(r, 7, payload)))

		stagger(17)
		var big data.Buf
		if me == 999 {
			big = data.Synthetic(1 << 16)
		}
		mark("bcast999", fmt.Sprint(c.Bcast(r, 999, big).Len()))

		mark("bvalue13", fmt.Sprint(c.BcastValue(r, 13, fmt.Sprintf("v%d", me))))
		mark("bvsized500", fmt.Sprint(c.BcastValueSized(r, 500, me*3, 100000)))

		stagger(23)
		mark("gather5", hashInts(c.GatherInt64(r, 5, int64(me*3+1))))
		mark("gather0", hashInts(c.GatherInt64(r, 0, int64(me^0x55))))
		mark("allgather", hashInts(c.AllgatherInt64(r, int64((me*7919)%1000))))

		stagger(11)
		b := make([]byte, (me%5)*3)
		for i := range b {
			b[i] = byte(me + i)
		}
		mark("allgatherbytes", hashBytes(c.AllgatherBytes(r, b)))
		mark("allreduce.sum", fbits(c.AllreduceFloat64(r, Sum, float64(me)*0.25)))
		mark("allreduce.max", fbits(c.AllreduceFloat64(r, Max, float64((me*31)%977))))
		mark("allreduce.min", fbits(c.AllreduceFloat64(r, Min, float64(me+5))))
		mark("exscan", fmt.Sprint(c.ExscanInt64(r, int64(me%13))))

		// Back-to-back collectives with eager point-to-point traffic on the
		// torus while they run.
		req := c.Isend(r, (me+37)%n, 1, data.Synthetic(4096+int64(me%7)*1024))
		mark("isend1", "")
		mark("allgather.busy", hashInts(c.AllgatherInt64(r, int64(me))))
		var p3 data.Buf
		if me == 3 {
			p3 = data.Synthetic(2048)
		}
		mark("bcast3.busy", fmt.Sprint(c.Bcast(r, 3, p3).Len()))
		buf, src := c.Recv(r, (me-37+n)%n, 1)
		mark("recv1", fmt.Sprintf("%d/%d", buf.Len(), src))
		req.Wait(r.Proc())
		mark("wait1", "")
		req2 := c.Isend(r, (me+511)%n, 2, data.Synthetic(int64(1+me%3)<<14))
		c.Barrier(r)
		mark("barrier.busy", "")
		mark("gather777.busy", hashInts(c.GatherInt64(r, 777, int64(me))))
		buf, src = c.Recv(r, AnySource, 2)
		mark("recv2", fmt.Sprintf("%d/%d", buf.Len(), src))
		req2.Wait(r.Proc())
		mark("wait2", "")

		// Uneven split: groups of 3, ~132 (three of them), 599 and 1.
		var color int64
		switch {
		case me < 3:
			color = 0
		case me < 400:
			color = 1 + int64(me%3)
		case me < 999:
			color = 9
		default:
			color = 5
		}
		stagger(13)
		sub := c.Split(r, color, int64(-me))
		sn, sme := sub.Size(), sub.Rank(r)
		mark("split", fmt.Sprintf("%d/%d/%d", sn, sme, sub.WorldRank(0)))
		sub.Barrier(r)
		mark("sub.barrier", "")
		mark("sub.bcast", hashBuf(sub.Bcast(r, sn-1, data.FromBytes([]byte{byte(sme), byte(color)}))))
		mark("sub.gather", hashInts(sub.GatherInt64(r, sn/2, int64(sme*sme))))
		mark("sub.allgather", hashInts(sub.AllgatherInt64(r, int64(me))))
		mark("sub.allgatherbytes", hashBytes(sub.AllgatherBytes(r, []byte(fmt.Sprint(me)))))
		mark("sub.allreduce", fbits(sub.AllreduceFloat64(r, Sum, 1.0/float64(me+1))))
		mark("sub.exscan", fmt.Sprint(sub.ExscanInt64(r, int64(me))))
		mark("sub.bvalue", fmt.Sprint(sub.BcastValue(r, 0, color*100)))
		subsub := sub.Split(r, int64(sme%2), int64(sme))
		mark("subsub", fmt.Sprintf("%d/%d", subsub.Size(), subsub.Rank(r)))
		mark("subsub.allgather", hashInts(subsub.AllgatherInt64(r, int64(sme))))
		whole := c.Split(r, 0, int64(me))
		mark("whole", fmt.Sprintf("%d/%d", whole.Size(), whole.Rank(r)))
		mark("whole.allreduce", fbits(whole.AllreduceFloat64(r, Max, float64(me))))
		c.Barrier(r)
		mark("final", "")

		lines[me] = fmt.Sprintf("%d %s", r.ID(), strings.Join(log, " "))
		labels[me] = strings.Join(ops, " ")
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != labels[0] {
			t.Fatalf("rank %d ran a different operation sequence:\n%s\n%s", i, l, labels[0])
		}
	}
	return append([]string{"ops " + labels[0]}, lines...)
}

// traceSummary renders the recorder's aggregates that must not move when
// the collectives' implementation changes: the attributed time per layer,
// every counter, and the MPI span statistics.
func traceSummary(rec *trace.Recorder, makespan float64) string {
	m := rec.Snapshot("collectives", makespan)
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %s attributed %s\n", fbits(m.Makespan), fbits(m.Attributed))
	for _, l := range m.Layers {
		fmt.Fprintf(&b, "layer %s %s\n", l.Layer, fbits(l.Seconds))
	}
	for _, c := range m.Counters {
		fmt.Fprintf(&b, "counter %s.%s %d\n", c.Layer, c.Name, c.Value)
	}
	for _, s := range m.Spans {
		if s.Layer != trace.LayerMPI.String() {
			continue
		}
		fmt.Fprintf(&b, "span %s.%s n=%d total=%s min=%s max=%s bytes=%d hist=%v\n",
			s.Layer, s.Name, s.Count, fbits(s.Total), fbits(s.Min), fbits(s.Max), s.Bytes, s.Hist)
	}
	return b.String()
}

// TestCollectivesGolden pins every collective's per-rank exit times and
// results on a non-power-of-two world, and the MPI trace aggregates of the
// same run. The body runs untraced and traced; both must produce the same
// per-rank lines. Regenerate with UPDATE_GOLDEN=1 only for a change that is
// meant to move simulated MPI timing.
func TestCollectivesGolden(t *testing.T) {
	plainW := newGoldenWorld(t, nil)
	plain := runCollectives(t, plainW)
	rec := trace.NewRecorder()
	tracedW := newGoldenWorld(t, rec)
	traced := runCollectives(t, tracedW)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("tracing changed rank %d:\nuntraced %s\ntraced   %s", i, plain[i], traced[i])
		}
	}
	if a, b := plainW.K.Now(), tracedW.K.Now(); a != b {
		t.Fatalf("tracing changed the makespan: %v vs %v", a, b)
	}
	got := strings.Join(plain, "\n") + "\n" + traceSummary(rec, tracedW.K.Now())

	path := filepath.Join("testdata", "collectives.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestCollectivesParkOnce is the handoff budget of the process-free
// collectives: each collective resumes every rank's process at most once,
// however deep its trees and however many trees it chains (Split runs two
// allgathers, each a gather and a broadcast).
func TestCollectivesParkOnce(t *testing.T) {
	const np = 1024
	cases := []struct {
		name string
		body func(c *Comm, r *Rank)
	}{
		{"barrier", func(c *Comm, r *Rank) { c.Barrier(r) }},
		{"bcast", func(c *Comm, r *Rank) { c.Bcast(r, 3, data.Synthetic(4096)) }},
		{"bcastvalue", func(c *Comm, r *Rank) { c.BcastValue(r, 5, r.ID()) }},
		{"gather", func(c *Comm, r *Rank) { c.GatherInt64(r, 7, int64(r.ID())) }},
		{"allgather", func(c *Comm, r *Rank) { c.AllgatherInt64(r, int64(r.ID())) }},
		{"allgatherbytes", func(c *Comm, r *Rank) { c.AllgatherBytes(r, []byte{byte(r.ID())}) }},
		{"allreduce", func(c *Comm, r *Rank) { c.AllreduceFloat64(r, Sum, 1) }},
		{"exscan", func(c *Comm, r *Rank) { c.ExscanInt64(r, 1) }},
		{"split", func(c *Comm, r *Rank) { c.Split(r, int64(r.ID()%3), int64(r.ID())) }},
	}
	// Spawning each rank is one resume; the collective may add one more.
	spawn := func(body func(c *Comm, r *Rank)) uint64 {
		w := newWorld(t, np)
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
		return w.K.Woken()
	}
	base := spawn(func(c *Comm, r *Rank) {})
	for _, tc := range cases {
		d := spawn(tc.body) - base
		t.Logf("%s: %d resumes", tc.name, d)
		if d > np {
			t.Errorf("%s: %d process resumes for %d ranks, want at most one each", tc.name, d, np)
		}
	}
}
