package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// popAll drains the queue, asserting monotone (t, seq) order.
func popAll(t *testing.T, c *calQueue) []event {
	t.Helper()
	var out []event
	for c.len() > 0 {
		ev := c.pop()
		if n := len(out); n > 0 && !eventLess(out[n-1], ev) {
			t.Fatalf("pop %d out of order: %v after %v", n, ev, out[n-1])
		}
		out = append(out, ev)
	}
	return out
}

// TestCalQueueRandomAgainstSort drives the calendar through enough random
// events to grow the heap many times over, and checks the drain order against
// a plain sort. Time scales span nanoseconds to kiloseconds, the workload's
// bimodal spacing.
func TestCalQueueRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scales := []float64{1e-9, 1e-6, 1e-3, 1, 1e3}
	var c calQueue
	var all []event
	for seq := uint64(1); seq <= 20000; seq++ {
		ev := event{t: rng.Float64() * scales[rng.Intn(len(scales))], seq: seq}
		all = append(all, ev)
		c.push(ev)
	}
	got := popAll(t, &c)
	sort.Slice(all, func(i, j int) bool { return eventLess(all[i], all[j]) })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("event %d: got %v want %v", i, got[i], all[i])
		}
	}
}

// TestCalQueueInterleavedChurn mixes pushes and pops (the simulation's actual
// access pattern) with times near the current head, plus occasional
// far-future events that sink deep into the heap.
func TestCalQueueInterleavedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var c calQueue
	now := 0.0
	seq := uint64(0)
	var last event
	var popped int
	for step := 0; step < 50000; step++ {
		if c.len() == 0 || rng.Intn(3) > 0 {
			seq++
			// Mostly near-future, occasionally far-future.
			d := rng.Float64() * 1e-6
			if rng.Intn(50) == 0 {
				d = rng.Float64() * 10
			}
			c.push(event{t: now + d, seq: seq})
			continue
		}
		ev := c.pop()
		if popped > 0 && !eventLess(last, ev) {
			t.Fatalf("step %d: pop %v after %v", step, ev, last)
		}
		if ev.t < now {
			t.Fatalf("step %d: time went backwards: %v < %v", step, ev.t, now)
		}
		now, last, popped = ev.t, ev, popped+1
	}
	popAll(t, &c)
}

// TestCalQueueSameTimestampFIFO checks that a deep same-timestamp cluster —
// a barrier releasing thousands of ranks at one instant — drains in exact
// scheduling order, including when pops interleave with new same-time pushes.
func TestCalQueueSameTimestampFIFO(t *testing.T) {
	var c calQueue
	const at = 3.5
	for seq := uint64(1); seq <= 5000; seq++ {
		c.push(event{t: at, seq: seq})
	}
	next := uint64(5001)
	for i := 0; i < 2000; i++ {
		ev := c.pop()
		if ev.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d, want %d", i, ev.seq, i+1)
		}
		if i%2 == 0 {
			c.push(event{t: at, seq: next})
			next++
		}
	}
	want := uint64(2001)
	for c.len() > 0 {
		ev := c.pop()
		if ev.seq != want {
			t.Fatalf("drain: seq %d, want %d", ev.seq, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to seq %d, want %d", want, next)
	}
}

// TestCalQueueInfinityAndHugeTimes checks that events at extreme times
// (1e300, as far-off sentinels use) drain in order with near-term ones.
func TestCalQueueInfinityAndHugeTimes(t *testing.T) {
	var c calQueue
	inf := func(seq uint64) event { return event{t: 1e300, seq: seq} }
	c.push(inf(1))
	c.push(event{t: 1e-6, seq: 2})
	c.push(event{t: 5, seq: 3})
	got := popAll(t, &c)
	wantSeq := []uint64{2, 3, 1}
	for i, w := range wantSeq {
		if got[i].seq != w {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i].seq, w)
		}
	}
}

// TestEventIsCompact pins the calendar entry at 32 bytes (time, sequence
// word, hook interface): the calendar's heap operations move events by
// value, so every extra field is paid on each push and pop.
func TestEventIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", got)
	}
}
