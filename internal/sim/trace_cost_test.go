package sim

import (
	"testing"

	"repro/internal/trace"
)

// tickHook reschedules itself until remaining hits zero: a pure
// schedule/dispatch workload touching only the kernel hot path.
type tickHook struct {
	k         *Kernel
	dt        float64
	remaining int
}

func (h *tickHook) Fire() {
	if h.remaining--; h.remaining > 0 {
		h.k.AfterHook(h.dt, h)
	}
}

// churnTick is one member of a standing event population: it reschedules
// itself at a pseudo-random delay until a shared budget runs out.
type churnTick struct {
	k    *Kernel
	left *int
	rng  uint64
}

func (h *churnTick) Fire() {
	if *h.left <= 0 {
		return
	}
	*h.left--
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	h.k.AfterHook(1e-7+float64(h.rng%1024)*1e-8, h)
}

// TestDisabledTracingAllocFree pins the zero-cost contract: with no
// recorder installed, the kernel's schedule/dispatch cycle must not
// allocate. The tracing hooks on this path are a single `k.rec != nil`
// check (dispatch) and a shift-or into the seq word (insert); anything
// more shows up here as a failure. Two shapes are checked: one event
// rescheduling itself, and a standing population of 1,024 self-rescheduling
// hooks (BenchmarkKernelEventChurn's shape), which fails if the calendar
// heap allocates once it has grown to the population.
func TestDisabledTracingAllocFree(t *testing.T) {
	k := NewKernel()
	h := &tickHook{k: k, dt: 1e-6}
	single := func() {
		h.remaining = 20000
		k.AtHook(k.Now()+h.dt, h)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}

	var left int
	pop := make([]*churnTick, 1024)
	for i := range pop {
		pop[i] = &churnTick{k: k, left: &left, rng: uint64(i)*2654435761 + 1}
	}
	standing := func() {
		left = 20000
		for i, c := range pop {
			k.AfterHook(float64(i+1)*1e-7, c)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name string
		run  func()
	}{{"single", single}, {"standing-1024", standing}} {
		c.run() // grow the calendar heap to the population; it keeps its capacity
		if avg := testing.AllocsPerRun(10, c.run); avg != 0 {
			t.Fatalf("%s: disabled-tracing dispatch allocates: %.1f allocs per 20k events", c.name, avg)
		}
	}
}

// TestEnabledTracingAttributes is the control for the test above: the
// same workload with a recorder installed must attribute every clock
// advance, proving the nil check is the only thing separating the paths.
func TestEnabledTracingAttributes(t *testing.T) {
	k := NewKernel()
	rec := trace.NewRecorder()
	k.SetRecorder(rec)
	h := &tickHook{k: k, dt: 1e-6, remaining: 1000}
	k.AtHook(h.dt, h)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rec.AttributedTotal(); got == 0 {
		t.Fatal("recorder attributed no time with tracing enabled")
	}
	if k.Dispatched() != 1000 {
		t.Fatalf("dispatched %d events, want 1000", k.Dispatched())
	}
}

// BenchmarkDispatch measures the kernel's event cycle with tracing off
// and on; run with -benchmem to see the disabled path report 0 B/op.
func BenchmarkDispatch(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *trace.Recorder
	}{
		{"tracing-off", nil},
		{"tracing-on", trace.NewRecorder()},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			k.SetRecorder(c.rec)
			h := &tickHook{k: k, dt: 1e-6}
			b.ReportAllocs()
			b.ResetTimer()
			h.remaining = b.N
			k.AtHook(k.Now()+h.dt, h)
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSleep measures the process path — Sleep's fast path advances
// the clock inline (with a recorder, one Advance call) without touching
// the calendar.
func BenchmarkSleep(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *trace.Recorder
	}{
		{"tracing-off", nil},
		{"tracing-on", trace.NewRecorder()},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			k.SetRecorder(c.rec)
			b.ReportAllocs()
			b.ResetTimer()
			k.Go("sleeper", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Sleep(1e-6)
				}
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
