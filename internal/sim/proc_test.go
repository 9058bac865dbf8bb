package sim

import (
	"fmt"
	"testing"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var wake float64
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 2.5 {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			d := float64(5 - i)
			k.Go(name, func(p *Proc) {
				p.Sleep(d)
				order = append(order, name)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
	// Shorter sleeps finish first.
	if a[0] != "p4" || a[4] != "p0" {
		t.Fatalf("wrong wake order: %v", a)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	var sig Signal
	woken := 0
	for i := 0; i < 10; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.Wait(p)
			woken++
			if p.Now() != 7 {
				t.Errorf("waiter woke at %v, want 7", p.Now())
			}
		})
	}
	k.At(7, func() { sig.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 10 {
		t.Fatalf("woken %d, want 10", woken)
	}
}

func TestSignalAlreadyFired(t *testing.T) {
	k := NewKernel()
	var sig Signal
	sig.Fire()
	ran := false
	k.Go("late", func(p *Proc) {
		sig.Wait(p) // must not block
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("waiter on fired signal never ran")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Go("stuck", func(p *Proc) { sig.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Procs) != 1 || de.Procs[0] != "stuck" {
		t.Fatalf("wrong deadlock report: %v", de.Procs)
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	k := NewKernel()
	res := NewResource(1)
	var order []int
	var ends []float64
	for i := 0; i < 4; i++ {
		i := i
		k.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
			p.Sleep(float64(i) * 0.001) // stagger arrivals so FIFO order is i
			res.Acquire(p)
			p.Sleep(1)
			res.Release()
			order = append(order, i)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("non-FIFO service order: %v", order)
		}
	}
	// Unit-capacity resource with 1s service: completions ~1s apart.
	for i := 1; i < len(ends); i++ {
		gap := ends[i] - ends[i-1]
		if gap < 0.99 || gap > 1.01 {
			t.Fatalf("completion gap %v, want ~1s: %v", gap, ends)
		}
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	k := NewKernel()
	res := NewResource(3)
	var finish []float64
	for i := 0; i < 6; i++ {
		k.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
			res.Acquire(p)
			p.Sleep(1)
			res.Release()
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two waves of 3: finish times 1,1,1,2,2,2.
	want := []float64{1, 1, 1, 2, 2, 2}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
	if res.InUse() != 0 {
		t.Fatalf("resource still in use: %d", res.InUse())
	}
	if res.MaxQueue() != 3 {
		t.Fatalf("max queue %d, want 3", res.MaxQueue())
	}
}

func TestReleaseIdleResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	NewResource(1).Release()
}

func TestYieldLetsSameTimeEventsRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestManyProcs(t *testing.T) {
	// Smoke test that process count in the tens of thousands works; this is
	// the scale the Blue Gene model runs at.
	k := NewKernel()
	const n = 20000
	done := 0
	for i := 0; i < n; i++ {
		k.Go(fmt.Sprintf("r%d", i), func(p *Proc) {
			p.Sleep(1)
			p.Sleep(1)
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done %d, want %d", done, n)
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		p.Sleep(5)
		p.SleepUntil(3) // already past
		if p.Now() != 5 {
			t.Errorf("SleepUntil moved clock to %v", p.Now())
		}
		p.SleepUntil(8)
		if p.Now() != 8 {
			t.Errorf("SleepUntil(8) ended at %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeInlineTakesTheHooksDispatchPosition(t *testing.T) {
	k := NewKernel()
	var order []string
	var a *Proc
	a = k.Go("a", func(p *Proc) {
		p.Park()
		order = append(order, fmt.Sprintf("a@%v", p.Now()))
	})
	k.Go("b", func(p *Proc) {
		// Same instant, scheduled in this order: the hook's inline resume
		// must run a before the later event, exactly where the hook sits.
		k.AtHook(2, funcHook(func() { a.ResumeInline() }))
		k.At(2, func() { order = append(order, "later@2") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@2", "later@2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	// Two spawns plus one resume of a.
	if k.Woken() != 3 {
		t.Fatalf("woken %d, want 3", k.Woken())
	}
}

func TestResumeInlineOfDispatchingProcessSkipsHandoff(t *testing.T) {
	k := NewKernel()
	var wake float64
	k.Go("p", func(p *Proc) {
		k.AfterHook(1.5, funcHook(func() { p.ResumeInline() }))
		p.Park()
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 1.5 {
		t.Fatalf("woke at %v, want 1.5", wake)
	}
	if k.Woken() != 1 { // the spawn only: p dispatched its own resume
		t.Fatalf("woken %d, want 1", k.Woken())
	}
}

func TestResumeInlineMisusePanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	k := NewKernel()
	var a, b, s *Proc
	a = k.Go("a", func(p *Proc) { p.Park() })
	b = k.Go("b", func(p *Proc) { p.Park() })
	s = k.Go("s", func(p *Proc) {
		mustPanic("ResumeInline outside a hook", a.ResumeInline)
		p.Sleep(5)
	})
	k.At(1, func() {
		a.ResumeInline()
		mustPanic("second ResumeInline from one hook", b.ResumeInline)
		b.Unpark()
	})
	k.At(2, func() {
		mustPanic("ResumeInline of a sleeping process", s.ResumeInline)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
