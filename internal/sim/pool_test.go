package sim

import (
	"strings"
	"testing"
)

// TestStaleHandleCancelPanics: once an event has fired AND its object
// has been recycled for a new schedule, cancelling through the old
// handle is a use-after-free and must panic with a clear message — not
// silently cancel the new tenant.
func TestStaleHandleCancelPanics(t *testing.T) {
	e := NewEngine(1)
	h1 := e.Schedule(10, func() {})
	e.Run() // fires; the event returns to the free list
	// The free list has exactly one event; this schedule recycles it.
	h2 := e.Schedule(20, func() {})
	if h1.ev != h2.ev {
		t.Fatal("free list did not recycle the fired event (test setup)")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Cancel through a stale handle did not panic")
		}
		if !strings.Contains(r.(string), "stale Handle") {
			t.Fatalf("panic message %q does not name the stale handle", r)
		}
	}()
	e.Cancel(h1)
}

// TestStaleHandleCancelPanicsParallel: same contract on the sharded
// engine.
func TestStaleHandleCancelPanicsParallel(t *testing.T) {
	p := NewParallel(1, 2, 10)
	pr := p.Proc(1)
	h1 := pr.Schedule(10, func() {})
	p.RunUntil(50)
	h2 := pr.Schedule(60, func() {})
	if h1.ev != h2.ev {
		t.Fatal("shard free list did not recycle the fired event (test setup)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Cancel through a stale handle did not panic on Parallel")
		}
	}()
	pr.Cancel(h1)
}

// TestCancelRecyclesLazily: one cancel rule on both engines. A
// cancelled event stays queued until its time: it never fires, Pending
// excludes it at once, it returns to the pool when its time is
// reached, and a handle kept past the recycle panics as stale.
func TestCancelRecyclesLazily(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Sim
	}{
		{"serial", func() Sim { return NewEngine(1) }},
		{"parallel", func() Sim { return NewParallel(1, 2, 10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.mk()
			pr := eng.Proc(1)
			h := pr.Schedule(10, func() { t.Error("cancelled event fired") })
			pr.Schedule(30, func() {})
			pr.Cancel(h)
			if n := eng.Pending(); n != 1 {
				t.Errorf("Pending after Cancel = %d, want 1", n)
			}
			if h.ev.pooled {
				t.Error("cancelled event recycled before its time")
			}
			eng.RunUntil(20)
			if !h.ev.pooled {
				t.Error("cancelled event not recycled when its time was reached")
			}
			if f := eng.Fired(); f != 0 {
				t.Errorf("Fired = %d after reaching a cancelled event, want 0", f)
			}
			pr.Cancel(h) // recycled but not reused: a no-op
			h2 := pr.Schedule(40, func() {})
			if h2.ev != h.ev {
				t.Fatal("the pool did not reuse the cancelled event (test setup)")
			}
			mustPanicWith(t, "stale Handle", func() { pr.Cancel(h) })
			eng.Run()
			if f := eng.Fired(); f != 2 {
				t.Errorf("Fired = %d, want 2", f)
			}
		})
	}
}

// TestPooledSchedulingAllocs: steady-state closure-free scheduling —
// AfterCall with a package-level callback plus the event pop — must not
// allocate, whatever the queue's shape: one event at a time, many
// domains tied on each instant (lanes spliced in domain order, and
// pushes at the current time), and distinct times. This is the
// engine half of the zero-allocation hot-path contract (the emunet half
// is gated in the emulation's own tests).
//
//speedlight:allocgate sim.Engine.schedule sim.Engine.Step sim.Engine.RunUntil sim.Event.fire sim.eventPool.get sim.eventPool.put
//speedlight:allocgate sim.evq.push sim.insert sim.evq.nextAt sim.evq.pop sim.evq.advance sim.evq.take
//speedlight:allocgate sim.evq.add sim.evq.splice sim.evq.up sim.evq.down
func TestPooledSchedulingAllocs(t *testing.T) {
	steady := func(t *testing.T, e *Engine, f func()) {
		t.Helper()
		for i := 0; i < 64; i++ { // warm the pool, the slab and the heap
			f()
		}
		if avg := testing.AllocsPerRun(1000, f); avg != 0 {
			t.Errorf("steady state allocates %v allocs/op, want 0", avg)
		}
		if e.Fired() == 0 {
			t.Fatal("nothing fired")
		}
	}
	t.Run("one", func(t *testing.T) {
		e := NewEngine(1)
		p := e.Proc(GlobalDomain)
		var sink int64
		fn := CallFn(func(_, _ any, i int64) { sink += i })
		steady(t, e, func() {
			p.AfterCall(1, fn, nil, nil, 1)
			e.Step()
		})
		_ = sink
	})
	t.Run("ties", func(t *testing.T) {
		e := NewEngine(1)
		g := e.Proc(GlobalDomain)
		procs := make([]Proc, 96)
		var echo, churn CallFn
		echo = func(_, _ any, _ int64) {}
		// Four periods: each multiple of 1000 ns gathers chains armed
		// at four earlier instants, 96 domains' lanes to splice.
		period := func(d int64) Duration { return Duration(250 * (1 + d%4)) }
		churn = func(_, _ any, d int64) {
			procs[d].AfterCall(period(d), churn, nil, nil, d)
			if d%8 == 0 {
				g.AfterCall(0, echo, nil, nil, 0) // below every key popped at this instant
			}
		}
		for d := range procs {
			procs[d] = e.Proc(len(procs) - d)
			procs[d].AfterCall(period(int64(d)), churn, nil, nil, int64(d))
		}
		steady(t, e, func() { e.RunFor(1000) })
	})
	t.Run("distinct", func(t *testing.T) {
		e := NewEngine(1)
		p := e.Proc(1)
		r := e.NewRand()
		var churn CallFn
		churn = func(_, _ any, _ int64) {
			p.AfterCall(Duration(1+r.Intn(100000)), churn, nil, nil, 0)
		}
		for i := 0; i < 256; i++ {
			p.AfterCall(Duration(1+r.Intn(100000)), churn, nil, nil, 0)
		}
		steady(t, e, func() { e.RunFor(1000) })
	})
}

// TestTickerSteadyStateAllocs: a running ticker re-arms through the
// pooled closure-free path, so steady-state ticks allocate nothing.
//
//speedlight:allocgate sim.Ticker.arm
func TestTickerSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.NewTicker(10, func() { ticks++ })
	e.RunUntil(100) // warm-up: pool populated
	avg := testing.AllocsPerRun(500, func() {
		e.RunFor(10)
	})
	if avg != 0 {
		t.Errorf("steady-state ticker tick allocates %v allocs/op, want 0", avg)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}
