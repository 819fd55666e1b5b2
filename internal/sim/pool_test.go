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
// engine (where reclamation is lazy for in-queue cancels but eager at
// pop time).
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

// TestCancelRecyclesEagerly: on the serial engine a cancelled in-queue
// event is unlinked and recycled immediately, so the very next schedule
// reuses its object (and the cancelled handle goes stale).
func TestCancelRecyclesEagerly(t *testing.T) {
	e := NewEngine(1)
	h1 := e.Schedule(10, func() { t.Error("cancelled event fired") })
	e.Cancel(h1)
	h2 := e.Schedule(20, func() {})
	if h1.ev != h2.ev {
		t.Error("cancelled event was not recycled eagerly")
	}
	e.Run()
}

// TestPooledSchedulingAllocs: steady-state closure-free scheduling —
// AfterCall with a package-level callback plus the event pop — must not
// allocate. This is the engine half of the zero-allocation hot-path
// contract (the emunet half is gated in the emulation's own tests).
//
//speedlight:allocgate sim.Engine.schedule sim.Engine.Step sim.Event.fire sim.eventPool.get sim.eventPool.put
//speedlight:allocgate sim.evq.push sim.evq.pop sim.evq.peek sim.evq.remove sim.evq.up sim.evq.down
func TestPooledSchedulingAllocs(t *testing.T) {
	e := NewEngine(1)
	p := e.Proc(GlobalDomain)
	var sink int64
	fn := CallFn(func(_, _ any, i int64) { sink += i })
	// Warm the pool and the per-domain counter table.
	for i := 0; i < 64; i++ {
		p.AfterCall(1, fn, nil, nil, 1)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		p.AfterCall(1, fn, nil, nil, 1)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("pooled AfterCall+Step allocates %v allocs/op, want 0", avg)
	}
	_ = sink
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
