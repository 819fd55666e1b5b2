package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeDurationHelpers(t *testing.T) {
	tm := Time(0).Add(5 * Microsecond)
	if tm != 5000 {
		t.Errorf("Add = %d", tm)
	}
	if d := Time(7000).Sub(Time(2000)); d != 5*Microsecond {
		t.Errorf("Sub = %d", d)
	}
	if Time(1500).Micros() != 1.5 {
		t.Error("Micros conversion")
	}
	if (2 * Second).Seconds() != 2 {
		t.Error("Seconds conversion")
	}
	if (3 * Microsecond).Micros() != 3 {
		t.Error("Duration Micros conversion")
	}
	if DurationOfSeconds(0.5) != 500*Millisecond {
		t.Error("DurationOfSeconds")
	}
	if DurationOfMicros(2.5) != 2500 {
		t.Error("DurationOfMicros")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %d", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d", e.Fired())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	// Events at the same instant fire in insertion order.
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.After(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("negative After should fire immediately")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(Handle{})
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var later Handle
	later = e.Schedule(20, func() { fired = true })
	e.Schedule(10, func() { e.Cancel(later) })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now = %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.RunFor(8)
	if len(fired) != 4 || e.Now() != 20 {
		t.Errorf("after RunFor: fired=%v now=%d", fired, e.Now())
	}
}

func TestRunUntilAdvancesEvenWithoutEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var log []Time
	e.Schedule(10, func() {
		log = append(log, e.Now())
		e.After(5, func() { log = append(log, e.Now()) })
	})
	e.Run()
	if len(log) != 2 || log[0] != 10 || log[1] != 15 {
		t.Errorf("log = %v", log)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(1000)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %d, want %d", i, ticks[i], want[i])
		}
	}
}

func TestTickerStopBeforeFirstFire(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := e.NewTicker(10, func() { count++ })
	tk.Stop()
	e.RunUntil(100)
	if count != 0 {
		t.Errorf("stopped ticker fired %d times", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	e.NewTicker(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		r := e.NewRand()
		var log []Time
		var step func()
		step = func() {
			log = append(log, e.Now())
			if len(log) < 100 {
				e.After(Duration(1+r.Intn(1000)), step)
			}
		}
		e.After(1, step)
		e.Run()
		return log
	}
	a := run(42)
	b := run(42)
	c := run(43)
	if len(a) != len(b) {
		t.Fatal("same-seed runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at %d", i)
		}
	}
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// Property: however events are scheduled, they fire in non-decreasing
// time order.
func TestMonotoneFiringProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		e := NewEngine(seed)
		var fired []Time
		for _, d := range raw {
			at := Time(d)
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewRandStreamsIndependent(t *testing.T) {
	e := NewEngine(7)
	r1 := e.NewRand()
	r2 := e.NewRand()
	same := 0
	for i := 0; i < 100; i++ {
		if r1.Int63() == r2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("substreams look identical (%d collisions)", same)
	}
	_ = rand.Int // keep import honest
}

func TestPendingCountsOnlyLive(t *testing.T) {
	e := NewEngine(1)
	ev1 := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	e.Cancel(ev1)
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}
