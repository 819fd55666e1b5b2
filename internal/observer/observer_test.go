package observer

import (
	"slices"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// devices is the registered device IDs in ascending order.
func devices(o *Observer) []topology.NodeID {
	var out []topology.NodeID
	for n := range o.devices {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func unitsOf(node topology.NodeID, ports int) []dataplane.UnitID {
	var out []dataplane.UnitID
	for p := 0; p < ports; p++ {
		out = append(out,
			dataplane.UnitID{Node: node, Port: p, Dir: dataplane.Ingress},
			dataplane.UnitID{Node: node, Port: p, Dir: dataplane.Egress})
	}
	return out
}

func newObs(t *testing.T, mod func(*Config)) (*Observer, *[]*GlobalSnapshot) {
	t.Helper()
	var done []*GlobalSnapshot
	cfg := Config{
		MaxID:      16,
		WrapAround: true,
		OnComplete: func(g *GlobalSnapshot) { done = append(done, g) },
	}
	if mod != nil {
		mod(&cfg)
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, &done
}

func feedAll(o *Observer, id packet.SeqID, units []dataplane.UnitID, consistent bool, now sim.Time) {
	for i, u := range units {
		o.OnResult(control.Result{
			Unit:       u,
			SnapshotID: id,
			Value:      uint64(i),
			Consistent: consistent,
			ReadAt:     now,
		}, now)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil OnComplete accepted")
	}
	if _, err := New(Config{WrapAround: true, OnComplete: func(*GlobalSnapshot) {}}); err == nil {
		t.Error("WrapAround without MaxID accepted")
	}
}

// TestRegisterRejectsSlotlessUnit: a unit the dense table cannot hold
// (negative node or port, a direction other than ingress or egress) is
// a caller bug, refused at Register rather than aliased onto a slot.
func TestRegisterRejectsSlotlessUnit(t *testing.T) {
	for _, u := range []dataplane.UnitID{{Node: -1}, {Node: 1, Port: -1}, {Node: 1, Dir: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted %v", u)
				}
			}()
			o, _ := newObs(t, nil)
			o.Register(u.Node, []dataplane.UnitID{u})
		}()
	}
}

func TestBasicAssembly(t *testing.T) {
	o, done := newObs(t, nil)
	units := unitsOf(1, 2)
	o.Register(1, units)

	id, err := o.Begin(100)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id = %d", id)
	}
	if o.Pending() != 1 {
		t.Error("pending != 1")
	}
	feedAll(o, id, units[:3], true, 200)
	if len(*done) != 0 {
		t.Fatal("completed early")
	}
	feedAll(o, id, units[3:], true, 300)
	if len(*done) != 1 {
		t.Fatal("not completed")
	}
	g := (*done)[0]
	if g.ID != 1 || !g.Consistent || len(g.Results) != 4 {
		t.Errorf("snapshot = %+v", g)
	}
	if g.ScheduledAt != 100 || g.CompletedAt != 300 {
		t.Errorf("times = %d, %d", g.ScheduledAt, g.CompletedAt)
	}
	if v, ok := g.Value(units[1]); !ok || v != 1 {
		t.Errorf("Value = %d, %v", v, ok)
	}
	if o.Pending() != 0 {
		t.Error("still pending")
	}
}

func TestInconsistentResultMarksSnapshot(t *testing.T) {
	o, done := newObs(t, nil)
	units := unitsOf(1, 1)
	o.Register(1, units)
	id, _ := o.Begin(0)
	o.OnResult(control.Result{Unit: units[0], SnapshotID: id, Consistent: false}, 0)
	o.OnResult(control.Result{Unit: units[1], SnapshotID: id, Value: 7, Consistent: true}, 0)
	if len(*done) != 1 {
		t.Fatal("not completed")
	}
	g := (*done)[0]
	if g.Consistent {
		t.Error("snapshot with inconsistent unit reported consistent")
	}
	if _, ok := g.Value(units[0]); ok {
		t.Error("inconsistent unit value readable")
	}
	if v, ok := g.Value(units[1]); !ok || v != 7 {
		t.Error("consistent unit value lost")
	}
}

func TestDuplicateAndSpuriousResultsIgnored(t *testing.T) {
	o, done := newObs(t, nil)
	units := unitsOf(1, 1)
	o.Register(1, units)
	id, _ := o.Begin(0)
	o.OnResult(control.Result{Unit: units[0], SnapshotID: id, Value: 1, Consistent: true}, 0)
	// Duplicate with a different value must not overwrite.
	o.OnResult(control.Result{Unit: units[0], SnapshotID: id, Value: 99, Consistent: true}, 0)
	// Result for an unknown snapshot (device that jumped ahead).
	o.OnResult(control.Result{Unit: units[1], SnapshotID: 42, Value: 5, Consistent: true}, 0)
	// Result from an unregistered unit.
	o.OnResult(control.Result{
		Unit:       dataplane.UnitID{Node: 7, Port: 0, Dir: dataplane.Ingress},
		SnapshotID: id, Value: 5, Consistent: true,
	}, 0)
	o.OnResult(control.Result{Unit: units[1], SnapshotID: id, Value: 2, Consistent: true}, 0)
	if len(*done) != 1 {
		t.Fatal("not completed")
	}
	if v, _ := (*done)[0].Value(units[0]); v != 1 {
		t.Errorf("duplicate overwrote value: %d", v)
	}
}

func TestMultiDeviceAssembly(t *testing.T) {
	o, done := newObs(t, nil)
	u1, u2 := unitsOf(1, 1), unitsOf(2, 1)
	o.Register(1, u1)
	o.Register(2, u2)
	if got := devices(o); !slices.Equal(got, []topology.NodeID{1, 2}) {
		t.Fatalf("devices = %v", got)
	}
	id, _ := o.Begin(0)
	feedAll(o, id, u1, true, 0)
	if len(*done) != 0 {
		t.Fatal("completed without device 2")
	}
	feedAll(o, id, u2, true, 0)
	if len(*done) != 1 {
		t.Fatal("not completed")
	}
}

func TestUnregisterShrinksNextSnapshot(t *testing.T) {
	o, done := newObs(t, nil)
	o.Register(1, unitsOf(1, 1))
	o.Register(2, unitsOf(2, 1))
	o.Unregister(2)
	id, _ := o.Begin(0)
	feedAll(o, id, unitsOf(1, 1), true, 0)
	if len(*done) != 1 {
		t.Fatal("snapshot should complete with only device 1")
	}
}

func TestNoLappingWindow(t *testing.T) {
	o, _ := newObs(t, nil) // MaxID 16
	o.Register(1, unitsOf(1, 1))
	// Start snapshots without completing any: the window must close
	// before ID space ambiguity (span ≥ MaxID-1 = 15).
	started := 0
	for i := 0; i < 50; i++ {
		if _, err := o.Begin(0); err != nil {
			break
		}
		started++
	}
	// Serial-number arithmetic disambiguates IDs within half the space:
	// with MaxID 16, live IDs must span at most 16/2 - 1 = 7, so ids
	// 1..8 may be outstanding together and a 9th must wait.
	if started > 8 {
		t.Errorf("started %d without completion; rollover ambiguity possible", started)
	}
	if started < 8 {
		t.Errorf("window too conservative: only %d", started)
	}
}

func TestNoLappingDisabledWithoutWraparound(t *testing.T) {
	o, _ := newObs(t, func(c *Config) { c.WrapAround = false })
	o.Register(1, unitsOf(1, 1))
	for i := 0; i < 100; i++ {
		if _, err := o.Begin(0); err != nil {
			t.Fatalf("Begin failed at %d without wraparound", i)
		}
	}
}

func TestRetryThenExclude(t *testing.T) {
	o, done := newObs(t, func(c *Config) {
		c.RetryAfter = 100
		c.ExcludeAfter = 300
	})
	o.Register(1, unitsOf(1, 1))
	o.Register(2, unitsOf(2, 1))
	id, _ := o.Begin(0)
	feedAll(o, id, unitsOf(1, 1), true, 10)

	// Before the retry deadline: nothing.
	if acts := o.CheckTimeouts(50); len(acts) != 0 {
		t.Fatalf("premature actions: %+v", acts)
	}
	// After RetryAfter: retry for device 2 only.
	acts := o.CheckTimeouts(150)
	if len(acts) != 1 || len(acts[0].Retry) != 1 || acts[0].Retry[0] != 2 {
		t.Fatalf("retry actions = %+v", acts)
	}
	// Retry fires once.
	if acts := o.CheckTimeouts(200); len(acts) != 0 {
		t.Fatalf("second retry issued: %+v", acts)
	}
	// After ExcludeAfter: device 2 excluded, snapshot completes.
	acts = o.CheckTimeouts(400)
	if len(acts) != 1 || len(acts[0].Excluded) != 1 || acts[0].Excluded[0] != 2 {
		t.Fatalf("exclude actions = %+v", acts)
	}
	if len(*done) != 1 {
		t.Fatal("snapshot not finalized after exclusion")
	}
	g := (*done)[0]
	if len(g.Excluded) != 1 || g.Excluded[0] != 2 {
		t.Errorf("Excluded = %v", g.Excluded)
	}
	if len(g.Results) != 2 {
		t.Errorf("results = %d, want device 1's two units", len(g.Results))
	}
}

// TestLateCheckRetriesBeforeExcluding: a first check that finds an epoch
// already past ExcludeAfter (the checks ran late) retries, and only the
// next check excludes.
func TestLateCheckRetriesBeforeExcluding(t *testing.T) {
	o, done := newObs(t, func(c *Config) {
		c.RetryAfter = 100
		c.ExcludeAfter = 300
	})
	o.Register(1, unitsOf(1, 1))
	o.Register(2, unitsOf(2, 1))
	id, _ := o.Begin(0)
	feedAll(o, id, unitsOf(1, 1), true, 10)

	acts := o.CheckTimeouts(400)
	if len(acts) != 1 || len(acts[0].Excluded) != 0 || len(acts[0].Retry) != 1 || acts[0].Retry[0] != 2 {
		t.Fatalf("first late check = %+v, want a retry of device 2", acts)
	}
	if len(*done) != 0 {
		t.Fatal("snapshot finalized by a check that retried")
	}
	acts = o.CheckTimeouts(401)
	if len(acts) != 1 || len(acts[0].Retry) != 0 || len(acts[0].Excluded) != 1 || acts[0].Excluded[0] != 2 {
		t.Fatalf("second check = %+v, want device 2 excluded", acts)
	}
	if len(*done) != 1 {
		t.Fatal("snapshot not finalized after exclusion")
	}
}

func TestLateResultAfterExclusionIgnored(t *testing.T) {
	o, done := newObs(t, func(c *Config) { c.ExcludeAfter = 100 })
	o.Register(1, unitsOf(1, 1))
	id, _ := o.Begin(0)
	o.CheckTimeouts(200) // excludes device 1, finalizes empty snapshot
	if len(*done) != 1 {
		t.Fatal("not finalized")
	}
	o.OnResult(control.Result{Unit: unitsOf(1, 1)[0], SnapshotID: id, Consistent: true}, 300)
	if len(*done) != 1 {
		t.Error("late result re-finalized snapshot")
	}
}

func TestSequentialIDs(t *testing.T) {
	o, done := newObs(t, nil)
	units := unitsOf(1, 1)
	o.Register(1, units)
	for want := packet.SeqID(1); want <= 5; want++ {
		id, err := o.Begin(sim.Time(want))
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("id = %d, want %d", id, want)
		}
		feedAll(o, id, units, true, sim.Time(want))
	}
	if len(*done) != 5 {
		t.Errorf("completed %d of 5", len(*done))
	}
}
