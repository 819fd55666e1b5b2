package observer

import (
	"fmt"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
)

// tableHarness drives one observer through a membership script and
// keeps what the assertions need.
type tableHarness struct {
	t    *testing.T
	o    *Observer
	tel  *Telemetry
	done *[]*GlobalSnapshot
}

func (h *tableHarness) begin(now sim.Time) packet.SeqID {
	h.t.Helper()
	id, err := h.o.Begin(now)
	if err != nil {
		h.t.Fatal(err)
	}
	return id
}

// feed reports every listed unit for id with a value naming the epoch.
func (h *tableHarness) feed(id packet.SeqID, units []dataplane.UnitID) {
	for _, u := range units {
		h.o.OnResult(control.Result{Unit: u, SnapshotID: id, Value: uint64(id)*1000 + uint64(u.Port), Consistent: true}, 0)
	}
}

// snapshot returns the finalized snapshot with the given ID, or nil.
func (h *tableHarness) snapshot(id packet.SeqID) *GlobalSnapshot {
	for _, g := range *h.done {
		if g.ID == id {
			return g
		}
	}
	return nil
}

// wantResults asserts snapshot id finalized with exactly these units.
func (h *tableHarness) wantResults(id packet.SeqID, units ...[]dataplane.UnitID) {
	h.t.Helper()
	g := h.snapshot(id)
	if g == nil {
		h.t.Fatalf("snapshot %d not finalized", id)
	}
	n := 0
	for _, us := range units {
		for _, u := range us {
			n++
			r, ok := g.Results[u]
			if !ok {
				h.t.Errorf("snapshot %d lacks unit %v", id, u)
			} else if r.SnapshotID != id || r.Unit != u {
				h.t.Errorf("snapshot %d holds %+v under %v", id, r, u)
			}
		}
	}
	if len(g.Results) != n {
		h.t.Errorf("snapshot %d has %d results, want %d", id, len(g.Results), n)
	}
}

func (h *tableHarness) wantPending(id packet.SeqID) {
	h.t.Helper()
	if h.snapshot(id) != nil {
		h.t.Fatalf("snapshot %d finalized early", id)
	}
}

func (h *tableHarness) wantIgnored(n uint64) {
	h.t.Helper()
	if got := h.tel.ResultsIgnored.Value(); got != n {
		h.t.Errorf("ResultsIgnored = %d, want %d", got, n)
	}
}

// TestUnitTableMembership pins what the per-snapshot maps used to give
// for free: which units a snapshot awaits is fixed at Begin, whatever
// Register and Unregister do afterwards, and anything else is counted
// as ignored and never stored.
func TestUnitTableMembership(t *testing.T) {
	dev1, dev2 := unitsOf(1, 2), unitsOf(2, 1)
	cases := []struct {
		name string
		mod  func(*Config)
		run  func(h *tableHarness)
	}{
		{"registered after Begin waits for the next snapshot", nil, func(h *tableHarness) {
			h.o.Register(1, dev1)
			a := h.begin(0)
			h.o.Register(2, dev2)
			h.feed(a, dev2) // not awaited by a
			h.wantIgnored(uint64(len(dev2)))
			h.feed(a, dev1)
			h.wantResults(a, dev1)
			b := h.begin(0)
			h.feed(b, dev1)
			h.wantPending(b)
			h.feed(b, dev2)
			h.wantResults(b, dev1, dev2)
		}},
		{"Unregister between two Begins", nil, func(h *tableHarness) {
			h.o.Register(1, dev1)
			h.o.Register(2, dev2)
			a := h.begin(0)
			h.o.Unregister(2)
			b := h.begin(0)
			h.feed(b, dev2) // not awaited by b
			h.wantIgnored(uint64(len(dev2)))
			h.feed(b, dev1)
			h.wantResults(b, dev1)
			h.feed(a, dev1)
			h.wantPending(a) // a began with device 2 registered
			h.feed(a, dev2)
			h.wantResults(a, dev1, dev2)
		}},
		{"churned device keeps its indices", nil, func(h *tableHarness) {
			h.o.Register(1, dev1)
			h.o.Register(2, dev2)
			before := append([]dataplane.UnitID(nil), h.o.units...)
			h.o.Unregister(1)
			a := h.begin(0)
			h.o.Register(1, dev1)
			if fmt.Sprint(h.o.units) != fmt.Sprint(before) {
				h.t.Errorf("unit table changed on re-registration: %v -> %v", before, h.o.units)
			}
			h.feed(a, dev1) // a began while device 1 was out
			h.wantIgnored(uint64(len(dev1)))
			h.feed(a, dev2)
			h.wantResults(a, dev2)
			b := h.begin(0)
			h.feed(b, dev1)
			h.feed(b, dev2)
			h.wantResults(b, dev1, dev2)
		}},
		{"re-registering with a different port count", nil, func(h *tableHarness) {
			h.o.Register(1, dev1)
			small, big := unitsOf(1, 1), unitsOf(1, 3)
			h.o.Register(1, small)
			a := h.begin(0)
			h.feed(a, dev1[len(small):]) // the dropped port
			h.wantIgnored(uint64(len(dev1) - len(small)))
			h.feed(a, small)
			h.wantResults(a, small)
			h.o.Register(1, big)
			b := h.begin(0)
			h.feed(b, dev1)
			h.wantPending(b)
			h.feed(b, big[len(dev1):])
			h.wantResults(b, big)
			if got := h.o.Devices(); len(got) != 1 || got[0] != 1 {
				h.t.Errorf("Devices = %v", got)
			}
		}},
		{"duplicate, unknown, late-registered and finalized are ignored", nil, func(h *tableHarness) {
			h.o.Register(1, dev1)
			a := h.begin(0)
			h.o.OnResult(control.Result{Unit: dev1[0], SnapshotID: a, Value: 1, Consistent: true}, 0)
			h.o.OnResult(control.Result{Unit: dev1[0], SnapshotID: a, Value: 99, Consistent: true}, 0) // duplicate
			h.wantIgnored(1)
			h.o.OnResult(control.Result{Unit: dataplane.UnitID{Node: 9}, SnapshotID: a, Value: 99}, 0) // unknown unit
			h.wantIgnored(2)
			// Outside the slot table, and never aliased onto a slot in it:
			// no such port, no such direction (Dir 2 of port 0 is not
			// port 1's ingress), a negative node or port.
			for _, u := range []dataplane.UnitID{
				{Node: 1, Port: 2}, {Node: 1, Port: 0, Dir: 2}, {Node: 1, Port: -1, Dir: dataplane.Egress},
				{Node: -1}, {Node: 0},
			} {
				h.o.OnResult(control.Result{Unit: u, SnapshotID: a, Value: 99}, 0)
			}
			h.wantIgnored(7)
			h.o.Register(2, dev2)
			h.o.OnResult(control.Result{Unit: dev2[0], SnapshotID: a, Value: 99}, 0) // registered after a began
			h.wantIgnored(8)
			h.feed(a, dev1[1:])
			h.wantResults(a, dev1)
			if v, _ := h.snapshot(a).Value(dev1[0]); v != 1 {
				h.t.Errorf("duplicate overwrote the stored value: %d", v)
			}
			h.o.OnResult(control.Result{Unit: dev1[0], SnapshotID: a, Value: 99}, 0) // finalized ID
			h.wantIgnored(9)
			if got := len(h.snapshot(a).Results); got != len(dev1) {
				h.t.Errorf("finalized snapshot grew to %d results", got)
			}
		}},
		{"exclusion keeps the units that reported", func(c *Config) { c.ExcludeAfter = 100 }, func(h *tableHarness) {
			h.o.Register(1, dev1)
			h.o.Register(2, dev2)
			a := h.begin(0)
			h.feed(a, dev2)
			h.feed(a, dev1[:1])
			acts := h.o.CheckTimeouts(100)
			if len(acts) != 1 || len(acts[0].Excluded) != 1 || acts[0].Excluded[0] != 1 {
				h.t.Fatalf("actions = %+v", acts)
			}
			h.wantResults(a, dev2, dev1[:1])
			if ex := h.snapshot(a).Excluded; len(ex) != 1 || ex[0] != 1 {
				h.t.Errorf("Excluded = %v", ex)
			}
			h.feed(a, dev1[1:]) // late, after exclusion
			h.wantIgnored(uint64(len(dev1) - 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tel := NewTelemetry(telemetry.NewRegistry())
			o, done := newObs(t, func(c *Config) {
				c.Telemetry = tel
				if tc.mod != nil {
					tc.mod(c)
				}
			})
			tc.run(&tableHarness{t: t, o: o, tel: tel, done: done})
		})
	}
}

// TestPooledRecordsDoNotLeakAcrossEpochs recycles pending records
// through 3×MaxID epochs that alternate between full participation and
// a silent device (excluded, so its slots keep the previous epoch's
// results): nothing from an earlier epoch may surface in a later one.
func TestPooledRecordsDoNotLeakAcrossEpochs(t *testing.T) {
	const maxID = 16
	o, done := newObs(t, func(c *Config) {
		c.MaxID = maxID
		c.ExcludeAfter = 100
	})
	dev1, dev2 := unitsOf(1, 2), unitsOf(2, 3)
	o.Register(1, dev1)
	o.Register(2, dev2)
	h := &tableHarness{t: t, o: o, done: done}
	for e := 1; e <= 3*maxID; e++ {
		now := sim.Time(e) * 1000
		id := h.begin(now)
		h.feed(id, dev1)
		full := e%2 == 0
		if full {
			h.feed(id, dev2)
		} else {
			h.feed(id, dev2[:1])
			o.CheckTimeouts(now + 100)
		}
		g := h.snapshot(id)
		if g == nil {
			t.Fatalf("epoch %d not finalized", e)
		}
		want := len(dev1) + 1
		if full {
			want = len(dev1) + len(dev2)
		}
		if len(g.Results) != want {
			t.Fatalf("epoch %d: %d results, want %d", e, len(g.Results), want)
		}
		for u, r := range g.Results {
			if r.SnapshotID != id || r.Value/1000 != uint64(id) || r.Unit != u {
				t.Fatalf("epoch %d holds a result of another epoch: %+v", e, r)
			}
		}
		if (len(g.Excluded) == 0) != full {
			t.Fatalf("epoch %d: Excluded = %v", e, g.Excluded)
		}
	}
	if len(o.free) != 1 {
		t.Errorf("free list holds %d records, want the one record recycled throughout", len(o.free))
	}
}

// TestOnResultAllocs gates the per-result path: storing a result that
// does not finalize its snapshot allocates nothing.
//
//speedlight:allocgate observer.Observer.OnResult observer.Observer.lookup
func TestOnResultAllocs(t *testing.T) {
	o, _ := newObs(t, func(c *Config) { c.WrapAround = false })
	units := unitsOf(1, 600)
	o.Register(1, units)
	id, _ := o.Begin(0)
	next := 0
	allocs := testing.AllocsPerRun(1000, func() {
		o.OnResult(control.Result{Unit: units[next], SnapshotID: id, Value: 7, Consistent: true}, 0)
		next++
	})
	if allocs != 0 {
		t.Fatalf("OnResult allocates %.1f/op on a non-finalizing result, want 0", allocs)
	}
	if o.Pending() != 1 {
		t.Fatal("snapshot finalized: the gate measured the wrong path")
	}
}
