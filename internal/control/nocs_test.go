package control

import (
	"sort"
	"testing"

	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
)

// sortedNoCS is the collect-then-sort form of Figure 7, lines 16-22,
// that onNotifyNoCS replaced: walk downward from current gathering one
// entry per ID, sort the batch ascending. It is the reference the
// direct emission is held to.
func sortedNoCS(u *core.Unit, id dataplane.UnitID, lastRead, current packet.SeqID, now sim.Time) []Result {
	var batch []Result
	value, ok := u.RegSnapshot(current)
	batch = append(batch, Result{Unit: id, SnapshotID: current, Value: value, Consistent: ok, ReadAt: now})
	for i := current - 1; i > lastRead; i-- {
		if v, valid := u.RegSnapshot(i); valid {
			value, ok = v, true
		}
		batch = append(batch, Result{Unit: id, SnapshotID: i, Value: value, Consistent: ok, ReadAt: now})
	}
	sort.Slice(batch, func(a, b int) bool { return batch[a].SnapshotID < batch[b].SnapshotID })
	return batch
}

// pumpChecked delivers every queued notification, checking what each
// one emits against the reference computed from the same registers
// just before.
func (r *rig) pumpChecked(t *testing.T, now sim.Time) {
	t.Helper()
	for {
		n, ok := r.sw.PopNotif()
		if !ok {
			return
		}
		st := r.plane.unitOf(n.Unit)
		var want []Result
		if current := r.plane.unwrapID(n.NewSID, st.lastRead); current > st.lastRead {
			want = sortedNoCS(st.unit, st.id, st.lastRead, current, now)
		}
		before := len(r.results)
		r.plane.HandleNotification(n, now)
		got := r.results[before:]
		if len(got) != len(want) {
			t.Fatalf("%v: emitted %d results, reference %d", n.Unit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v result %d: emitted %+v, reference %+v", n.Unit, i, got[i], want[i])
			}
		}
	}
}

// drop discards every queued notification, as a full CPU queue would.
func (r *rig) drop() {
	for {
		if _, ok := r.sw.PopNotif(); !ok {
			return
		}
	}
}

// TestNoCSMultiIDJumpMatchesSortedReference drives the no-channel-state
// arm through single steps, a skipped ID, a dropped notification and an
// ID wrap (MaxID 8), and holds every emission to the sorted reference;
// the sequence one unit ships is also pinned literally.
func TestNoCSMultiIDJumpMatchesSortedReference(t *testing.T) {
	r := newRig(t, false, func(c *dataplane.Config) { c.MaxID = 8 })
	step := func(id packet.SeqID, packets int, deliver bool) {
		for i := 0; i < packets; i++ {
			r.sendThrough(t)
		}
		r.initiate(id, sim.Time(id))
		if deliver {
			r.pumpChecked(t, sim.Time(id))
		} else {
			r.drop()
		}
	}
	step(1, 3, true)  // one new ID: the direct path
	step(3, 2, false) // 2 is skipped, and 3's notifications are lost
	step(4, 1, true)  // 2, 3, 4 finish at once
	step(5, 0, true)
	step(6, 4, true)
	step(8, 1, false) // 7 is skipped, 8 (wire 0) is lost
	step(9, 2, true)  // 7, 8, 9 finish at once, across the wrap
	step(9, 5, true)  // a re-initiation changes nothing

	type row struct {
		id    packet.SeqID
		value uint64
		ok    bool
	}
	// Port 0 ingress counts the packets sent; a skipped ID inherits the
	// next recorded value (2 from 3, 7 from 8).
	want := []row{{1, 3, true}, {2, 5, true}, {3, 5, true}, {4, 6, true}, {5, 6, true},
		{6, 10, true}, {7, 11, true}, {8, 11, true}, {9, 13, true}}
	var got []row
	for _, res := range r.results {
		if res.Unit == (dataplane.UnitID{Node: 1, Port: 0, Dir: dataplane.Ingress}) {
			got = append(got, row{res.SnapshotID, res.Value, res.Consistent})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("port 0 ingress shipped %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(r.results) != 4*len(want) {
		t.Errorf("%d results in all, want %d per unit", len(r.results), len(want))
	}
}

// TestHandleNotificationAllocs gates the notification path at its
// common case — no channel state, one new ID, no journal: reading the
// register and shipping the result allocates nothing.
//
//speedlight:allocgate control.Plane.HandleNotification
func TestHandleNotificationAllocs(t *testing.T) {
	sw := newRig(t, false, func(c *dataplane.Config) { c.WrapAround = false }).sw
	consistent := 0
	plane, err := New(Config{Switch: sw, OnResult: func(res Result) {
		if res.Consistent {
			consistent++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	unit := dataplane.UnitID{Node: 1, Port: 0, Dir: dataplane.Ingress}
	u := sw.Unit(unit)
	pkt := dataplane.InitiationPacket(0)
	id := packet.SeqID(0)
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		pkt.Snap.ID = core.Wrap(id, 0, false)
		_, notif := u.OnPacket(pkt, u.Config().CPChannel)
		if notif == nil || !notif.SIDChanged() {
			t.Fatal("initiation did not advance the unit")
		}
		plane.HandleNotification(dataplane.CPUNotification{Unit: unit, Notification: *notif}, 0)
	})
	if allocs != 0 {
		t.Fatalf("HandleNotification allocates %.1f/op, want 0", allocs)
	}
	if consistent != 1001 {
		t.Fatalf("%d consistent results from 1001 notifications", consistent)
	}
}
