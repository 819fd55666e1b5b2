package control

import (
	"testing"

	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// rig is a one-switch harness: a 2-port switch whose notifications are
// pumped into a control plane, collecting results.
type rig struct {
	sw      *dataplane.Switch
	plane   *Plane
	results []Result
}

func newRig(t *testing.T, channelState bool, mod func(*dataplane.Config)) *rig {
	t.Helper()
	dcfg := dataplane.Config{
		Node:         1,
		NumPorts:     2,
		MaxID:        16,
		WrapAround:   true,
		ChannelState: channelState,
		Metrics:      func(dataplane.UnitID) core.Metric { return &counters.PacketCount{} },
		FIB: &routing.FIB{
			Node:     1,
			Version:  1,
			NextHops: map[topology.HostID][]int{10: {1}},
		},
		Balancer: routing.ECMP{},
	}
	if mod != nil {
		mod(&dcfg)
	}
	sw, err := dataplane.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{sw: sw}
	plane, err := New(Config{
		Switch: sw,
		// Only channels that actually carry traffic in these tests gate
		// completion: ingress units their external channel; the egress
		// unit of port 1 only ingress port 0 (all data flows 0 -> 1).
		CompletionChannels: func(id dataplane.UnitID) []int {
			if id.Dir == dataplane.Ingress {
				return []int{0}
			}
			return []int{0}
		},
		OnResult: func(res Result) { r.results = append(r.results, res) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.plane = plane
	return r
}

// pump drains all pending notifications into the control plane.
func (r *rig) pump(now sim.Time) {
	for {
		n, ok := r.sw.PopNotif()
		if !ok {
			return
		}
		r.plane.HandleNotification(n, now)
	}
}

// sendThrough pushes a data packet host->port0->port1 immediately (no
// queueing).
func (r *rig) sendThrough(t *testing.T) {
	t.Helper()
	p := &packet.Packet{DstHost: 10, Size: 100}
	res := r.sw.Ingress(p, 0, 0)
	if res.Drop {
		t.Fatal("unexpected drop")
	}
	r.sw.Egress(p, res.EgressPort, 0)
}

// initiate runs a full local initiation: CPU -> every ingress -> same
// port egress (immediately; these tests have no queues).
func (r *rig) initiate(id packet.SeqID, now sim.Time) {
	for _, init := range r.plane.Initiate(id, now) {
		r.sw.Egress(init.Pkt, init.Port, now)
	}
}

func (r *rig) resultsFor(id packet.SeqID) []Result {
	var out []Result
	for _, res := range r.results {
		if res.SnapshotID == id {
			out = append(out, res)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil switch accepted")
	}
	r := newRig(t, false, nil)
	if _, err := New(Config{Switch: r.sw}); err == nil {
		t.Error("nil OnResult accepted")
	}
}

func TestNoCSBasicSnapshot(t *testing.T) {
	r := newRig(t, false, nil)
	// Three packets, then snapshot 1.
	for i := 0; i < 3; i++ {
		r.sendThrough(t)
	}
	r.initiate(1, 100)
	r.pump(101)

	// Every unit should report snapshot 1 exactly once.
	got := r.resultsFor(1)
	if len(got) != 4 {
		t.Fatalf("results = %d, want 4 units", len(got))
	}
	values := map[dataplane.UnitID]uint64{}
	for _, res := range got {
		if !res.Consistent {
			t.Errorf("unit %v inconsistent", res.Unit)
		}
		values[res.Unit] = res.Value
	}
	if v := values[dataplane.UnitID{Node: 1, Port: 0, Dir: dataplane.Ingress}]; v != 3 {
		t.Errorf("port0 ingress = %d, want 3", v)
	}
	if v := values[dataplane.UnitID{Node: 1, Port: 1, Dir: dataplane.Egress}]; v != 3 {
		t.Errorf("port1 egress = %d, want 3", v)
	}
	if !r.plane.Complete(1) {
		t.Error("snapshot 1 should be complete")
	}
	if r.plane.Complete(2) {
		t.Error("snapshot 2 should not be complete")
	}
}

func TestNoCSSkippedEpochsInferValues(t *testing.T) {
	r := newRig(t, false, nil)
	r.sendThrough(t)
	r.sendThrough(t)
	// Jump straight to snapshot 3 (initiations 1 and 2 were lost).
	r.initiate(3, 0)
	r.pump(0)
	for _, id := range []packet.SeqID{1, 2, 3} {
		got := r.resultsFor(id)
		if len(got) != 4 {
			t.Fatalf("snapshot %d: %d results", id, len(got))
		}
		for _, res := range got {
			if !res.Consistent {
				t.Errorf("snapshot %d unit %v inconsistent", id, res.Unit)
			}
			var want uint64
			if res.Unit.Port == 0 && res.Unit.Dir == dataplane.Ingress ||
				res.Unit.Port == 1 && res.Unit.Dir == dataplane.Egress {
				want = 2
			}
			// The skipped epochs inherit the value of epoch 3: the unit
			// state cannot have changed in between.
			if res.Value != want {
				t.Errorf("snapshot %d unit %v = %d, want %d", id, res.Unit, res.Value, want)
			}
		}
	}
}

func TestNoCSResultsAscending(t *testing.T) {
	r := newRig(t, false, nil)
	r.initiate(3, 0)
	r.pump(0)
	perUnit := map[dataplane.UnitID]packet.SeqID{}
	for _, res := range r.results {
		if prev, ok := perUnit[res.Unit]; ok && res.SnapshotID <= prev {
			t.Fatalf("unit %v results not ascending: %d after %d", res.Unit, res.SnapshotID, prev)
		}
		perUnit[res.Unit] = res.SnapshotID
	}
}

func TestCSCompletionGatedOnLastSeen(t *testing.T) {
	r := newRig(t, true, nil)
	r.sendThrough(t)
	r.initiate(1, 0)
	r.pump(0)
	// The ingress unit of port 0 has not seen epoch 1 from its external
	// channel yet (only from the CPU, which does not gate completion),
	// so its snapshot must not be finalized.
	ing0 := dataplane.UnitID{Node: 1, Port: 0, Dir: dataplane.Ingress}
	for _, res := range r.resultsFor(1) {
		if res.Unit == ing0 {
			t.Fatal("port0 ingress finalized before its channel advanced")
		}
	}
	// Now external traffic carries epoch 1 (the header added at the
	// edge carries the unit's current, already-advanced epoch).
	r.sendThrough(t)
	r.pump(0)
	found := false
	for _, res := range r.resultsFor(1) {
		if res.Unit == ing0 {
			found = true
			if !res.Consistent {
				t.Error("snapshot should be consistent")
			}
			if res.Value != 1 {
				t.Errorf("value = %d, want 1 (one packet pre-snapshot)", res.Value)
			}
		}
	}
	if !found {
		t.Fatal("port0 ingress never finalized")
	}
}

func TestCSSkippedEpochsMarkedInconsistent(t *testing.T) {
	r := newRig(t, true, nil)
	r.sendThrough(t)
	r.initiate(1, 0)
	r.sendThrough(t)
	// Jump: epochs 2,3 skipped everywhere.
	r.initiate(4, 0)
	r.sendThrough(t)
	r.pump(0)

	for _, id := range []packet.SeqID{2, 3} {
		rs := r.resultsFor(id)
		if len(rs) == 0 {
			t.Fatalf("no results for skipped epoch %d", id)
		}
		for _, res := range rs {
			if res.Consistent {
				t.Errorf("skipped epoch %d at %v reported consistent", id, res.Unit)
			}
		}
	}
	// Epochs 1 and 4 must be consistent at the traffic-bearing units.
	for _, id := range []packet.SeqID{1, 4} {
		for _, res := range r.resultsFor(id) {
			if !res.Consistent {
				t.Errorf("epoch %d at %v inconsistent", id, res.Unit)
			}
		}
	}
}

func TestDuplicateNotificationsDropped(t *testing.T) {
	r := newRig(t, false, nil)
	r.initiate(1, 0)
	var saved []dataplane.CPUNotification
	for {
		n, ok := r.sw.PopNotif()
		if !ok {
			break
		}
		saved = append(saved, n)
	}
	for _, n := range saved {
		r.plane.HandleNotification(n, 0)
	}
	count := len(r.results)
	// Replay every notification: no new results may appear.
	for _, n := range saved {
		r.plane.HandleNotification(n, 0)
	}
	if len(r.results) != count {
		t.Errorf("duplicate notifications produced %d extra results", len(r.results)-count)
	}
}

func TestUnknownUnitNotificationIgnored(t *testing.T) {
	r := newRig(t, false, nil)
	r.plane.HandleNotification(dataplane.CPUNotification{
		Unit: dataplane.UnitID{Node: 9, Port: 0, Dir: dataplane.Ingress},
	}, 0)
	if len(r.results) != 0 {
		t.Error("foreign notification produced results")
	}
}

func TestPollRecoversFromNotificationDrops(t *testing.T) {
	r := newRig(t, false, func(c *dataplane.Config) { c.NotifCapacity = 1 })
	// Initiating at 2 ports produces 4 notifications; capacity 1 drops 3.
	r.initiate(1, 0)
	r.pump(0)
	if len(r.resultsFor(1)) == 4 {
		t.Skip("no drops occurred; cannot exercise recovery")
	}
	r.plane.Poll(5)
	if got := len(r.resultsFor(1)); got != 4 {
		t.Errorf("after poll: %d results, want 4", got)
	}
	if !r.plane.Complete(1) {
		t.Error("snapshot 1 incomplete after poll")
	}
}

func TestPollIdempotent(t *testing.T) {
	r := newRig(t, true, nil)
	r.sendThrough(t)
	r.initiate(1, 0)
	r.sendThrough(t)
	r.pump(0)
	count := len(r.results)
	r.plane.Poll(1)
	r.plane.Poll(2)
	if len(r.results) != count {
		t.Errorf("polls added %d spurious results", len(r.results)-count)
	}
}

func TestReInitiationHarmless(t *testing.T) {
	r := newRig(t, false, nil)
	r.initiate(1, 0)
	r.pump(0)
	count := len(r.results)
	// Re-send the same initiation (timeout path, Section 6).
	r.initiate(1, 10)
	r.pump(10)
	if len(r.results) != count {
		t.Errorf("re-initiation produced %d extra results", len(r.results)-count)
	}
	if r.plane.initiated != 1 {
		t.Errorf("initiated = %d", r.plane.initiated)
	}
}

func TestWraparoundAcrossManyLaps(t *testing.T) {
	r := newRig(t, false, nil)
	// MaxID is 16; run 40 snapshots, reading each promptly.
	for id := packet.SeqID(1); id <= 40; id++ {
		r.sendThrough(t)
		r.initiate(id, sim.Time(id))
		r.pump(sim.Time(id))
		if !r.plane.Complete(id) {
			t.Fatalf("snapshot %d incomplete", id)
		}
	}
	// The port0-ingress series must be exactly 1,2,3,...: one packet per
	// epoch.
	ing0 := dataplane.UnitID{Node: 1, Port: 0, Dir: dataplane.Ingress}
	var prev uint64
	for _, res := range r.results {
		if res.Unit != ing0 {
			continue
		}
		if !res.Consistent {
			t.Fatalf("snapshot %d inconsistent", res.SnapshotID)
		}
		if res.Value != prev+1 {
			t.Fatalf("snapshot %d value = %d, want %d", res.SnapshotID, res.Value, prev+1)
		}
		prev = res.Value
	}
	if prev != 40 {
		t.Fatalf("final value %d, want 40", prev)
	}
}

// TestLastRead: a unit's finalized ID, which Complete reads, moves to
// the snapshot read, and a unit of another switch has no state here.
func TestLastRead(t *testing.T) {
	r := newRig(t, false, nil)
	ing0 := r.plane.unitOf(dataplane.UnitID{Node: 1, Port: 0, Dir: dataplane.Ingress})
	if ing0.lastRead != 0 {
		t.Error("initial lastRead nonzero")
	}
	r.initiate(2, 0)
	r.pump(0)
	if got := ing0.lastRead; got != 2 {
		t.Errorf("lastRead = %d, want 2", got)
	}
	if r.plane.unitOf(dataplane.UnitID{Node: 9}) != nil {
		t.Error("unit of another switch has state")
	}
}
