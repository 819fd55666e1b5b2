package speedlight

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/reconcile"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

func TestDefaultsAndHosts(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Hosts()); got != 6 {
		t.Errorf("hosts = %d, want 6 (paper testbed)", got)
	}
	if got := len(n.Inner().Topo().Switches); got != 4 {
		t.Errorf("switches = %d", got)
	}
	if got := n.Uplinks(0); len(got) != 2 {
		t.Errorf("uplinks = %v", got)
	}
}

func TestQuickstartFlow(t *testing.T) {
	n, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-fabric traffic, then a snapshot.
	for i := 0; i < 50; i++ {
		n.Send(0, 3, 1000, uint16(i), 80)
	}
	n.Run(2 * time.Millisecond)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Consistent {
		t.Error("snapshot inconsistent")
	}
	if len(snap.Values) != 28 {
		t.Errorf("values = %d, want 28 units", len(snap.Values))
	}
	// Host 0's ingress unit (leaf 0, port 0) saw all 50 packets.
	v, ok := snap.Value(0, 0, "ingress")
	if !ok {
		t.Fatal("leaf0 port0 ingress missing")
	}
	if v != 50 {
		t.Errorf("ingress count = %d, want 50", v)
	}
	if snap.Sync <= 0 || snap.Sync > time.Millisecond {
		t.Errorf("sync = %v, want microseconds-scale", snap.Sync)
	}
}

func TestSnapshotSequence(t *testing.T) {
	n, err := New(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var prev packet.SeqID
	for i := 0; i < 5; i++ {
		n.Send(1, 4, 500, uint16(i), 80)
		n.Run(time.Millisecond)
		snap, err := n.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.ID <= prev {
			t.Errorf("snapshot IDs not increasing: %d after %d", snap.ID, prev)
		}
		prev = snap.ID
	}
}

// TestEpochTraceChrome pins what `speedlight -trace-out` writes: the
// journal-derived epoch traces as one Chrome trace, with a whole-epoch
// span per snapshot and a wavefront span per switch inside each.
func TestEpochTraceChrome(t *testing.T) {
	n, err := New(Config{Seed: 1, Journal: journal.NewSet(0)})
	if err != nil {
		t.Fatal(err)
	}
	const snapshots = 5
	for i := 0; i < snapshots; i++ {
		n.Send(1, 4, 500, uint16(i), 80)
		n.Run(time.Millisecond)
		if _, err := n.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := epochtrace.WriteChromeTrace(&buf, n.EpochTraces()); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		TID  int64  `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a trace_event array: %v", err)
	}
	epochs := 0
	wavefront := map[int64]int{} // per epoch thread
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "epoch":
			epochs++
		case "wavefront":
			wavefront[ev.TID]++
		}
	}
	if epochs != snapshots || len(wavefront) != snapshots {
		t.Fatalf("epoch spans = %d over %d threads, want %d", epochs, len(wavefront), snapshots)
	}
	switches := len(n.Inner().Topo().Switches)
	for tid, got := range wavefront {
		if got != switches {
			t.Errorf("epoch %d: wavefront spans = %d, want one per switch (%d)", tid, got, switches)
		}
	}
}

// TestChurnCampaign runs what `speedlight -channel-state -churn
// rolling-upgrade -audit -workload none` runs on the default fabric: a
// journaled campaign while a reconciler takes each spine down and back,
// then the churn classification and the audit, all through the facade,
// and pins what the CLI prints for it. On a fabric this idle, each
// churn event overlaps a snapshot that finishes with the spine
// excluded, never a silent disagreement.
func TestChurnCampaign(t *testing.T) {
	n, err := New(Config{Seed: 1, ChannelState: true, Journal: journal.NewSet(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := n.Reconciler()
	if err != nil {
		t.Fatal(err)
	}
	spines := []topology.NodeID{2, 3} // after the two leaves, as the CLI numbers them
	const interval = 2 * time.Millisecond
	step := sim.Duration(interval.Nanoseconds())
	reconcile.RollingUpgrade(spines, 2*step, step, 2*step).Schedule(ctrl)
	ctrl.Start()
	n.Run(2 * time.Millisecond)
	const snapshots = 8
	for i := 0; i < snapshots; i++ {
		n.Run(interval)
		if _, err := n.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i+1, err)
		}
	}
	if len(ctrl.Log()) != 8 {
		t.Errorf("%d reconcile ops, want 8 (each spine taken down and brought back)", len(ctrl.Log()))
	}
	cs := n.ClassifyChurn()
	tal := reconcile.TallyOutcomes(cs)
	t.Logf("%d reconcile op(s), %d churn event(s): %s", len(ctrl.Log()), len(cs), tal)
	if len(cs) != len(ctrl.Log()) || tal.Excluded != len(cs) || tal.SilentDisagreement != 0 {
		t.Errorf("%d churn events (%s), want every reconcile op journaled and excluded", len(cs), tal)
	}
	rep := n.Audit()
	if consistent, inconsistent, incomplete := rep.Counts(); consistent != snapshots-1 || inconsistent != 0 || incomplete != 1 || rep.Disagreements != 0 {
		t.Errorf("audit: %d consistent, %d inconsistent, %d incomplete, %d disagreement(s); want %d, 0, 1, 0",
			consistent, inconsistent, incomplete, rep.Disagreements, snapshots-1)
	}
}

func TestMetricOptions(t *testing.T) {
	for _, m := range []Metric{PacketCount, ByteCount, EWMAInterarrival, QueueDepth} {
		n, err := New(Config{Metric: m, Seed: 5})
		if err != nil {
			t.Fatalf("metric %d: %v", m, err)
		}
		n.Send(0, 3, 1500, 1, 80)
		n.Run(time.Millisecond)
		if _, err := n.Snapshot(); err != nil {
			t.Errorf("metric %d snapshot: %v", m, err)
		}
	}
}

func TestByteCountValues(t *testing.T) {
	n, err := New(Config{Metric: ByteCount, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Send(0, 1, 1500, uint16(i), 80)
	}
	n.Run(2 * time.Millisecond)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value(0, 0, "ingress"); !ok || v != 15000 {
		t.Errorf("bytes = %d, want 15000", v)
	}
}

func TestFlowletBalancer(t *testing.T) {
	n, err := New(Config{Balancer: Flowlet, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.Send(0, 3, 1000, 9, 80)
	}
	n.Run(2 * time.Millisecond)
	if _, err := n.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelStateOption(t *testing.T) {
	n, err := New(Config{ChannelState: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		n.Send(2, 5, 800, uint16(i), 80)
	}
	n.Run(2 * time.Millisecond)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Consistent {
		t.Error("channel-state snapshot inconsistent")
	}
}

func TestBadFabricRejected(t *testing.T) {
	if _, err := New(Config{Fabric: Fabric{Leaves: -1, Spines: 1, HostsPerLeaf: 1}}); err == nil {
		t.Error("bad fabric accepted")
	}
}

func TestValueMissLookup(t *testing.T) {
	s := &Snapshot{Values: []UnitValue{{Switch: 0, Port: 0, Direction: "ingress", Value: 5, Consistent: true}}}
	if _, ok := s.Value(9, 9, "egress"); ok {
		t.Error("missing unit lookup succeeded")
	}
	if v, ok := s.Value(0, 0, "ingress"); !ok || v != 5 {
		t.Error("present unit lookup failed")
	}
}

func TestCoSLevelsOption(t *testing.T) {
	n, err := New(Config{CoSLevels: 3, ChannelState: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.SendCoS(0, 3, 500, uint16(i), 80, uint8(i%3))
	}
	n.Run(2 * time.Millisecond)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Consistent {
		t.Error("CoS snapshot inconsistent")
	}
	if v, ok := snap.Value(0, 0, "ingress"); !ok || v != 30 {
		t.Errorf("ingress count = %d, want 30", v)
	}
}
