package live

import (
	"sync"
	"testing"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// trickle has every host send one small packet a millisecond to its
// neighbour on the same leaf until the returned stop function is
// called, so that hosts have deliveries to inspect. Nothing crosses the
// fabric: every switch-to-switch channel stays idle and only a
// neighbour's marker can advance it.
func trickle(n *Network, topo *topology.Topology) (stop func()) {
	var wg sync.WaitGroup
	quit := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			for _, sw := range topo.Switches {
				hosts := topo.HostsOn(sw.ID)
				for k, h := range hosts {
					n.Inject(h.ID, &packet.Packet{
						DstHost: uint32(hosts[(k+1)%len(hosts)].ID), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 100,
					})
				}
			}
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// takeCS takes one channel-state snapshot and requires it to finish
// consistent, complete and with nothing excluded.
func takeCS(t *testing.T, n *Network) *observer.GlobalSnapshot {
	t.Helper()
	_, done, err := n.TakeSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		if !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != 28 {
			t.Errorf("snapshot %d: consistent=%v excluded=%v results=%d",
				g.ID, g.Consistent, g.Excluded, len(g.Results))
		}
		return g
	case <-time.After(10 * time.Second):
		t.Fatal("channel-state snapshot never completed")
		return nil
	}
}

// TestMarkerReceiptsJournaled: a neighbour's marker enters through
// IngressOnly, so a wall-clock journal carries the marker_recv stamps
// the epoch tracer reads, the marker counter counts both directions,
// and the trace still partitions the epoch exactly.
func TestMarkerReceiptsJournaled(t *testing.T) {
	ls := leafSpine(t)
	reg := telemetry.NewRegistry()
	n, err := New(Config{
		Topo:         ls.Topology,
		ChannelState: true,
		RetryEvery:   5 * time.Millisecond,
		Registry:     reg,
		Journal:      journal.NewSet(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	stop := trickle(n, ls.Topology)
	g := takeCS(t, n)
	stop()
	n.Stop() // the rings are quiet from here on

	// Every retried switch flooded one marker per port (one class), and
	// every copy that left on a switch-facing port was received.
	type swEpoch struct {
		sw int
		id packet.SeqID
	}
	var sent, recvd uint64
	recvBy := map[swEpoch]int{}
	for _, ev := range n.Journal().Events() {
		switch ev.Kind {
		case journal.KindObsRetry:
			sent += uint64(len(ls.Topology.Switch(topology.NodeID(ev.Switch)).Ports))
		case journal.KindMarkerRecv:
			recvd++
			recvBy[swEpoch{ev.Switch, ev.SnapshotID}]++
			if kind := ls.Topology.Peer(topology.NodeID(ev.Switch), ev.Port).Kind; kind != topology.PeerSwitch {
				t.Errorf("marker_recv on switch %d port %d, which faces peer kind %v", ev.Switch, ev.Port, kind)
			}
		}
	}
	if sent == 0 || recvd == 0 {
		t.Fatalf("flood left no trace: %d marker(s) sent, %d marker_recv event(s)", sent, recvd)
	}
	if got := reg.Counter("speedlight_dp_markers_total", "").Value(); got != sent+recvd {
		t.Errorf("speedlight_dp_markers_total = %d, want %d sent + %d received", got, sent, recvd)
	}

	traces := epochtrace.Build(n.Journal().Events())
	if len(traces) != 1 || traces[0].ID != g.ID {
		t.Fatalf("epoch traces = %d, want the one epoch %d", len(traces), g.ID)
	}
	tr := traces[0]
	if tr.CriticalSumNs() != tr.DurationNs() {
		t.Errorf("critical path sums to %d ns, completion latency is %d ns", tr.CriticalSumNs(), tr.DurationNs())
	}
	// The fabric channels were idle, so no switch could finish without a
	// neighbour's marker: each has some inside the epoch (copies that
	// arrive after completion are in the journal but not the trace).
	if len(tr.Switches) != 4 {
		t.Errorf("switch traces = %d, want 4", len(tr.Switches))
	}
	for _, st := range tr.Switches {
		if have := recvBy[swEpoch{st.Switch, tr.ID}]; st.Markers == 0 || st.Markers > have {
			t.Errorf("switch %d: trace counts %d marker(s), journal holds %d", st.Switch, st.Markers, have)
		}
	}

	rep := n.Audit()
	for _, v := range rep.Verdicts {
		if v.Kind != audit.Consistent {
			t.Errorf("snapshot %d audited %v: %s", v.SnapshotID, v.Kind, v.Cause)
		}
	}
	if rep.Disagreements != 0 {
		t.Errorf("%d auditor/observer disagreements", rep.Disagreements)
	}
}
