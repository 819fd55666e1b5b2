package node

import (
	"fmt"
	"reflect"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// fakeHost records what a switch hands its runtime. Its clock ticks
// once per read, so every step has its own instant.
type fakeHost struct {
	clock sim.Time
	log   []string // "fwd p<port> ..." and, through onResult, "res <unit>"
	fwd   []*packet.Packet
	// quiet makes the host count instead of record: the allocation
	// gate's host must not allocate itself.
	quiet         bool
	fwds, results int
}

func (h *fakeHost) Now() sim.Time {
	h.clock++
	return h.clock
}

func (h *fakeHost) Forward(port int, pkt *packet.Packet) {
	if h.fwds++; h.quiet {
		return
	}
	h.log = append(h.log, fmt.Sprintf("fwd p%d snap=%v", port, pkt.HasSnap))
	h.fwd = append(h.fwd, pkt)
}

func (h *fakeHost) onResult(res control.Result) {
	if h.results++; h.quiet {
		return
	}
	h.log = append(h.log, fmt.Sprintf("res %v", res.Unit))
}

// Hosts 0 and 1 hang off ports 0 and 1 of the switch under test, port 2
// leads to a neighbour switch that has host 2, and port 3 is unwired.
const (
	host1, host2 = 1, 2
	fabricPort   = 2
)

// testTopo builds that topology.
func testTopo(t testing.TB) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	a, far := b.AddSwitch(4), b.AddSwitch(2)
	b.AttachHost(a, 0, sim.Microsecond)
	b.AttachHost(a, 1, sim.Microsecond)
	b.Connect(a, fabricPort, far, 0, sim.Microsecond)
	b.AttachHost(far, 1, sim.Microsecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// testSwitches builds both switches of that topology, each on a fake
// host of its own; jr journals the first.
func testSwitches(t testing.TB, channelState bool, jr *journal.Journal) (sws [2]*Switch, hosts [2]*fakeHost) {
	t.Helper()
	topo := testTopo(t)
	fibs, err := routing.ComputeFIBs(topo)
	if err != nil {
		t.Fatal(err)
	}
	utilized := routing.UtilizedPairs(topo, fibs)
	for i, spec := range topo.Switches {
		if i > 0 {
			jr = nil
		}
		hosts[i] = &fakeHost{}
		sws[i], err = New(Config{
			Spec: spec,
			DP: dataplane.Config{
				FIB: fibs[spec.ID], MaxID: 16, WrapAround: true, ChannelState: channelState, Journal: jr,
			},
			Utilized: utilized[spec.ID], OnResult: hosts[i].onResult,
		}, hosts[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	return sws, hosts
}

func testSwitch(t testing.TB, channelState bool, jr *journal.Journal) (*Switch, *fakeHost) {
	sws, hosts := testSwitches(t, channelState, jr)
	return sws[0], hosts[0]
}

func kinds(jr *journal.Journal, kind journal.Kind) (evs []journal.Event) {
	for _, ev := range jr.Events() {
		if ev.Kind == kind {
			evs = append(evs, ev)
		}
	}
	return evs
}

func TestPacket(t *testing.T) {
	initiation := dataplane.InitiationPacket(1)
	initiation.DstHost = host1
	for _, tc := range []struct {
		name string
		pkt  *packet.Packet
		port int
		want []string // the host's log
		recv int      // marker_recv events journaled
	}{
		{"no route", &packet.Packet{DstHost: 99}, 0, nil, 0},
		{"edge port strips the header", &packet.Packet{DstHost: host1}, 0, []string{"fwd p1 snap=false"}, 0},
		{"fabric port keeps the header", &packet.Packet{DstHost: host2}, 0, []string{"fwd p2 snap=true"}, 0},
		{"initiation consumed at egress", initiation, fabricPort,
			[]string{"res sw0/p2/ingress", "res sw0/p1/egress"}, 0},
		{"marker in dies after ingress", &packet.Packet{DstHost: uint32(BroadcastHost)}, fabricPort, nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jr := journal.New(256)
			sw, h := testSwitch(t, false, jr)
			sw.Packet(tc.pkt, tc.port)
			if !reflect.DeepEqual(h.log, tc.want) {
				t.Errorf("host saw %q, want %q", h.log, tc.want)
			}
			recv := kinds(jr, journal.KindMarkerRecv)
			if len(recv) != tc.recv {
				t.Errorf("%d marker_recv event(s), want %d", len(recv), tc.recv)
			}
			for _, ev := range recv {
				if ev.Port != tc.port {
					t.Errorf("marker_recv on port %d, want %d", ev.Port, tc.port)
				}
			}
			if h.clock != 1 {
				t.Errorf("the step read the clock %d times, want once", h.clock)
			}
			if sw.DP.PendingNotifs() != 0 {
				t.Errorf("%d notification(s) left undrained", sw.DP.PendingNotifs())
			}
		})
	}
}

// TestInitiateOrder: the initiations run (and their notifications
// drain, finishing every unit without channel state) before the flood
// starts; the flood's copies leave through switch-facing ports only —
// a marker out of a host port or an unwired one is dropped — and Poll
// is a step of its own afterwards.
func TestInitiateOrder(t *testing.T) {
	jr := journal.New(1024)
	sw, h := testSwitch(t, false, jr)

	sw.Initiate(1, false)
	if len(h.fwd) != 0 {
		t.Fatalf("initiation without markers forwarded %d packet(s)", len(h.fwd))
	}
	if sw.CP.Initiated() != 1 || len(h.log) != 8 {
		t.Fatalf("initiated %d with %d result(s), want snapshot 1 finished on 8 units: %q",
			sw.CP.Initiated(), len(h.log), h.log)
	}

	h.log = nil
	sw.Initiate(2, true)
	// Ingress units record as the CPU's initiation reaches them, egress
	// units as it leaves: the drain after the first egress step reports
	// all four ingress units, then each egress unit follows its own.
	want := []string{
		"res sw0/p0/ingress", "res sw0/p1/ingress", "res sw0/p2/ingress", "res sw0/p3/ingress",
		"res sw0/p0/egress", "res sw0/p1/egress", "res sw0/p2/egress", "res sw0/p3/egress",
	}
	for range sw.spec.Ports { // one injection per port, one copy out of the fabric port
		want = append(want, "fwd p2 snap=true")
	}
	if !reflect.DeepEqual(h.log, want) {
		t.Errorf("step order:\n got %q\nwant %q", h.log, want)
	}
	for _, m := range h.fwd {
		if topology.HostID(m.DstHost) != BroadcastHost || m.Size != 64 {
			t.Errorf("forwarded %+v, want a 64-byte marker broadcast", m)
		}
	}

	sw.Poll()
	evs := jr.Events()
	if last := evs[len(evs)-1]; last.Kind != journal.KindPoll || last.AtNs != 3 {
		t.Errorf("journal ends with %v at %d, want the poll at instant 3", last.Kind, last.AtNs)
	}
	for _, ev := range evs {
		if ev.Kind == journal.KindInitiate && ev.AtNs != int64(ev.SnapshotID) {
			t.Errorf("initiation of %d stamped %d: each step has one instant", ev.SnapshotID, ev.AtNs)
		}
	}
}

// recSink records a flood.
type recSink struct {
	dp  *dataplane.Switch
	log []string
}

func (r *recSink) Drain() {
	r.log = append(r.log, "drain")
}

func (r *recSink) Egress(pkt *packet.Packet, port int) {
	r.log = append(r.log, fmt.Sprintf("egress p%d cos%d ch%d", port, pkt.CoS, pkt.Snap.Channel))
}

// TestFloodShape pins the order emunet's digests depend on: NumPorts ×
// NumCoS injections, ports then classes, a Drain after each, then one
// copy per egress port in port order, tagged with the (ingress port,
// class) channel it came from.
func TestFloodShape(t *testing.T) {
	const ports, classes = 3, 2
	jr := journal.New(256)
	dp, err := dataplane.New(dataplane.Config{
		NumPorts: ports, NumCoS: classes, MaxID: 16, WrapAround: true, ChannelState: true,
		Metrics: func(dataplane.UnitID) core.Metric { return &counters.PacketCount{} },
		Journal: jr,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recSink{dp: dp}
	FloodMarkers(dp, 7, sink)

	var want []string
	for p := 0; p < ports; p++ {
		for c := 0; c < classes; c++ {
			want = append(want, "drain")
			for e := 0; e < ports; e++ {
				want = append(want, fmt.Sprintf("egress p%d cos%d ch%d", e, c, p*classes+c))
			}
		}
	}
	if !reflect.DeepEqual(sink.log, want) {
		t.Errorf("flood order:\n got %q\nwant %q", sink.log, want)
	}
	sent := kinds(jr, journal.KindMarkerSend)
	if len(sent) != ports*classes {
		t.Fatalf("%d marker_send event(s), want %d", len(sent), ports*classes)
	}
	for i, ev := range sent {
		if ev.Port != i/classes || ev.Value != uint64(i%classes) || ev.AtNs != 7 {
			t.Errorf("injection %d: port %d class %d at %d, want port %d class %d at 7",
				i, ev.Port, ev.Value, ev.AtNs, i/classes, i%classes)
		}
	}
}

// TestInitiateAllocs: an initiation without markers — the control
// plane's, through every port's ingress and egress unit, and the results
// it finishes — allocates nothing: the initiation packets are the data
// plane's own.
//
//speedlight:allocgate node.Switch.Initiate control.Plane.Initiate dataplane.Switch.InitiateIngress
func TestInitiateAllocs(t *testing.T) {
	sw, h := testSwitch(t, false, nil)
	h.quiet = true
	id := packet.SeqID(0)
	initiate := func() {
		id++
		sw.Initiate(id, false)
	}
	initiate()
	if n := testing.AllocsPerRun(500, initiate); n != 0 {
		t.Fatalf("initiation allocates %v allocs/op, want 0", n)
	}
	// AllocsPerRun runs it once more to warm up.
	if h.fwds != 0 || h.results != 8*502 {
		t.Errorf("%d forwards and %d results in 502 initiations, want none and 8 per initiation", h.fwds, h.results)
	}
}

// TestPacketStepAllocs: the realtime per-packet path — ingress, drain,
// egress, strip, forward — does not allocate in steady state.
//
//speedlight:allocgate node.Switch.Packet node.Switch.Ingress node.Switch.Egress node.Switch.send node.Switch.drain
func TestPacketStepAllocs(t *testing.T) {
	sw, h := testSwitch(t, false, nil)
	h.quiet = true
	pkt := &packet.Packet{Size: 100}
	marker := &packet.Packet{DstHost: uint32(BroadcastHost), Size: 64}
	id := packet.SeqID(0)
	cycle := func() {
		// From the fabric to a host, carrying a new snapshot ID: both
		// units on the path record, notify and report a result, and the
		// header is stripped.
		id++
		pkt.DstHost, pkt.HasSnap = host1, true
		pkt.Snap = packet.SnapshotHeader{Type: packet.TypeData, ID: core.Wrap(id, 16, true)}
		sw.Packet(pkt, fabricPort)
		// A neighbour's marker.
		marker.HasSnap, marker.Snap = true, pkt.Snap
		sw.Packet(marker, fabricPort)
		// From a host to the fabric: the header is added.
		pkt.DstHost = host2
		sw.Packet(pkt, 0)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	h.fwds, h.results = 0, 0
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("packet step allocates %v allocs/op, want 0", n)
	}
	// AllocsPerRun runs the cycle once more to warm up.
	if h.fwds != 2*501 || h.results != 2*501 {
		t.Errorf("%d forwards and %d results in 501 cycles, want 2 of each per cycle", h.fwds, h.results)
	}
}
