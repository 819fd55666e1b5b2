package dataplane

import (
	"testing"

	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/topology"
)

func testSwitch(t *testing.T, mod func(*Config)) *Switch {
	t.Helper()
	cfg := Config{
		Node:         1,
		NumPorts:     4,
		MaxID:        64,
		WrapAround:   true,
		ChannelState: true,
		Metrics:      func(UnitID) core.Metric { return &counters.PacketCount{} },
		FIB: &routing.FIB{
			Node:    1,
			Version: 1,
			NextHops: map[topology.HostID][]int{
				10: {2},
				11: {2, 3},
			},
		},
		Balancer:  routing.ECMP{},
		EdgePorts: map[int]bool{0: true},
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumPorts: 0}); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := New(Config{NumPorts: 2}); err == nil {
		t.Error("missing metric factory accepted")
	}
}

func TestHeaderAddedAtEdge(t *testing.T) {
	s := testSwitch(t, nil)
	pkt := &packet.Packet{DstHost: 10, Size: 100}
	res := s.Ingress(pkt, 0, 0)
	if res.Drop {
		t.Fatal("packet dropped")
	}
	if !pkt.HasSnap {
		t.Fatal("header not added")
	}
	if pkt.Snap.Type != packet.TypeData {
		t.Error("wrong header type")
	}
	if pkt.Snap.ID != 0 {
		t.Errorf("added header ID = %d, want current unit epoch 0", pkt.Snap.ID)
	}
	if res.EgressPort != 2 {
		t.Errorf("egress port = %d, want 2", res.EgressPort)
	}
	if pkt.Snap.Channel != 0 {
		t.Errorf("channel = %d, want ingress port 0", pkt.Snap.Channel)
	}
}

func TestHeaderAddedCarriesCurrentEpoch(t *testing.T) {
	s := testSwitch(t, nil)
	// Advance port 0's ingress unit to epoch 3 via initiation.
	_ = s.InitiateIngress(3, 0, 0)
	pkt := &packet.Packet{DstHost: 10}
	s.Ingress(pkt, 0, 0)
	if pkt.Snap.ID != 3 {
		t.Errorf("added header ID = %d, want 3", pkt.Snap.ID)
	}
}

func TestIngressDropsUnroutable(t *testing.T) {
	s := testSwitch(t, nil)
	pkt := &packet.Packet{DstHost: 99}
	if res := s.Ingress(pkt, 0, 0); !res.Drop {
		t.Error("unroutable packet not dropped")
	}
	s2 := testSwitch(t, func(c *Config) { c.FIB = nil })
	if res := s2.Ingress(&packet.Packet{DstHost: 10}, 0, 0); !res.Drop {
		t.Error("switch without FIB should drop")
	}
}

// TestRouteTableFollowsFIBVersion: the switch routes from the table it
// compiled from its FIB, and recompiles it when the FIB's version moves —
// a rewrite without the bump goes unseen.
func TestRouteTableFollowsFIBVersion(t *testing.T) {
	s := testSwitch(t, nil)
	route := func(dst uint32) IngressResult { return s.Ingress(&packet.Packet{DstHost: dst}, 0, 0) }
	if res := route(10); res.Drop || res.EgressPort != 2 {
		t.Fatalf("host 10 routed %+v, want port 2", res)
	}
	fib := s.cfg.FIB
	fib.NextHops = map[topology.HostID][]int{10: {3}, 12: {1}}
	if res := route(10); res.Drop || res.EgressPort != 2 {
		t.Fatalf("host 10 routed %+v before the version bump, want the compiled port 2", res)
	}
	if res := route(12); !res.Drop {
		t.Fatalf("host 12 routed %+v before the version bump, want a drop", res)
	}
	fib.Version++
	if res := route(10); res.Drop || res.EgressPort != 3 {
		t.Fatalf("host 10 routed %+v after the bump, want port 3", res)
	}
	if res := route(12); res.Drop || res.EgressPort != 1 {
		t.Fatalf("host 12 routed %+v after the bump, want port 1", res)
	}
	if res := route(11); !res.Drop {
		t.Fatalf("host 11 routed %+v after its route went, want a drop", res)
	}
}

func TestChannelRewrittenAcrossSwitch(t *testing.T) {
	s := testSwitch(t, nil)
	pkt := &packet.Packet{DstHost: 10}
	res := s.Ingress(pkt, 3, 0)
	if pkt.Snap.Channel != 3 {
		t.Fatalf("after ingress channel = %d, want 3", pkt.Snap.Channel)
	}
	egr := s.Egress(pkt, res.EgressPort, 0)
	if egr.Drop {
		t.Fatal("data packet dropped at egress")
	}
	if pkt.Snap.Channel != 0 {
		t.Errorf("on-wire channel = %d, want 0 (external)", pkt.Snap.Channel)
	}
	if egr.StripHeader {
		t.Error("non-edge egress should not strip")
	}
}

func TestEdgeEgressStrips(t *testing.T) {
	s := testSwitch(t, func(c *Config) {
		c.FIB.NextHops[10] = []int{0} // host behind edge port 0
	})
	pkt := &packet.Packet{DstHost: 10}
	res := s.Ingress(pkt, 2, 0)
	if res.EgressPort != 0 {
		t.Fatalf("egress port = %d", res.EgressPort)
	}
	egr := s.Egress(pkt, 0, 0)
	if !egr.StripHeader {
		t.Error("edge egress must strip the header")
	}
}

func TestInitiationPath(t *testing.T) {
	s := testSwitch(t, nil)
	pkts := s.InitiateIngress(1, 2, 100)
	if len(pkts) != 1 {
		t.Fatalf("initiations = %d, want 1 per CoS", len(pkts))
	}
	pkt := pkts[0]
	if pkt.Snap.Type != packet.TypeInitiation {
		t.Fatal("wrong packet type")
	}
	if got := s.Port(2).IngressUnit.CurrentSID(); got != 1 {
		t.Errorf("ingress sid = %d, want 1", got)
	}
	if pkt.Snap.Channel != 2 {
		t.Errorf("initiation channel = %d, want ingress port 2", pkt.Snap.Channel)
	}
	egr := s.Egress(pkt, 2, 101)
	if !egr.Drop {
		t.Error("initiation must be dropped after egress processing")
	}
	if got := s.Port(2).EgressUnit.CurrentSID(); got != 1 {
		t.Errorf("egress sid = %d, want 1", got)
	}
}

func TestInitiationNotCounted(t *testing.T) {
	s := testSwitch(t, nil)
	pkt := s.InitiateIngress(1, 0, 0)[0]
	s.Egress(pkt, 0, 0)
	ingM := s.Port(0).IngressUnit.Metric().(*counters.PacketCount)
	egrM := s.Port(0).EgressUnit.Metric().(*counters.PacketCount)
	if ingM.Read() != 0 || egrM.Read() != 0 {
		t.Errorf("initiation counted: ingress=%d egress=%d", ingM.Read(), egrM.Read())
	}
}

func TestNotificationsQueuedWithTimestamp(t *testing.T) {
	s := testSwitch(t, nil)
	s.InitiateIngress(1, 0, 500)
	n, ok := s.PopNotif()
	if !ok {
		t.Fatal("no notification queued")
	}
	if n.Exported != 500 {
		t.Errorf("timestamp = %d", n.Exported)
	}
	if n.Unit != (UnitID{1, 0, Ingress}) {
		t.Errorf("unit = %v", n.Unit)
	}
	if n.NewSID != 1 {
		t.Errorf("NewSID = %d", n.NewSID)
	}
	if _, ok := s.PopNotif(); ok {
		t.Error("queue should be empty")
	}
}

func TestNotificationOverflowDrops(t *testing.T) {
	s := testSwitch(t, func(c *Config) { c.NotifCapacity = 2 })
	for i := packet.SeqID(1); i <= 5; i++ {
		s.InitiateIngress(core.Wrap(i, 64, true), 0, 0)
	}
	if s.PendingNotifs() != 2 {
		t.Errorf("pending = %d, want 2", s.PendingNotifs())
	}
	if s.NotifDrops() != 3 {
		t.Errorf("drops = %d, want 3", s.NotifDrops())
	}
}

func TestNoNotificationForSteadyTraffic(t *testing.T) {
	s := testSwitch(t, nil)
	pkt := &packet.Packet{DstHost: 10}
	s.Ingress(pkt, 0, 0)
	s.PopNotif() // possibly one from the header add? There should be none.
	p2 := &packet.Packet{DstHost: 10}
	s.Ingress(p2, 0, 0)
	if s.PendingNotifs() != 0 {
		t.Errorf("steady traffic produced %d notifications", s.PendingNotifs())
	}
}

func TestUnitAccessors(t *testing.T) {
	s := testSwitch(t, nil)
	ids := s.UnitIDs()
	if len(ids) != 8 {
		t.Fatalf("unit count = %d", len(ids))
	}
	for _, id := range ids {
		if s.Unit(id) == nil {
			t.Errorf("unit %v missing", id)
		}
	}
	if s.Node() != 1 || s.NumPorts() != 4 {
		t.Error("accessors wrong")
	}
	if (UnitID{1, 2, Ingress}).String() != "sw1/p2/ingress" {
		t.Errorf("UnitID string = %s", UnitID{1, 2, Ingress})
	}
	defer func() {
		if recover() == nil {
			t.Error("foreign unit access did not panic")
		}
	}()
	s.Unit(UnitID{Node: 9, Port: 0, Dir: Ingress})
}

func TestEgressChannelRangePanics(t *testing.T) {
	s := testSwitch(t, nil)
	pkt := &packet.Packet{
		HasSnap: true,
		Snap:    packet.SnapshotHeader{Type: packet.TypeData, ID: 0, Channel: 99},
	}
	defer func() {
		if recover() == nil {
			t.Error("bad egress channel did not panic")
		}
	}()
	s.Egress(pkt, 0, 0)
}

// instrumentedCount wraps a packet counter and records, per snapshot
// epoch, how many in-flight packets were absorbed into the unit's
// channel state. The protocol's conservation invariant is per hop:
//
//	downstream.snap(i) == upstream.snap(i) - upstream.absorbed(i)
//
// because a unit's recorded value is its own pre-cut count plus the
// in-flights absorbed from ITS upstream channel (which passed the
// upstream unit pre-cut but this unit post-cut).
type instrumentedCount struct {
	inner    counters.PacketCount
	unit     func() *core.Unit
	absorbed map[packet.SeqID]uint64
}

func (m *instrumentedCount) Read() uint64            { return m.inner.Read() }
func (m *instrumentedCount) Update(p *packet.Packet) { m.inner.Update(p) }
func (m *instrumentedCount) Absorb(v uint64, p *packet.Packet) uint64 {
	m.absorbed[m.unit().CurrentSID()]++
	return m.inner.Absorb(v, p)
}

// TestEndToEndTwoSwitchConsistency wires two switches back to back with
// FIFO queues and checks the per-hop packet-count conservation invariant
// for every complete snapshot across the full four-unit pipeline:
// host -> sw1.in0 -> sw1.out1 -> wire -> sw2.in1 -> sw2.out0 -> host.
func TestEndToEndTwoSwitchConsistency(t *testing.T) {
	metrics := map[UnitID]*instrumentedCount{}
	switches := map[topology.NodeID]*Switch{}
	mkSwitch := func(node topology.NodeID, nextHop int) *Switch {
		s, err := New(Config{
			Node:         node,
			NumPorts:     2,
			MaxID:        64,
			WrapAround:   true,
			ChannelState: true,
			Metrics: func(id UnitID) core.Metric {
				m := &instrumentedCount{
					absorbed: map[packet.SeqID]uint64{},
					unit: func() *core.Unit {
						return switches[id.Node].Unit(id)
					},
				}
				metrics[id] = m
				return m
			},
			FIB: &routing.FIB{
				Node:     node,
				Version:  1,
				NextHops: map[topology.HostID][]int{10: {nextHop}},
			},
			Balancer: routing.ECMP{},
			EdgePorts: map[int]bool{
				0: node == 2, // host hangs off switch 2 port 0
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		switches[node] = s
		return s
	}
	// Host -> sw1 port0 -> sw1 port1 -> wire -> sw2 port1 -> sw2 port0 -> host.
	sw1 := mkSwitch(1, 1)
	sw2 := mkSwitch(2, 0)

	// FIFO queues: sw1's egress queue (between ingress and egress unit)
	// and the wire between the switches, plus sw2's internal queue.
	type queued struct {
		pkt  *packet.Packet
		port int
	}
	var q1, wire, q2 []queued

	epoch := packet.SeqID(0)
	send := func() {
		p := &packet.Packet{DstHost: 10, Size: 100}
		res := sw1.Ingress(p, 0, 0)
		if res.Drop {
			t.Fatal("drop at sw1")
		}
		q1 = append(q1, queued{p, res.EgressPort})
	}
	moveQ1 := func() {
		if len(q1) == 0 {
			return
		}
		item := q1[0]
		q1 = q1[1:]
		res := sw1.Egress(item.pkt, item.port, 0)
		if !res.Drop {
			wire = append(wire, item)
		}
	}
	moveWire := func() {
		if len(wire) == 0 {
			return
		}
		item := wire[0]
		wire = wire[1:]
		res := sw2.Ingress(item.pkt, 1, 0)
		if res.Drop {
			t.Fatal("drop at sw2")
		}
		q2 = append(q2, queued{item.pkt, res.EgressPort})
	}
	moveQ2 := func() {
		if len(q2) == 0 {
			return
		}
		item := q2[0]
		q2 = q2[1:]
		sw2.Egress(item.pkt, item.port, 0)
	}
	initiate := func() {
		epoch++
		for _, sw := range []*Switch{sw1, sw2} {
			for p := 0; p < 2; p++ {
				ip := sw.InitiateIngress(core.Wrap(epoch, 64, true), p, 0)[0]
				switch {
				case sw == sw1 && p == 0:
					q1 = append(q1, queued{ip, p})
				case sw == sw2 && p == 1:
					q2 = append(q2, queued{ip, p})
				default:
					// Ports without data traffic in this test: deliver
					// directly (their queues are always empty).
					sw.Egress(ip, p, 0)
				}
			}
		}
	}

	// Interleave activity, completing each epoch before the next
	// initiation (the smooth regime; inconsistent cases are covered by
	// core tests).
	for round := 0; round < 30; round++ {
		for i := 0; i < 5; i++ {
			send()
		}
		for i := 0; i < 3; i++ {
			moveQ1()
			moveWire()
		}
		initiate()
		// Drain everything so the epoch completes.
		for len(q1) > 0 || len(wire) > 0 || len(q2) > 0 {
			moveQ1()
			moveWire()
			moveQ2()
		}
		// Push fresh traffic through so last-seen arrays advance.
		send()
		for len(q1) > 0 || len(wire) > 0 || len(q2) > 0 {
			moveQ1()
			moveWire()
			moveQ2()
		}
	}

	// Per-hop conservation along the path. Each downstream unit's
	// recorded value must equal the upstream unit's value minus what the
	// upstream itself absorbed from *its* channel (those packets are in
	// the upstream's snapshot but crossed the upstream's cut in flight,
	// not on this hop).
	path := []UnitID{
		{1, 0, Ingress},
		{1, 1, Egress},
		{2, 1, Ingress},
		{2, 0, Egress},
	}
	checked := 0
	for i := packet.SeqID(1); i <= epoch; i++ {
		for h := 1; h < len(path); h++ {
			up, down := path[h-1], path[h]
			uv, uok := switches[up.Node].Unit(up).RegSnapshot(i)
			dv, dok := switches[down.Node].Unit(down).RegSnapshot(i)
			if !uok || !dok {
				continue
			}
			want := uv - metrics[up].absorbed[i]
			if dv != want {
				t.Errorf("snapshot %d hop %v->%v: downstream %d, want %d (upstream %d minus %d absorbed)",
					i, up, down, dv, want, uv, metrics[up].absorbed[i])
			}
			checked++
		}
	}
	if checked < int(epoch)*2 {
		t.Fatalf("only %d hop-invariants checked for %d epochs — test lost its teeth", checked, epoch)
	}
}
