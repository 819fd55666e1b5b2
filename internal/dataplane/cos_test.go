package dataplane

import (
	"testing"

	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/topology"
)

func cosSwitch(t *testing.T, numCoS int) *Switch {
	t.Helper()
	s, err := New(Config{
		Node:         1,
		NumPorts:     4,
		NumCoS:       numCoS,
		MaxID:        64,
		WrapAround:   true,
		ChannelState: true,
		Metrics:      func(UnitID) core.Metric { return &counters.PacketCount{} },
		FIB: &routing.FIB{
			Node: 1, Version: 1,
			NextHops: map[topology.HostID][]int{10: {2}},
		},
		Balancer:  routing.ECMP{},
		EdgePorts: map[int]bool{0: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCoSChannelLayout(t *testing.T) {
	s := cosSwitch(t, 3)
	ing := s.Port(0).IngressUnit
	// Ingress: 3 external CoS channels + CPU.
	if got := ing.Config().NumChannels; got != 4 {
		t.Errorf("ingress channels = %d, want 4", got)
	}
	if got := ing.Config().CPChannel; got != 3 {
		t.Errorf("ingress CP channel = %d, want 3", got)
	}
	// Egress: 4 ports x 3 classes + CPU.
	egr := s.Port(0).EgressUnit
	if got := egr.Config().NumChannels; got != 13 {
		t.Errorf("egress channels = %d, want 13", got)
	}
	if got := egr.Config().CPChannel; got != 12 {
		t.Errorf("egress CP channel = %d, want 12", got)
	}
}

func TestCoSRejectsTooManyClasses(t *testing.T) {
	_, err := New(Config{
		Node: 1, NumPorts: 2, NumCoS: 17, MaxID: 8,
		Metrics: func(UnitID) core.Metric { return &counters.PacketCount{} },
	})
	if err == nil {
		t.Error("17 classes accepted (header carries 4 bits)")
	}
}

func TestCoSInternalChannelTagging(t *testing.T) {
	s := cosSwitch(t, 3)
	for _, tc := range []struct {
		port int
		cos  uint8
		want uint16
	}{
		{0, 0, 0},
		{0, 2, 2},
		{3, 1, 10},
		{1, 9, 5}, // out-of-range class clamps to the top class
	} {
		pkt := &packet.Packet{DstHost: 10, CoS: tc.cos}
		s.Ingress(pkt, tc.port, 0)
		if pkt.Snap.Channel != tc.want {
			t.Errorf("port %d cos %d: channel = %d, want %d",
				tc.port, tc.cos, pkt.Snap.Channel, tc.want)
		}
	}
}

func TestCoSInitiationsPerClass(t *testing.T) {
	s := cosSwitch(t, 3)
	pkts := s.InitiateIngress(1, 2, 0)
	if len(pkts) != 3 {
		t.Fatalf("initiations = %d, want one per class", len(pkts))
	}
	for cos, pkt := range pkts {
		if pkt.CoS != uint8(cos) {
			t.Errorf("initiation %d CoS = %d", cos, pkt.CoS)
		}
		if want := uint16(2*3 + cos); pkt.Snap.Channel != want {
			t.Errorf("initiation %d channel = %d, want %d", cos, pkt.Snap.Channel, want)
		}
		// Each must be consumable by the egress unit.
		if res := s.Egress(pkt, 2, 0); !res.Drop {
			t.Errorf("initiation %d not dropped at egress", cos)
		}
	}
	// Every (port 2, class) channel of the egress unit advanced.
	egr := s.Port(2).EgressUnit
	for cos := 0; cos < 3; cos++ {
		if got := egr.LastSeenUnwrapped(2*3 + cos); got != 1 {
			t.Errorf("egress lastSeen[(2,%d)] = %d, want 1", cos, got)
		}
	}
}

// TestInitiationPacketsOwnedPerPort: InitiateIngress hands out the
// switch's own packets, NumCoS per port. An initiation on another port
// leaves a port's packets as they were — what control.Plane.Initiate's
// all-ports result stands on — and the port's next one rewrites the same
// storage.
func TestInitiationPacketsOwnedPerPort(t *testing.T) {
	s := cosSwitch(t, 3)
	first := s.InitiateIngress(1, 2, 0)
	kept := make([]packet.Packet, len(first))
	for i, pkt := range first {
		kept[i] = *pkt
	}
	for _, q := range []int{0, 1, 3} {
		s.InitiateIngress(5, q, 0)
	}
	for i, pkt := range first {
		if *pkt != kept[i] {
			t.Errorf("port 2 class %d after initiations on the other ports: %+v, want %+v", i, *pkt, kept[i])
		}
	}
	again := s.InitiateIngress(2, 2, 0)
	for i, pkt := range again {
		if pkt != first[i] {
			t.Errorf("class %d: the port's second initiation returned other storage", i)
		}
		if pkt.Snap.ID != 2 || pkt.CoS != uint8(i) || pkt.Snap.Channel != uint16(2*3+i) {
			t.Errorf("class %d rewritten as %+v", i, *pkt)
		}
	}
}

// TestCoSClassesAreIndependentFIFOChannels verifies the Section 4.1
// model: a lower class's in-flight packet interleaving behind a higher
// class's epoch advance is accounted exactly, per channel.
func TestCoSClassesAreIndependentFIFOChannels(t *testing.T) {
	s := cosSwitch(t, 2)
	egr := s.Port(2).EgressUnit

	// Two class-0 and one class-1 packets through ingress 0, epoch 0.
	mk := func(cos uint8) *packet.Packet {
		p := &packet.Packet{DstHost: 10, CoS: cos}
		s.Ingress(p, 0, 0)
		return p
	}
	p0a, p0b, p1 := mk(0), mk(0), mk(1)

	// The initiations reach the egress before the queued data (the
	// priority transmitter let them overtake within their own class);
	// classes 0 and 1 are separate channels, so FIFO is not violated.
	for _, ip := range s.InitiateIngress(1, 0, 0) {
		s.Egress(ip, 2, 0)
	}
	for _, ip := range s.InitiateIngress(1, 2, 0) {
		s.Egress(ip, 2, 0)
	}
	if v, ok := egr.RegSnapshot(1); !ok || v != 0 {
		t.Fatalf("egress snapshot = (%d,%v), want (0,true)", v, ok)
	}
	// The data packets arrive after the epoch advanced: in-flight on
	// their respective class channels, absorbed into the snapshot.
	s.Egress(p0a, 2, 0)
	s.Egress(p0b, 2, 0)
	s.Egress(p1, 2, 0)
	if v, _ := egr.RegSnapshot(1); v != 3 {
		t.Errorf("after absorbing in-flights: snapshot = %d, want 3", v)
	}
}
