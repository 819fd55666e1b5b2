package dataplane

import (
	"testing"

	"speedlight/internal/core"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
)

// TestPipelineSteadyStateAllocs: a full per-packet switch traversal —
// ingress (edge header add and forward-only), egress, the CP pseudo-channel, and the notification queue — must not
// allocate once the per-unit metric table is warm. Each cycle also
// initiates the next epoch on a port, so a unit transition is
// journaled and exported on every cycle, not only the steady steps.
// This is the dataplane half of the zero-allocation contract; the
// per-unit state machine is gated separately in core.
//
//speedlight:allocgate dataplane.Switch.Ingress dataplane.Switch.Egress
//speedlight:allocgate dataplane.Switch.IngressOnly dataplane.Switch.IngressFromCP
//speedlight:allocgate dataplane.Switch.step dataplane.Switch.addHeader dataplane.Switch.route dataplane.Switch.forward
//speedlight:allocgate dataplane.Switch.journalUnit dataplane.Switch.pushNotif dataplane.Switch.PopNotif
func TestPipelineSteadyStateAllocs(t *testing.T) {
	s := testSwitch(t, func(cfg *Config) {
		cfg.Journal = journal.New(64)
	})
	pkt := &packet.Packet{DstHost: 10, Size: 100}
	var epoch SeqID
	cycle := func() {
		epoch++
		s.InitiateIngress(core.Wrap(epoch, s.cfg.MaxID, s.cfg.WrapAround), 3, 0)
		pkt.HasSnap = false
		pkt.Snap = packet.SnapshotHeader{}
		res := s.Ingress(pkt, 0, 0) // edge port: header add
		if !res.Drop {
			s.Egress(pkt, res.EgressPort, 0)
		}
		s.Ingress(pkt, 2, 0) // fabric port: forward-only
		s.IngressOnly(pkt, 1, 0)
		s.IngressFromCP(pkt, 0, 0)
		for {
			if _, ok := s.PopNotif(); !ok {
				break
			}
		}
	}
	for i := 0; i < 512; i++ {
		pkt.SrcPort = uint16(i)
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("switch pipeline allocates %v allocs/op, want 0", n)
	}
}
