// Package node is the one copy of what every Speedlight runtime does
// around a switch: the per-packet step (ingress → notification drain →
// egress → drain → strip → forward), initiation, the Section 6 marker
// flood, and the collection of finished snapshots at the observer.
//
// Nothing here starts a goroutine, arms a timer or reads a clock: the
// runtime that hosts a switch supplies time and the wire through Host
// and decides which goroutine (or simulation domain) calls in. live
// hosts a Switch per goroutine over channels, wire over UDP sockets;
// emunet keeps its own packet path — it models a bounded queue and a
// control-plane service time between ingress and egress — and shares
// FloodMarkers and Sink.
package node

import (
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

// BroadcastHost is the destination address of control-plane marker
// broadcasts. A marker advances the snapshot ID on every channel of
// the device that receives it and is then dropped (single-hop scope):
// the liveness mechanism of Section 6 for traffic-free channels. No
// FIB has a route for it, and no host ever sees it.
const BroadcastHost = topology.HostID(0xFFFFFFFF)

// Host is what a runtime provides to the switches it runs.
type Host interface {
	// Now is the protocol time, read once per step.
	Now() sim.Time
	// Forward puts a packet that finished egress processing on the wire
	// behind port (toward a switch or a host; an unwired port eats it).
	Forward(port int, pkt *packet.Packet)
}

// Config describes one switch to New.
type Config struct {
	Spec *topology.Switch
	FIB  *routing.FIB

	MaxID        uint32
	WrapAround   bool
	ChannelState bool
	// Metrics builds each unit's snapshot target; nil means packet
	// counters.
	Metrics func(id dataplane.UnitID) core.Metric

	DPTelemetry *dataplane.Telemetry
	CPTelemetry *control.Telemetry
	Journal     *journal.Journal
	// OnResult ships a finished per-unit snapshot toward the observer.
	// It runs on the goroutine that called into the switch.
	OnResult func(control.Result)
}

// Switch is one device: data plane and control plane, driven by a
// single caller at a time (they share the switch, as in hardware).
type Switch struct {
	DP *dataplane.Switch
	CP *control.Plane

	spec *topology.Switch
	host Host
}

// New builds a switch with ECMP forwarding over cfg.FIB.
func New(cfg Config, host Host) (*Switch, error) {
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = func(dataplane.UnitID) core.Metric { return &counters.PacketCount{} }
	}
	dp, err := dataplane.New(dataplane.Config{
		Node:         cfg.Spec.ID,
		NumPorts:     len(cfg.Spec.Ports),
		MaxID:        cfg.MaxID,
		WrapAround:   cfg.WrapAround,
		ChannelState: cfg.ChannelState,
		Metrics:      metrics,
		FIB:          cfg.FIB,
		Balancer:     routing.ECMP{},
		EdgePorts:    cfg.Spec.EdgePorts(),
		Telemetry:    cfg.DPTelemetry,
		Journal:      cfg.Journal,
	})
	if err != nil {
		return nil, err
	}
	cp, err := control.New(control.Config{
		Switch:    dp,
		Telemetry: cfg.CPTelemetry,
		Journal:   cfg.Journal,
		OnResult:  cfg.OnResult,
	})
	if err != nil {
		return nil, err
	}
	return &Switch{DP: dp, CP: cp, spec: cfg.Spec, host: host}, nil
}

// Packet runs one packet that arrived on port through the switch. A
// neighbour's marker refreshes the port's external channel and dies
// (this device's own flood covers its internal channels, which also
// rules out flooding loops); anything else is forwarded or dropped.
//
//speedlight:hotpath
func (s *Switch) Packet(pkt *packet.Packet, port int) {
	now := s.host.Now()
	if topology.HostID(pkt.DstHost) == BroadcastHost {
		s.DP.IngressOnly(pkt, port, now)
		s.drain(now)
		return
	}
	res := s.DP.Ingress(pkt, port, now)
	s.drain(now)
	if !res.Drop {
		s.egress(pkt, res.EgressPort, now)
	}
}

// egress runs the egress unit and hands the packet to the host.
// Initiations are consumed by the unit; markers cross one switch link
// and are pointless toward anything else.
//
//speedlight:hotpath
func (s *Switch) egress(pkt *packet.Packet, port int, now sim.Time) {
	res := s.DP.Egress(pkt, port, now)
	s.drain(now)
	if res.Drop {
		return
	}
	if topology.HostID(pkt.DstHost) == BroadcastHost && s.spec.Ports[port].Kind != topology.PeerSwitch {
		return
	}
	if res.StripHeader {
		pkt.StripSnap()
	}
	s.host.Forward(port, pkt)
}

// drain feeds pending data-plane notifications to the control plane.
//
//speedlight:hotpath
func (s *Switch) drain(now sim.Time) {
	for {
		notif, ok := s.DP.PopNotif()
		if !ok {
			return
		}
		s.CP.HandleNotification(notif, now)
	}
}

// Initiate starts (or re-initiates) snapshot id: each initiation
// continues through the egress unit of its port, in order with the data
// traffic the caller serializes, and markers then floods every channel.
// Which initiations flood is the runtime's liveness policy.
func (s *Switch) Initiate(id packet.SeqID, markers bool) {
	now := s.host.Now()
	for _, init := range s.CP.Initiate(id, now) {
		s.egress(init.Pkt, init.Port, now)
	}
	s.drain(now)
	if markers {
		FloodMarkers(s.DP, now, step{s, now})
	}
}

// Poll has the control plane read its registers: the recovery path for
// dropped notifications.
func (s *Switch) Poll() { s.CP.Poll(s.host.Now()) }

// step is a Switch at one instant, as FloodMarkers drives it.
type step struct {
	s   *Switch
	now sim.Time
}

func (st step) Drain()                              { st.s.drain(st.now) }
func (st step) Egress(pkt *packet.Packet, port int) { st.s.egress(pkt, port, st.now) }

// MarkerSink is where FloodMarkers sends its work.
type MarkerSink interface {
	// Drain moves pending notifications toward the control plane.
	Drain()
	// Egress takes a marker copy bound for port's egress unit, through
	// the same FIFO as data traffic.
	Egress(pkt *packet.Packet, port int)
}

// FloodMarkers is the Section 6 liveness flood: one marker broadcast
// per (ingress port, class) enters the ingress unit on the CPU
// pseudo-channel and one copy goes to every egress port, so that every
// internal channel and, one wire hop out, every neighbour's external
// channel sees the current snapshot ID without waiting for data. FIFO
// order behind in-flight packets keeps the advance truthful. The order
// — ports, then classes, a Drain after each injection, copies in port
// order — is fixed: emunet's event sequence depends on it.
func FloodMarkers(dp *dataplane.Switch, now sim.Time, sink MarkerSink) {
	for port := 0; port < dp.NumPorts(); port++ {
		for cos := 0; cos < dp.NumCoS(); cos++ {
			m := &packet.Packet{DstHost: uint32(BroadcastHost), Size: 64, CoS: uint8(cos)}
			dp.IngressFromCP(m, port, now)
			sink.Drain()
			for e := 0; e < dp.NumPorts(); e++ {
				sink.Egress(m.Clone(), e)
			}
		}
	}
}
