// Package node is the one place a Speedlight switch is built, gated and
// stepped, and the one copy of what every runtime does around it: the
// per-packet step (ingress → notification drain → egress → drain →
// strip → forward), initiation, the Section 6 marker flood, and the
// collection of finished snapshots at the observer. Fabric is the one
// copy of what all three runtimes build around that: routes, every
// switch, the observer behind one mutex with its retry and exclusion
// timers (RecoveryTimers is their one defaulting rule), the recovery
// relay (NewFabric, Fabric.Retries), the snapshot set churn edits
// (Remove, Reprovision, RouteAround), and Endpoints, the one assembly
// of the observability endpoint set from the Registry and Sink it holds.
//
// Nothing here starts a goroutine, arms a timer or reads a clock: the
// runtime that hosts a switch supplies time and the wire through Host
// (and, to a Fabric, as an argument) and decides which goroutine (or
// simulation domain) calls in. The wall-clock host loop that does so is
// live.Runtime: a Fabric plus a transport — mailboxes in live, UDP
// sockets in wire — that drives each Switch through Packet, Initiate
// and Poll from one goroutine per switch. emunet's Network is a Fabric
// too, but it models what sits between the two halves of the step —
// bounded per-class egress queues and a control plane that serves one
// notification per service time — so it calls the halves (Ingress,
// Egress) and FloodMarkers around its own queues, CP loop, packet
// pools, churn generations and wire, and relays the Fabric's retries
// through them. It builds no planes, decides no gates, keeps no routes
// or observer and does not know what a marker is.
package node

import (
	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
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
	// Now is the protocol time of a step: the instant the step's input
	// was taken in, read once per step. Steps of one input may share it
	// (a wall-clock host stamps a burst or a datagram once), and it
	// must be no earlier than the stamp of any step that sent that
	// input, so stamps stay causal.
	Now() sim.Time
	// Forward puts a packet that finished egress processing on the wire
	// behind port (toward a switch or a host; an unwired port eats it).
	Forward(port int, pkt *packet.Packet)
}

// Config describes one switch to New.
type Config struct {
	Spec *topology.Switch
	// DP configures the data plane, in the data plane's own terms: the
	// snapshot parameters, FIB, classes of service, notification queue,
	// telemetry and journal (which the control plane shares). New fills
	// Node, NumPorts and EdgePorts from Spec. A nil Balancer means ECMP;
	// a nil Metrics, or a nil metric from it, means a packet counter.
	DP dataplane.Config
	// Utilized is the switch's entry of routing.UtilizedPairs, the
	// (ingress, egress) port pairs some route uses, from which its
	// completion gates derive (see completionChannels).
	Utilized routing.PortPairs
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

// New builds a switch. host may be nil for a runtime that drives the
// halves of the step itself and never calls Packet, Initiate or Poll.
func New(cfg Config, host Host) (*Switch, error) {
	dpc := cfg.DP
	dpc.Node, dpc.NumPorts, dpc.EdgePorts = cfg.Spec.ID, len(cfg.Spec.Ports), cfg.Spec.EdgePorts()
	if dpc.Balancer == nil {
		dpc.Balancer = routing.ECMP{}
	}
	metrics := cfg.DP.Metrics
	dpc.Metrics = func(id dataplane.UnitID) core.Metric {
		if metrics != nil {
			if m := metrics(id); m != nil {
				return m
			}
		}
		return &counters.PacketCount{}
	}
	dp, err := dataplane.New(dpc)
	if err != nil {
		return nil, err
	}
	cp, err := control.New(control.Config{
		Switch:             dp,
		CompletionChannels: completionChannels(cfg.Spec, cfg.Utilized, dp.NumCoS()),
		Journal:            dpc.Journal,
		OnResult:           cfg.OnResult,
	})
	if err != nil {
		return nil, err
	}
	return &Switch{DP: dp, CP: cp, spec: cfg.Spec, host: host}, nil
}

// completionChannels decides which upstream channels gate a unit's
// snapshot completion (channel-state variant), implementing the paper's
// Section 6 "removal of non-utilized upstream neighbors": a
// switch-facing ingress unit gates on its external class channels; a
// host-facing ingress unit gates on nothing (hosts cannot carry
// markers); an egress unit gates on the internal channels some
// forwarding path actually uses (used: exact, the switch's entry of
// routing.UtilizedPairs over the FIBs it is built with) plus its own
// port, which the initiation path refreshes every epoch. A channel no
// route uses is not an incident channel of the unit: nothing will ever
// arrive on it to wait for. Channels come out ascending.
func completionChannels(spec *topology.Switch, used routing.PortPairs, numCoS int) func(dataplane.UnitID) []int {
	return func(id dataplane.UnitID) []int {
		if id.Dir == dataplane.Ingress {
			if spec.Ports[id.Port].Kind == topology.PeerSwitch {
				chans := make([]int, numCoS)
				for c := range chans {
					chans[c] = c
				}
				return chans
			}
			return []int{}
		}
		var chans []int
		for p := range spec.Ports {
			if p != id.Port && !used.Has(p, id.Port) {
				continue
			}
			for c := 0; c < numCoS; c++ {
				chans = append(chans, p*numCoS+c)
			}
		}
		return chans
	}
}

// Ingress is the ingress half of the step, for a packet that arrived on
// port: a neighbour's marker refreshes the port's external channel and
// dies (this device's own flood covers its internal channels, which
// also rules out flooding loops); anything else is routed. ok is false
// when the packet ends here. The caller drains notifications next.
//
//speedlight:hotpath
func (s *Switch) Ingress(pkt *packet.Packet, port int, now sim.Time) (egress int, ok bool) {
	if topology.HostID(pkt.DstHost) == BroadcastHost {
		s.DP.IngressOnly(pkt, port, now)
		return 0, false
	}
	res := s.DP.Ingress(pkt, port, now)
	return res.EgressPort, !res.Drop
}

// Egress is the egress half of the step, after any queueing: it runs
// port's egress unit and reports whether the packet goes on the wire
// behind port. Initiations are consumed by the unit; markers cross one
// switch link and are pointless toward anything else; the snapshot
// header comes off at the edge. The caller drains notifications next.
//
//speedlight:hotpath
func (s *Switch) Egress(pkt *packet.Packet, port int, now sim.Time) bool {
	res := s.DP.Egress(pkt, port, now)
	if res.Drop {
		return false
	}
	if topology.HostID(pkt.DstHost) == BroadcastHost && s.spec.Ports[port].Kind != topology.PeerSwitch {
		return false
	}
	if res.StripHeader {
		pkt.StripSnap()
	}
	return true
}

// Packet runs one packet that arrived on port through the switch: both
// halves of the step at one instant, forwarded or dropped.
//
//speedlight:hotpath
func (s *Switch) Packet(pkt *packet.Packet, port int) {
	now := s.host.Now()
	out, ok := s.Ingress(pkt, port, now)
	s.drain(now)
	if ok {
		s.send(pkt, out, now)
	}
}

// send runs the egress half and hands the packet to the host.
//
//speedlight:hotpath
func (s *Switch) send(pkt *packet.Packet, port int, now sim.Time) {
	ok := s.Egress(pkt, port, now)
	s.drain(now)
	if ok {
		s.host.Forward(port, pkt)
	}
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
// Which initiations flood is the runtime's liveness policy. The
// initiation packets are the data plane's and are consumed in place:
// Egress drops them, so none reaches Host.Forward. Without markers the
// step allocates nothing; a flood makes its marker copies.
//
//speedlight:hotpath
func (s *Switch) Initiate(id packet.SeqID, markers bool) {
	now := s.host.Now()
	for _, init := range s.CP.Initiate(id, now) {
		s.send(init.Pkt, init.Port, now)
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
func (st step) Egress(pkt *packet.Packet, port int) { st.s.send(pkt, port, st.now) }

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
