// Package dataplane models a Speedlight-enabled switch data plane: per
// port, an ingress and an egress processing unit (core.Unit), forwarding
// with pluggable load balancing, snapshot header insertion and removal
// at the network edge, the control-plane initiation path
// (CPU→ingress→egress, Section 6), and the bounded, lossy notification
// channel to the switch CPU (Section 7.2).
//
// The package is runtime-agnostic: it owns no clocks or queues. The
// emulation harnesses decide when packets arrive, when egress units run
// (after queueing), and when the CPU drains notifications; they pass
// virtual time in only so notifications can be timestamped, mirroring
// the paper's synchronization measurement (Section 8.1).
package dataplane

import (
	"fmt"

	"speedlight/internal/core"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// WireID is the wrapped on-wire / in-register snapshot ID, re-exported
// from package packet so data-plane callers can name the domain type
// without a second import. See packet.WireID for the comparison rules
// the wrappedcmp analyzer enforces.
type WireID = packet.WireID

// SeqID is the unwrapped snapshot sequence number, re-exported from
// package packet.
type SeqID = packet.SeqID

// Direction distinguishes ingress from egress processing units.
type Direction int

const (
	// Ingress is the receive-side processing unit of a port.
	Ingress Direction = iota
	// Egress is the transmit-side processing unit of a port.
	Egress
)

func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// Journal converts the direction to its journal form.
func (d Direction) Journal() journal.Dir {
	if d == Ingress {
		return journal.DirIngress
	}
	return journal.DirEgress
}

// UnitID names one processing unit in the network.
type UnitID struct {
	Node topology.NodeID
	Port int
	Dir  Direction
}

func (u UnitID) String() string {
	return fmt.Sprintf("sw%d/p%d/%s", u.Node, u.Port, u.Dir)
}

// CPUNotification is a data-plane notification annotated with its
// origin and export time, as delivered to the switch CPU.
type CPUNotification struct {
	Unit UnitID
	core.Notification
	// Exported is the virtual time the data plane emitted the
	// notification.
	Exported sim.Time
}

// MetricFactory builds the snapshot target metric for one processing
// unit. Factories let experiments choose what to measure per unit
// (packet counters, EWMA interarrival, queue depth gauges, ...).
type MetricFactory func(id UnitID) core.Metric

// Config describes one switch's data plane.
type Config struct {
	Node     topology.NodeID
	NumPorts int

	// NumCoS is the number of Class-of-Service levels. Each class is an
	// independent FIFO logical channel in the snapshot model (Section
	// 4.1): an ingress unit has one external channel per class, an
	// egress unit one channel per (ingress port, class) pair. Zero
	// means 1 (no service classes).
	NumCoS int

	// Recirculation adds the footnote-2 internal channel: a packet that
	// finishes egress processing may re-enter the same port's ingress
	// unit (P4 recirculate). The channel is modeled exactly like any
	// other FIFO logical channel, with its own last-seen entry.
	Recirculation bool

	// Snapshot protocol parameters shared by all units.
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// Metrics builds each unit's snapshot target. Required.
	Metrics MetricFactory

	// NotifCapacity bounds the CPU notification queue; further
	// notifications are dropped (and counted), modelling the raw-socket
	// receive buffer of Section 7.2. Zero means a default of 4096.
	NotifCapacity int

	// OnNotify, when set, observes every notification synchronously at
	// export time, before queueing and possible drops. Emulations use
	// it to timestamp protocol progress the way the paper's Section 8.1
	// experiment tags notifications in the data plane.
	OnNotify func(CPUNotification)

	// FIB and Balancer control forwarding. Both required for switches
	// that forward (pure unit tests may omit them and drive units
	// directly).
	FIB      *routing.FIB
	Balancer routing.Balancer

	// EdgePorts marks ports that face hosts: the snapshot header is
	// added on ingress and stripped on egress there (partial
	// deployment, Sections 5.1 and 10).
	EdgePorts map[int]bool

	// SnapshotDisabled turns the switch into a plain forwarder for
	// partial deployment (Section 10): packets are routed but snapshot
	// headers pass through untouched, preserving in-flight epoch
	// information for the snapshot-enabled devices downstream.
	SnapshotDisabled bool

	// Telemetry receives the switch's metric updates. Nil disables
	// instrumentation (every update degrades to one nil check). The
	// same Telemetry may be shared across switches.
	Telemetry *Telemetry

	// Journal receives this switch's protocol events (unit records,
	// absorbs, marker and notification activity): the flight
	// recorder's record and, counted, the notification and rollover
	// telemetry. Nil disables both at the cost of one nil check per
	// packet.
	Journal *journal.Journal
}

// Port holds the two processing units of one switch port.
type Port struct {
	IngressUnit *core.Unit
	EgressUnit  *core.Unit
}

// Switch is one switch's data plane.
type Switch struct {
	cfg   Config
	ports []*Port
	// edge is cfg.EdgePorts by port number.
	edge []bool
	tel  *Telemetry
	jr   *journal.Journal

	// notifs is a head-indexed FIFO (pops advance notifHead instead of
	// re-slicing, so steady state queues without allocating; the buffer
	// compacts when the dead prefix dominates).
	notifs     []CPUNotification
	notifHead  int
	notifDrops uint64
	notifCap   int

	// inits holds the initiation packets InitiateIngress returns, NumCoS
	// per port from port*NumCoS: the switch's own, made at New.
	inits []*packet.Packet

	// routes is cfg.FIB's next hops by destination host, compiled at
	// version routesAt, as an ASIC's match table is programmed from the
	// control plane's FIB.
	routes   [][]int
	routesAt uint64
}

// New builds a switch data plane.
func New(cfg Config) (*Switch, error) {
	if cfg.NumPorts < 1 {
		return nil, fmt.Errorf("dataplane: switch %d has %d ports", cfg.Node, cfg.NumPorts)
	}
	if cfg.Metrics == nil {
		return nil, fmt.Errorf("dataplane: switch %d missing metric factory", cfg.Node)
	}
	cap := cfg.NotifCapacity
	if cap <= 0 {
		cap = 4096
	}
	if cfg.NumCoS <= 0 {
		cfg.NumCoS = 1
	}
	if cfg.NumCoS > 16 {
		return nil, fmt.Errorf("dataplane: NumCoS %d exceeds the header's 4-bit class space", cfg.NumCoS)
	}
	s := &Switch{cfg: cfg, edge: make([]bool, cfg.NumPorts), notifCap: cap, tel: cfg.Telemetry, jr: cfg.Journal}
	if s.tel == nil {
		s.tel = nopTelemetry
	}
	for range cfg.NumPorts * cfg.NumCoS {
		s.inits = append(s.inits, new(packet.Packet))
	}
	for p := 0; p < cfg.NumPorts; p++ {
		// An ingress unit's upstream channels are the external
		// neighbor's CoS sub-channels, optionally the recirculation
		// channel from the port's own egress unit, and the CPU
		// pseudo-channel.
		ingChans := cfg.NumCoS + 1
		if cfg.Recirculation {
			ingChans++
		}
		ingCfg := core.Config{
			MaxID:        cfg.MaxID,
			WrapAround:   cfg.WrapAround,
			ChannelState: cfg.ChannelState,
			NumChannels:  ingChans,
			CPChannel:    ingChans - 1,
		}
		// An egress unit's upstream neighbors are the (ingress port,
		// class) sub-channels of every port, plus the CPU.
		egrCfg := core.Config{
			MaxID:        cfg.MaxID,
			WrapAround:   cfg.WrapAround,
			ChannelState: cfg.ChannelState,
			NumChannels:  cfg.NumPorts*cfg.NumCoS + 1,
			CPChannel:    cfg.NumPorts * cfg.NumCoS,
		}
		ing, err := core.NewUnit(ingCfg, cfg.Metrics(UnitID{cfg.Node, p, Ingress}))
		if err != nil {
			return nil, err
		}
		egr, err := core.NewUnit(egrCfg, cfg.Metrics(UnitID{cfg.Node, p, Egress}))
		if err != nil {
			return nil, err
		}
		s.ports = append(s.ports, &Port{IngressUnit: ing, EgressUnit: egr})
		s.edge[p] = cfg.EdgePorts[p]
	}
	if cfg.FIB != nil {
		s.compileRoutes()
	}
	return s, nil
}

// compileRoutes rebuilds the route table from the FIB as it stands.
func (s *Switch) compileRoutes() {
	n := 0
	for h := range s.cfg.FIB.NextHops {
		n = max(n, int(h)+1)
	}
	s.routes = make([][]int, n)
	for h, group := range s.cfg.FIB.NextHops {
		s.routes[h] = group
	}
	s.routesAt = s.cfg.FIB.Version
}

// ingressChannel returns the ingress-unit channel for a packet's class.
func (s *Switch) ingressChannel(cos uint8) int {
	c := int(cos)
	if c >= s.cfg.NumCoS {
		c = s.cfg.NumCoS - 1
	}
	return c
}

// internalChannel returns the egress-unit channel for a packet arriving
// from an ingress port on a class.
func (s *Switch) internalChannel(port int, cos uint8) uint16 {
	c := int(cos)
	if c >= s.cfg.NumCoS {
		c = s.cfg.NumCoS - 1
	}
	return uint16(port*s.cfg.NumCoS + c)
}

// ingressCPChannel is the CPU pseudo-channel index at ingress units
// (always the last channel).
func (s *Switch) ingressCPChannel() int {
	if s.cfg.Recirculation {
		return s.cfg.NumCoS + 1
	}
	return s.cfg.NumCoS
}

// ingressRecircChannel is the recirculation channel index at ingress
// units, or -1 when recirculation is disabled.
func (s *Switch) ingressRecircChannel() int {
	if !s.cfg.Recirculation {
		return -1
	}
	return s.cfg.NumCoS
}

// NumCoS returns the switch's class-of-service count.
func (s *Switch) NumCoS() int { return s.cfg.NumCoS }

// Node returns the switch's node ID.
func (s *Switch) Node() topology.NodeID { return s.cfg.Node }

// NumPorts returns the switch's port count.
func (s *Switch) NumPorts() int { return s.cfg.NumPorts }

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Port returns the processing units of a port.
func (s *Switch) Port(p int) *Port { return s.ports[p] }

// Unit returns the processing unit named by id, which must belong to
// this switch.
func (s *Switch) Unit(id UnitID) *core.Unit {
	if id.Node != s.cfg.Node {
		panic(fmt.Sprintf("dataplane: unit %v not on switch %d", id, s.cfg.Node))
	}
	if id.Dir == Ingress {
		return s.ports[id.Port].IngressUnit
	}
	return s.ports[id.Port].EgressUnit
}

// UnitIDs lists every processing unit of this switch.
func (s *Switch) UnitIDs() []UnitID {
	out := make([]UnitID, 0, 2*s.cfg.NumPorts)
	for p := 0; p < s.cfg.NumPorts; p++ {
		out = append(out, UnitID{s.cfg.Node, p, Ingress}, UnitID{s.cfg.Node, p, Egress})
	}
	return out
}

// journalUnit records the protocol transitions one OnPacket call
// produced: the unit advancing its epoch (and any rollover), last-seen
// movement, and in-flight absorption. step calls it for every report
// the unit makes when a journal is attached. Note absorbs can occur
// without a notification-worthy change (a second in-flight packet on an
// already-seen channel), which is why this does not piggyback on
// pushNotif.
//
//speedlight:hotpath
func (s *Switch) journalUnit(port int, dir Direction, n *core.Notification, now sim.Time) {
	sw := int(s.cfg.Node)
	d := dir.Journal()
	if n.NewSIDU != n.OldSIDU {
		s.jr.Append(journal.Record(int64(now), sw, port, d, n.Channel, n.OldSIDU, n.NewSIDU, n.WireID))
		if core.RolledOver(n.OldSID, n.NewSID) {
			s.jr.Append(journal.Rollover(int64(now), sw, port, d, n.OldSIDU, n.NewSIDU))
		}
	}
	if n.NewSeenU != n.OldSeenU {
		s.jr.Append(journal.LastSeen(int64(now), sw, port, d, n.Channel, n.OldSeenU, n.NewSeenU))
	}
	if n.Absorbed {
		s.jr.Append(journal.Absorb(int64(now), sw, port, d, n.Channel, n.PacketSID, n.NewSIDU))
	}
	if n.AbsorbMissed {
		s.jr.Append(journal.AbsorbMiss(int64(now), sw, port, d, n.Channel, n.PacketSID, n.NewSIDU))
	}
}

// pushNotif appends a notification, dropping it if the CPU queue is
// full. Without channel state the last-seen machinery is compiled out
// (the "-" items of Section 5.2), so only snapshot ID changes are
// exported.
//
//speedlight:hotpath
func (s *Switch) pushNotif(n CPUNotification) {
	if !s.cfg.ChannelState && !n.SIDChanged() {
		return
	}
	if s.jr != nil {
		s.jr.Append(journal.NotifGenerated(int64(n.Exported), int(s.cfg.Node), n.Unit.Port, n.Unit.Dir.Journal(), n.NewSIDU))
	}
	if s.cfg.OnNotify != nil {
		s.cfg.OnNotify(n)
	}
	if len(s.notifs)-s.notifHead >= s.notifCap {
		s.notifDrops++
		if s.jr != nil {
			s.jr.Append(journal.NotifDropped(int64(n.Exported), int(s.cfg.Node), n.Unit.Port, n.Unit.Dir.Journal(), n.NewSIDU))
		}
		return
	}
	s.notifs = append(s.notifs, n)
	s.tel.NotifQueueHighWater.SetMax(int64(len(s.notifs) - s.notifHead))
}

// PopNotif removes and returns the oldest pending notification.
//
//speedlight:hotpath
func (s *Switch) PopNotif() (CPUNotification, bool) {
	if s.notifHead == len(s.notifs) {
		return CPUNotification{}, false
	}
	n := s.notifs[s.notifHead]
	s.notifHead++
	if s.notifHead == len(s.notifs) {
		s.notifs = s.notifs[:0]
		s.notifHead = 0
	} else if s.notifHead >= 64 && s.notifHead*2 >= len(s.notifs) {
		kept := copy(s.notifs, s.notifs[s.notifHead:])
		s.notifs = s.notifs[:kept]
		s.notifHead = 0
	}
	return n, true
}

// PendingNotifs returns the number of queued notifications.
func (s *Switch) PendingNotifs() int { return len(s.notifs) - s.notifHead }

// NotifDrops returns how many notifications were dropped at the full
// CPU queue.
func (s *Switch) NotifDrops() uint64 { return s.notifDrops }

// IngressResult is the outcome of ingress processing.
type IngressResult struct {
	// EgressPort is the chosen output port.
	EgressPort int
	// Drop is set when the packet has no route.
	Drop bool
}

// marker says whether step journals its packet as a Section 6 marker
// broadcast, and which way it is going.
type marker uint8

const (
	notMarker marker = iota
	// markerIn is a neighbour's broadcast arriving from the wire.
	markerIn
	// markerOut is the local control plane's injection.
	markerOut
)

// step runs one packet through the unit (port, dir) on channel ch and
// returns the packet's unwrapped snapshot ID. A steady-state step ends
// there: the unit reports nothing, so nothing is journaled but a
// marker, and nothing is exported. Otherwise the unit's report goes to
// the journal, and to the CPU when the epoch or the channel's last-seen
// entry moved. Every entry point below is this step plus what it does
// to the header before and after.
//
//speedlight:hotpath
func (s *Switch) step(pkt *packet.Packet, port int, dir Direction, ch int, mark marker, now sim.Time) SeqID {
	u := s.ports[port].IngressUnit
	if dir == Egress {
		u = s.ports[port].EgressUnit
	}
	psid, n := u.OnPacket(pkt, ch)
	if s.jr != nil {
		switch mark {
		case markerIn:
			s.jr.Append(journal.MarkerReceived(int64(now), int(s.cfg.Node), port, ch, psid))
		case markerOut:
			s.jr.Append(journal.MarkerSent(int64(now), int(s.cfg.Node), port, psid, int(pkt.CoS)))
		}
		if n != nil {
			s.journalUnit(port, dir, n, now)
		}
	}
	if n != nil && (n.SIDChanged() || n.LastSeenChanged()) {
		s.pushNotif(CPUNotification{Unit: UnitID{s.cfg.Node, port, dir}, Notification: *n, Exported: now})
	}
	return psid
}

// addHeader gives a packet that has no snapshot header one carrying the
// port's current ingress epoch — this is the first snapshot-enabled
// device on its path — so that it neither initiates nor appears
// in-flight.
//
//speedlight:hotpath
func (s *Switch) addHeader(pkt *packet.Packet, port int) {
	if !pkt.HasSnap {
		pkt.HasSnap = true
		pkt.Snap = packet.SnapshotHeader{
			Type: packet.TypeData,
			ID:   s.ports[port].IngressUnit.RegCurrentSID(),
		}
	}
}

// route is the forwarding lookup: the balancer's pick among the ports
// the route table holds toward the packet's destination, or a drop when
// there is no route (or nothing to look one up in). The table is
// recompiled first when the FIB's version has moved since; a FIB
// rewritten without a version bump is not seen.
//
//speedlight:hotpath
func (s *Switch) route(pkt *packet.Packet, now sim.Time) IngressResult {
	if s.cfg.FIB == nil || s.cfg.Balancer == nil {
		return IngressResult{Drop: true}
	}
	if s.cfg.FIB.Version != s.routesAt {
		s.compileRoutes()
	}
	if int(pkt.DstHost) >= len(s.routes) || len(s.routes[pkt.DstHost]) == 0 {
		return IngressResult{Drop: true}
	}
	return IngressResult{EgressPort: s.cfg.Balancer.Pick(pkt, s.routes[pkt.DstHost], now)}
}

// forward runs a packet through a port's ingress unit on channel ch and
// routes it. A routed packet leaves tagged with its upstream (ingress
// port, class) channel for the egress unit's last-seen array.
//
//speedlight:hotpath
func (s *Switch) forward(pkt *packet.Packet, port, ch int, now sim.Time) IngressResult {
	pkt.Snap.Channel = uint16(ch)
	s.step(pkt, port, Ingress, ch, notMarker, now)
	res := s.route(pkt, now)
	if !res.Drop {
		pkt.Snap.Channel = s.internalChannel(port, pkt.CoS)
	}
	return res
}

// Ingress processes a packet arriving from the wire (or from a host, on
// an edge port) at the given port and selects its egress port. The
// packet's snapshot header is added if absent and its Channel field is
// rewritten to the ingress port number — the upstream neighbor
// identifier the egress unit will use (Section 5.1). A
// snapshot-disabled switch only routes (partial deployment).
//
//speedlight:hotpath
func (s *Switch) Ingress(pkt *packet.Packet, port int, now sim.Time) IngressResult {
	s.tel.PacketsIngress.Inc()
	if s.cfg.SnapshotDisabled {
		return s.route(pkt, now)
	}
	s.addHeader(pkt, port)
	return s.forward(pkt, port, s.ingressChannel(pkt.CoS), now)
}

// EgressResult is the outcome of egress processing.
type EgressResult struct {
	// StripHeader is set when the next hop is a host: the caller must
	// clear the snapshot header before delivery.
	StripHeader bool
	// Drop is set for control messages that terminate here (initiation
	// packets are consumed at egress, Section 6).
	Drop bool
}

// Egress processes a packet leaving through the given port, after any
// queueing. The packet's Channel field identifies the ingress port it
// came from (or the CPU pseudo-channel, for control-plane-injected
// traffic). On edge ports the caller must strip the header afterwards,
// as instructed by the result.
//
//speedlight:hotpath
func (s *Switch) Egress(pkt *packet.Packet, port int, now sim.Time) EgressResult {
	s.tel.PacketsEgress.Inc()
	if s.cfg.SnapshotDisabled {
		return EgressResult{}
	}
	channel := int(pkt.Snap.Channel)
	if channel < 0 || channel > s.cfg.NumPorts*s.cfg.NumCoS {
		panic(fmt.Sprintf("dataplane: egress channel %d out of range on switch %d", channel, s.cfg.Node))
	}
	s.step(pkt, port, Egress, channel, notMarker, now)
	if pkt.Snap.Type == packet.TypeInitiation {
		// Initiations travel CPU→ingress→egress and are then dropped.
		return EgressResult{Drop: true}
	}
	// On the wire to the next device, the receiving ingress unit
	// derives its channel from the packet's class; the field itself is
	// cleared.
	pkt.Snap.Channel = 0
	if s.edge[port] {
		return EgressResult{StripHeader: true}
	}
	return EgressResult{}
}

// Recirculate re-enters a packet into a port's ingress unit on the
// recirculation channel after its egress processing (footnote 2 of the
// paper: recirculation is just another FIFO logical channel). The
// caller must preserve per-channel order: recirculated packets re-enter
// in the order they left the egress unit. The packet is counted again
// by the ingress metric — it really does traverse the pipeline twice —
// and a fresh forwarding decision is returned.
//
//speedlight:hotpath
func (s *Switch) Recirculate(pkt *packet.Packet, port int, now sim.Time) IngressResult {
	if !s.cfg.Recirculation {
		panic(fmt.Sprintf("dataplane: switch %d has no recirculation channel", s.cfg.Node))
	}
	s.tel.Recirculations.Inc()
	s.tel.PacketsIngress.Inc()
	if s.cfg.SnapshotDisabled {
		return s.route(pkt, now)
	}
	return s.forward(pkt, port, s.ingressRecircChannel(), now)
}

// InitiationPacket builds the control plane's initiation message for a
// snapshot ID (already wrapped to the wire form by the caller's control
// plane).
func InitiationPacket(wireID WireID) *packet.Packet {
	return &packet.Packet{
		HasSnap: true,
		Snap:    packet.SnapshotHeader{Type: packet.TypeInitiation, ID: wireID},
	}
}

// IngressOnly runs a packet through a port's ingress unit without a
// forwarding lookup. Emulations use it for traffic that bypasses the
// FIB, such as the marker broadcasts the control plane injects to force
// snapshot ID propagation when data traffic is absent (Section 6,
// liveness).
//
//speedlight:hotpath
func (s *Switch) IngressOnly(pkt *packet.Packet, port int, now sim.Time) {
	s.tel.Markers.Inc()
	s.tel.PacketsIngress.Inc()
	s.addHeader(pkt, port)
	ch := s.ingressChannel(pkt.CoS)
	pkt.Snap.Channel = uint16(ch)
	s.step(pkt, port, Ingress, ch, markerIn, now)
	pkt.Snap.Channel = s.internalChannel(port, pkt.CoS)
}

// IngressFromCP runs a control-plane-injected packet through a port's
// ingress unit on the CPU pseudo-channel — the same path initiations
// take (Figure 6), but for arbitrary CP traffic such as the marker
// broadcasts of Section 6. The header is added if missing, carrying the
// unit's current epoch; afterwards the packet is tagged with the
// ingress port for egress-unit processing. Injecting on the CPU channel
// (rather than the external one) matters: it must not forge the
// upstream neighbor's progress in the last-seen array.
//
//speedlight:hotpath
func (s *Switch) IngressFromCP(pkt *packet.Packet, port int, now sim.Time) {
	s.tel.Markers.Inc()
	s.tel.PacketsIngress.Inc()
	s.addHeader(pkt, port)
	s.step(pkt, port, Ingress, s.ingressCPChannel(), markerOut, now)
	pkt.Snap.Channel = s.internalChannel(port, pkt.CoS)
}

// InitiateIngress runs a control-plane initiation message through a
// port's ingress unit (step CPU→ingress of Figure 6). It returns one
// initiation packet per class of service, which the caller must pass
// through the port's egress path — through the same per-class FIFO
// queues as data traffic, or the egress unit could see an initiation
// ahead of older in-flight packets. One marker per FIFO channel is
// exactly what the snapshot algorithm requires (Section 4.1's CoS
// sub-channels are independent FIFO channels). The packets and the slice
// are the switch's, made at New, and valid until the next initiation on
// this port; one on another port leaves them alone. A caller that keeps
// a packet past that keeps a Clone.
//
//speedlight:hotpath
func (s *Switch) InitiateIngress(wireID WireID, port int, now sim.Time) []*packet.Packet {
	s.tel.Initiations.Inc()
	n := s.cfg.NumCoS
	out := s.inits[port*n : (port+1)*n : (port+1)*n]
	// The last class's packet is the one the ingress unit steps; the
	// others are copies of it.
	pkt := out[n-1]
	*pkt = *InitiationPacket(wireID)
	psid := s.step(pkt, port, Ingress, s.ingressCPChannel(), notMarker, now)
	for cos, cp := range out {
		if cp != pkt {
			*cp = *pkt
		}
		cp.CoS = uint8(cos)
		cp.Snap.Channel = s.internalChannel(port, uint8(cos))
		if s.jr != nil {
			// One initiation marker per CoS FIFO channel heads for the
			// egress path — exactly the per-channel marker the snapshot
			// algorithm requires (Section 4.1).
			s.jr.Append(journal.MarkerSent(int64(now), int(s.cfg.Node), port, psid, cos))
		}
	}
	return out
}
