// Package topology describes emulated network topologies: switches with
// numbered ports, hosts attached to ports, and switch-to-switch links
// with latency. A builder for the leaf-spine fabrics used throughout the
// paper's evaluation (Figure 8) is included.
package topology

import (
	"fmt"

	"speedlight/internal/sim"
)

// NodeID identifies a switch.
type NodeID int

// HostID identifies a host. Host IDs double as network addresses in the
// packet model.
type HostID uint32

// PeerKind says what sits on the far side of a switch port.
type PeerKind int

const (
	// PeerNone marks an unconnected port.
	PeerNone PeerKind = iota
	// PeerHost marks a port attached to a host.
	PeerHost
	// PeerSwitch marks a port attached to another switch.
	PeerSwitch
)

// Peer describes the far side of a port.
type Peer struct {
	Kind    PeerKind
	Host    HostID // valid when Kind == PeerHost
	Node    NodeID // valid when Kind == PeerSwitch
	Port    int    // valid when Kind == PeerSwitch
	Latency sim.Duration
	// RateBps is the link's transmission rate in bits per second; zero
	// means "use the emulation's default rate".
	RateBps float64
}

// Switch is one switch and its port table.
type Switch struct {
	ID    NodeID
	Ports []Peer
}

// EdgePorts returns the set of host-facing ports: where the snapshot
// header is added on ingress and stripped on egress.
func (s *Switch) EdgePorts() map[int]bool {
	edge := map[int]bool{}
	for p, peer := range s.Ports {
		if peer.Kind == PeerHost {
			edge[p] = true
		}
	}
	return edge
}

// Host is one host and its attachment point.
type Host struct {
	ID   HostID
	Node NodeID
	Port int
	// Latency of the host link.
	Latency sim.Duration
}

// Topology is an immutable description of a network.
type Topology struct {
	Switches []*Switch
	// Hosts is indexed by HostID: the builder numbers hosts in
	// attachment order.
	Hosts []*Host
}

// Builder incrementally assembles a topology.
type Builder struct {
	t    *Topology
	errs []error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{t: &Topology{}}
}

// AddSwitch adds a switch with the given number of ports and returns its
// node ID.
func (b *Builder) AddSwitch(numPorts int) NodeID {
	if numPorts < 1 {
		b.errs = append(b.errs, fmt.Errorf("topology: switch with %d ports", numPorts))
		numPorts = 1
	}
	id := NodeID(len(b.t.Switches))
	b.t.Switches = append(b.t.Switches, &Switch{ID: id, Ports: make([]Peer, numPorts)})
	return id
}

// AttachHost attaches a host to a switch port with the given link
// latency and returns the host's ID. The link rate is the emulation
// default; use AttachHostRated to set one.
func (b *Builder) AttachHost(node NodeID, port int, latency sim.Duration) HostID {
	return b.AttachHostRated(node, port, latency, 0)
}

// AttachHostRated attaches a host with an explicit link rate in bits
// per second (zero = emulation default).
func (b *Builder) AttachHostRated(node NodeID, port int, latency sim.Duration, rateBps float64) HostID {
	id := HostID(len(b.t.Hosts))
	if err := b.checkPortFree(node, port); err != nil {
		b.errs = append(b.errs, err)
		return id
	}
	b.t.Hosts = append(b.t.Hosts, &Host{ID: id, Node: node, Port: port, Latency: latency})
	b.t.Switches[node].Ports[port] = Peer{Kind: PeerHost, Host: id, Latency: latency, RateBps: rateBps}
	return id
}

// Connect links two switch ports with the given latency at the
// emulation's default rate; use ConnectRated to set one.
func (b *Builder) Connect(a NodeID, aPort int, c NodeID, cPort int, latency sim.Duration) {
	b.ConnectRated(a, aPort, c, cPort, latency, 0)
}

// ConnectRated links two switch ports with an explicit link rate in
// bits per second (zero = emulation default).
func (b *Builder) ConnectRated(a NodeID, aPort int, c NodeID, cPort int, latency sim.Duration, rateBps float64) {
	if err := b.checkPortFree(a, aPort); err != nil {
		b.errs = append(b.errs, err)
		return
	}
	if err := b.checkPortFree(c, cPort); err != nil {
		b.errs = append(b.errs, err)
		return
	}
	b.t.Switches[a].Ports[aPort] = Peer{Kind: PeerSwitch, Node: c, Port: cPort, Latency: latency, RateBps: rateBps}
	b.t.Switches[c].Ports[cPort] = Peer{Kind: PeerSwitch, Node: a, Port: aPort, Latency: latency, RateBps: rateBps}
}

func (b *Builder) checkPortFree(node NodeID, port int) error {
	if int(node) < 0 || int(node) >= len(b.t.Switches) {
		return fmt.Errorf("topology: unknown switch %d", node)
	}
	sw := b.t.Switches[node]
	if port < 0 || port >= len(sw.Ports) {
		return fmt.Errorf("topology: switch %d has no port %d", node, port)
	}
	if sw.Ports[port].Kind != PeerNone {
		return fmt.Errorf("topology: switch %d port %d already connected", node, port)
	}
	return nil
}

// Build validates and returns the topology.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	return b.t, nil
}

// Switch returns the switch with the given ID, or nil.
func (t *Topology) Switch(id NodeID) *Switch { return at(t.Switches, int(id)) }

// Host returns the host with the given ID, or nil.
func (t *Topology) Host(id HostID) *Host { return at(t.Hosts, int(id)) }

// at returns s[i], or nil when i is out of range: IDs index their
// tables directly.
func at[T any](s []*T, i int) *T {
	if i < 0 || i >= len(s) {
		return nil
	}
	return s[i]
}

// HostIDs lists every host's ID, in attachment order.
func (t *Topology) HostIDs() []HostID {
	out := make([]HostID, len(t.Hosts))
	for i, h := range t.Hosts {
		out[i] = h.ID
	}
	return out
}

// Peer returns the far side of a switch port.
func (t *Topology) Peer(node NodeID, port int) Peer {
	sw := t.Switch(node)
	if sw == nil || port < 0 || port >= len(sw.Ports) {
		return Peer{}
	}
	return sw.Ports[port]
}

// LeafSpineConfig parameterizes a two-tier Clos fabric like the paper's
// testbed topology (Figure 8): leaves at the edge with hosts below and a
// full mesh to the spines above.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
	// HostLinkLatency is the host-to-leaf propagation delay.
	HostLinkLatency sim.Duration
	// FabricLinkLatency is the leaf-to-spine propagation delay.
	FabricLinkLatency sim.Duration
	// HostRateBps / FabricRateBps set the link rates (zero = the
	// emulation default). The paper's testbed pairs 25 GbE server links
	// with 100 GbE fabric links.
	HostRateBps   float64
	FabricRateBps float64
}

// LeafSpine describes the built fabric: the topology plus the role of
// each switch and the uplink port ranges that the load-balancing
// analyses compare (Section 8.3 compares uplinks of the same switch).
type LeafSpine struct {
	*Topology
	Cfg    LeafSpineConfig
	Leaves []NodeID
	Spines []NodeID
}

// NewLeafSpine builds a leaf-spine fabric. Leaf ports [0,HostsPerLeaf)
// attach hosts; ports [HostsPerLeaf, HostsPerLeaf+Spines) are uplinks,
// uplink i leading to spine i. Spine ports are one per leaf, port j
// leading to leaf j.
func NewLeafSpine(cfg LeafSpineConfig) (*LeafSpine, error) {
	if cfg.Leaves < 1 || cfg.Spines < 1 || cfg.HostsPerLeaf < 0 {
		return nil, fmt.Errorf("topology: bad leaf-spine config %+v", cfg)
	}
	b := NewBuilder()
	ls := &LeafSpine{Cfg: cfg}
	for i := 0; i < cfg.Leaves; i++ {
		ls.Leaves = append(ls.Leaves, b.AddSwitch(cfg.HostsPerLeaf+cfg.Spines))
	}
	for i := 0; i < cfg.Spines; i++ {
		ls.Spines = append(ls.Spines, b.AddSwitch(cfg.Leaves))
	}
	for li, leaf := range ls.Leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			b.AttachHostRated(leaf, h, cfg.HostLinkLatency, cfg.HostRateBps)
		}
		for si, spine := range ls.Spines {
			b.ConnectRated(leaf, cfg.HostsPerLeaf+si, spine, li, cfg.FabricLinkLatency, cfg.FabricRateBps)
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, err
	}
	ls.Topology = t
	return ls, nil
}

// UplinkPorts returns a leaf's uplink port numbers.
func (ls *LeafSpine) UplinkPorts(leaf NodeID) []int {
	ports := make([]int, ls.Cfg.Spines)
	for i := range ports {
		ports[i] = ls.Cfg.HostsPerLeaf + i
	}
	return ports
}
