// Package routing computes forwarding state for emulated topologies and
// implements the two load-balancing algorithms the paper deploys
// alongside the snapshot logic (Section 8): flow-based ECMP and flowlet
// switching.
//
// It also supports the Section 10 discussion of forwarding-state
// snapshots: every FIB carries a version number that the data plane can
// record into snapshotted state.
package routing

import (
	"fmt"
	"math/rand"
	"sort"

	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// FIB is one switch's forwarding table: for every destination host, the
// set of ports on a shortest path, in ascending order. Version
// identifies the table's revision for forwarding-state snapshots.
type FIB struct {
	Node    topology.NodeID
	Version uint64
	// NextHops[host] lists candidate egress ports (an ECMP group).
	NextHops map[topology.HostID][]int
}

// Ports returns the ECMP group for a destination, or nil if unknown.
func (f *FIB) Ports(dst topology.HostID) []int { return f.NextHops[dst] }

// Filter restricts FIB computation to the live part of a churning
// fabric. Nil predicates mean "everything is up". LinkDown is asked
// about one endpoint of each switch-to-switch link; implementations
// must answer identically for both endpoints.
type Filter struct {
	SwitchDown func(topology.NodeID) bool
	LinkDown   func(node topology.NodeID, port int) bool
}

func (f Filter) switchDown(n topology.NodeID) bool {
	return f.SwitchDown != nil && f.SwitchDown(n)
}

func (f Filter) linkDown(n topology.NodeID, p int) bool {
	return f.LinkDown != nil && f.LinkDown(n, p)
}

// ComputeFIBs builds shortest-path ECMP forwarding tables for every
// switch via breadth-first search over the switch graph. Every host
// must be reachable from every switch; an unreachable pair is an
// error (static topologies are built connected).
func ComputeFIBs(t *topology.Topology) (map[topology.NodeID]*FIB, error) {
	fibs := computeFIBs(t, Filter{})
	for _, sw := range t.Switches {
		for _, h := range t.Hosts {
			if len(fibs[sw.ID].NextHops[h.ID]) == 0 {
				return nil, fmt.Errorf("routing: host %d unreachable from switch %d", h.ID, sw.ID)
			}
		}
	}
	return fibs, nil
}

// ComputeFIBsFiltered builds forwarding tables around a churn filter:
// down switches and drained links are excluded from path search.
// Unreachable (host, switch) pairs are not an error — the entry is
// simply absent and the data plane drops toward it, exactly what a
// partitioned fabric does. Down switches get an empty table.
func ComputeFIBsFiltered(t *topology.Topology, f Filter) map[topology.NodeID]*FIB {
	return computeFIBs(t, f)
}

func computeFIBs(t *topology.Topology, f Filter) map[topology.NodeID]*FIB {
	n := len(t.Switches)
	// dist[a][b]: hop distance between switches over live elements.
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = -1
		}
		if f.switchDown(t.Switches[i].ID) {
			continue
		}
		// BFS from switch i.
		q := []int{i}
		dist[i][i] = 0
		for len(q) > 0 {
			cur := q[0]
			q = q[1:]
			for p, peer := range t.Switches[cur].Ports {
				if peer.Kind != topology.PeerSwitch {
					continue
				}
				if f.switchDown(peer.Node) || f.linkDown(t.Switches[cur].ID, p) {
					continue
				}
				nb := int(peer.Node)
				if dist[i][nb] < 0 {
					dist[i][nb] = dist[i][cur] + 1
					q = append(q, nb)
				}
			}
		}
	}

	fibs := make(map[topology.NodeID]*FIB, n)
	for _, sw := range t.Switches {
		fib := &FIB{Node: sw.ID, Version: 1, NextHops: make(map[topology.HostID][]int)}
		fibs[sw.ID] = fib
		if f.switchDown(sw.ID) {
			continue
		}
		for _, h := range t.Hosts {
			if f.switchDown(h.Node) {
				continue // host's leaf is down: unreachable everywhere
			}
			if h.Node == sw.ID {
				// Directly attached.
				fib.NextHops[h.ID] = []int{h.Port}
				continue
			}
			// Candidate ports: live neighbors minimizing distance to
			// the host's switch.
			best := -1
			var ports []int
			for p, peer := range sw.Ports {
				if peer.Kind != topology.PeerSwitch {
					continue
				}
				if f.switchDown(peer.Node) || f.linkDown(sw.ID, p) {
					continue
				}
				d := dist[int(peer.Node)][int(h.Node)]
				if d < 0 {
					continue
				}
				switch {
				case best < 0 || d < best:
					best = d
					ports = []int{p}
				case d == best:
					ports = append(ports, p)
				}
			}
			if best < 0 {
				continue // unreachable under the filter: no entry
			}
			sort.Ints(ports)
			fib.NextHops[h.ID] = ports
		}
	}
	return fibs
}

// Balancer picks one egress port from an ECMP group for a packet.
// Implementations may keep per-flow state; they are driven from a single
// logical thread per switch.
type Balancer interface {
	// Pick selects the egress port for pkt among the candidate ports at
	// virtual time now.
	Pick(pkt *packet.Packet, ports []int, now sim.Time) int
	// Name identifies the algorithm in experiment output.
	Name() string
}

// ECMP is classic flow-based equal-cost multipath (RFC 2992): the
// packet's 5-tuple hash statically selects a member of the group, so a
// flow never changes paths but large flows can collide.
type ECMP struct{}

// Pick implements Balancer. A one-port group (every spine-to-leaf and
// leaf-to-host hop of a leaf-spine) is its own answer: the hash would
// pick the same port.
func (ECMP) Pick(pkt *packet.Packet, ports []int, _ sim.Time) int {
	if len(ports) == 1 {
		return ports[0]
	}
	return ports[pkt.FlowHash()%uint64(len(ports))]
}

// Name implements Balancer.
func (ECMP) Name() string { return "ecmp" }

// Flowlet implements flowlet switching (Kandula et al.): bursts of a
// flow separated by an idle gap longer than the flowlet timeout may be
// re-routed independently without reordering packets. It balances load
// at a finer granularity than ECMP, which Section 8.3 quantifies with
// snapshots.
type Flowlet struct {
	// Gap is the inter-burst idle time that opens a new flowlet.
	Gap sim.Duration
	// R drives the new-flowlet path choice.
	R *rand.Rand

	entries map[uint64]*flowletEntry
}

type flowletEntry struct {
	port     int
	lastSeen sim.Time
}

// NewFlowlet creates a flowlet balancer with the given gap and
// randomness source.
func NewFlowlet(gap sim.Duration, r *rand.Rand) *Flowlet {
	return &Flowlet{Gap: gap, R: r, entries: make(map[uint64]*flowletEntry)}
}

// PaperFlowlet builds a switch's flowlet balancer with the paper's
// 100 µs gap; it has the shape of the emulation's per-switch balancer
// factory.
func PaperFlowlet(_ topology.NodeID, r *rand.Rand) Balancer {
	return NewFlowlet(100*sim.Microsecond, r)
}

// Pick implements Balancer.
func (f *Flowlet) Pick(pkt *packet.Packet, ports []int, now sim.Time) int {
	key := pkt.FlowHash()
	e, ok := f.entries[key]
	if !ok {
		e = &flowletEntry{port: -1}
		f.entries[key] = e
	}
	stale := e.port < 0 || now.Sub(e.lastSeen) > f.Gap
	if stale {
		e.port = ports[f.R.Intn(len(ports))]
	} else {
		// The table stores the port number; validate it is still in
		// the group (FIB updates can shrink groups).
		valid := false
		for _, p := range ports {
			if p == e.port {
				valid = true
				break
			}
		}
		if !valid {
			e.port = ports[f.R.Intn(len(ports))]
		}
	}
	e.lastSeen = now
	return e.port
}

// Name implements Balancer.
func (f *Flowlet) Name() string { return "flowlet" }

// PortPairs is one switch's set of utilized (ingress port, egress port)
// pairs, dense over its ports. The zero value holds none.
type PortPairs struct {
	ports int
	used  []bool // [in*ports + out]
}

// Has reports whether some host-to-host path enters the switch on port
// in and leaves it on port out.
func (p PortPairs) Has(in, out int) bool {
	return in < p.ports && out < p.ports && p.used[in*p.ports+out]
}

// UtilizedPairs returns, for every switch, indexed by NodeID, the set of
// (ingress port, egress port) pairs that some host-to-host path actually
// traverses under the given FIBs. Control planes use this to remove
// structurally idle internal channels from snapshot-completion
// consideration — the paper's Section 6 "removal of non-utilized
// upstream neighbors" (e.g., uplink-to-uplink channels in valley-free
// leaf-spine routing never carry traffic).
//
// Forwarding depends only on the destination, so it walks once per
// destination host, from every other host's (switch, port), reading each
// switch's ECMP group once and entering each (switch, ingress port)
// state at most once: O(hosts × states) steps, where a state is a switch
// port. A fabric calls it when it is built and again on every churn
// reroute.
func UtilizedPairs(t *topology.Topology, fibs map[topology.NodeID]*FIB) []PortPairs {
	type state struct{ node, in int }
	used := make([]PortPairs, len(t.Switches))
	seen := make([][]int, len(t.Switches)) // [node][in]: last destination index + 1
	groups := make([][]int, len(t.Switches))
	for i, sw := range t.Switches {
		n := len(sw.Ports)
		used[i], seen[i] = PortPairs{ports: n, used: make([]bool, n*n)}, make([]int, n)
	}
	var stack []state
	for d, dst := range t.Hosts {
		visit := func(node, in int) {
			if seen[node][in] != d+1 {
				seen[node][in] = d + 1
				stack = append(stack, state{node, in})
			}
		}
		for i := range groups {
			groups[i] = nil
			if fib := fibs[topology.NodeID(i)]; fib != nil {
				groups[i] = fib.Ports(dst.ID)
			}
		}
		for _, src := range t.Hosts {
			if src.ID != dst.ID {
				visit(int(src.Node), src.Port)
			}
		}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pp := used[s.node]
			for _, e := range groups[s.node] {
				pp.used[s.in*pp.ports+e] = true
				if peer := t.Switches[s.node].Ports[e]; peer.Kind == topology.PeerSwitch {
					visit(int(peer.Node), peer.Port)
				}
			}
		}
	}
	return used
}
