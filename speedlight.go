// Package speedlight is a Go implementation of Synchronized Network
// Snapshots (Yaseen, Sonchack, Liu — SIGCOMM 2018) and of Speedlight,
// the paper's realization of them for programmable switches.
//
// A synchronized network snapshot is a set of per-processing-unit
// measurements that is causally consistent (a modified multi-initiator
// Chandy–Lamport protocol run in the switch data planes) and nearly
// synchronous (PTP-coordinated initiation keeps all measurements within
// tens of microseconds). Any value a data plane can read at line rate —
// packet counters, byte counters, queue depth, EWMAs of packet timing —
// can be snapshotted.
//
// This package is the high-level facade: it builds an emulated
// leaf-spine network (there is no Tofino here; the data plane is a
// faithful software model driven by a deterministic discrete-event
// simulator), lets the caller inject traffic, and takes snapshots.
//
//	net, err := speedlight.New(speedlight.Config{
//	        Fabric: speedlight.Fabric{Leaves: 2, Spines: 2, HostsPerLeaf: 3},
//	})
//	...
//	net.Run(2 * time.Millisecond)
//	snap, err := net.Snapshot()
//	for _, v := range snap.Values { ... }
//
// The full machinery — the per-unit protocol state machines, the
// control plane, the observer, the concurrent goroutine runtime, the
// workload generators, and the harnesses that regenerate every table
// and figure of the paper's evaluation — lives in the internal
// packages; see DESIGN.md for the map.
package speedlight

// The protocol-invariant analyzer suite (internal/lint) runs over the
// whole module via `go generate .` or `make lint`; CI runs the same
// gate before the tests.
//
//go:generate go build -o bin/speedlightvet ./cmd/speedlightvet
//go:generate go vet -vettool=bin/speedlightvet ./...

import (
	"fmt"
	"sort"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/epochtrace"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/reconcile"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// HostID identifies a host in the fabric.
type HostID uint32

// Metric selects what each processing unit snapshots.
type Metric int

const (
	// PacketCount counts packets per unit; with channel state enabled,
	// in-flight packets are folded in so counts are conserved across
	// the snapshot cut.
	PacketCount Metric = iota
	// ByteCount sums frame bytes per unit.
	ByteCount
	// EWMAInterarrival tracks the exponentially weighted moving average
	// of packet interarrival time (the paper's Section 8 counter) on
	// egress units, with packet counts on ingress units.
	EWMAInterarrival
	// QueueDepth snapshots the instantaneous egress queue occupancy.
	QueueDepth
)

// Balancer selects the load-balancing algorithm the switches run.
type Balancer int

const (
	// ECMP is flow-based equal-cost multipath.
	ECMP Balancer = iota
	// Flowlet is flowlet switching with a 100 µs gap.
	Flowlet
)

// Fabric describes a leaf-spine network like the paper's testbed.
type Fabric struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
}

// Config parameterizes a network.
type Config struct {
	// Fabric is the topology. The zero value defaults to the paper's
	// testbed: 2 leaves, 2 spines, 3 hosts per leaf.
	Fabric Fabric
	// Metric selects the snapshot target. Default PacketCount.
	Metric Metric
	// ChannelState enables in-flight packet recording.
	ChannelState bool
	// Balancer selects the load balancer. Default ECMP.
	Balancer Balancer
	// CoSLevels is the number of Class-of-Service levels (strict
	// priority, each its own FIFO snapshot channel). Default 1.
	CoSLevels int
	// Seed makes runs reproducible. Default 1.
	Seed int64
	// Shards selects the simulation engine: 0 or 1 runs the serial
	// reference engine; >= 2 runs the sharded parallel engine with that
	// many workers. Results are byte-identical for the same seed either
	// way; see DESIGN.md ("Parallel simulation").
	Shards int
	// Registry, when set, enables telemetry on every layer of the
	// emulation (data plane, control plane, observer, network). Nil
	// disables instrumentation at zero hot-path cost.
	Registry *telemetry.Registry
	// Journal, when set, records every protocol event into per-switch
	// flight-recorder rings; Network.Audit then replays them to verify
	// the protocol's consistency invariants, and Network.EpochTraces
	// rebuilds each snapshot's lifecycle spans from them. Nil disables
	// journaling at zero hot-path cost.
	Journal *journal.Set
	// OnAnomaly receives a flight-recorder tail dump whenever a
	// snapshot finalizes inconsistent or with excluded devices.
	// Requires Journal.
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)
	// Snapstore, when set, retains every completed snapshot as a
	// sealed delta-encoded epoch in the snapshot-history store
	// (internal/snapstore): query it with Store views or serve it with
	// snapstore.HTTPHandler.
	Snapstore *snapstore.Store
	// Invariants, when set, streams every epoch sealed into Snapstore
	// through the registered invariants (internal/invariant);
	// violations fire OnAnomaly with a flight-recorder dump. Requires
	// Snapstore.
	Invariants *invariant.Engine
}

// UnitValue is one processing unit's recorded value in a snapshot.
type UnitValue struct {
	Switch     int
	Port       int
	Direction  string // "ingress" or "egress"
	Value      uint64
	Consistent bool
}

// Snapshot is an assembled network-wide snapshot.
type Snapshot struct {
	ID packet.SeqID
	// Consistent reports whether every unit's value is consistent.
	Consistent bool
	// Values holds one entry per processing unit, ordered by switch,
	// port, direction.
	Values []UnitValue
	// Sync is the measured synchronization of the snapshot: the spread
	// between the earliest and latest data-plane notification
	// timestamps carrying its ID.
	Sync time.Duration
}

// Value returns the recorded value of one unit.
func (s *Snapshot) Value(sw, port int, direction string) (uint64, bool) {
	for _, v := range s.Values {
		if v.Switch == sw && v.Port == port && v.Direction == direction && v.Consistent {
			return v.Value, true
		}
	}
	return 0, false
}

// Network is an emulated Speedlight deployment.
type Network struct {
	cfg   Config
	inner *emunet.Network
	ls    *topology.LeafSpine
}

// New builds a network.
func New(cfg Config) (*Network, error) {
	if cfg.Fabric == (Fabric{}) {
		cfg.Fabric = Fabric{Leaves: 2, Spines: 2, HostsPerLeaf: 3}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves:            cfg.Fabric.Leaves,
		Spines:            cfg.Fabric.Spines,
		HostsPerLeaf:      cfg.Fabric.HostsPerLeaf,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	ecfg := emunet.Config{
		Topo:         ls.Topology,
		Seed:         cfg.Seed,
		Shards:       cfg.Shards,
		MaxID:        256,
		WrapAround:   true,
		ChannelState: cfg.ChannelState,
		NumCoS:       cfg.CoSLevels,
		Registry:     cfg.Registry,
		Journal:      cfg.Journal,
		OnAnomaly:    cfg.OnAnomaly,
		Snapstore:    cfg.Snapstore,
		Invariants:   cfg.Invariants,
	}
	ecfg.Metrics = func(net *emunet.Network, id dataplane.UnitID) core.Metric {
		switch cfg.Metric {
		case ByteCount:
			return &counters.ByteCount{}
		case EWMAInterarrival:
			return emunet.EWMAMetrics(net, id)
		case QueueDepth:
			if id.Dir == dataplane.Egress {
				return net.Gauge(id)
			}
			return &counters.PacketCount{}
		default:
			return &counters.PacketCount{}
		}
	}
	if cfg.Balancer == Flowlet {
		ecfg.NewBalancer = routing.PaperFlowlet
	}
	n, err := emunet.New(ecfg)
	if err != nil {
		return nil, err
	}
	return &Network{cfg: cfg, inner: n, ls: ls}, nil
}

// Hosts lists the fabric's host IDs.
func (n *Network) Hosts() []HostID {
	var out []HostID
	for _, h := range n.ls.Hosts {
		out = append(out, HostID(h.ID))
	}
	return out
}

// Send injects one packet from src to dst with the given frame size and
// flow ports, at class of service 0.
func (n *Network) Send(src, dst HostID, size int, srcPort, dstPort uint16) {
	n.SendCoS(src, dst, size, srcPort, dstPort, 0)
}

// SendCoS injects one packet at the given class of service.
func (n *Network) SendCoS(src, dst HostID, size int, srcPort, dstPort uint16, cos uint8) {
	n.inner.InjectFromHost(topology.HostID(src), &packet.Packet{
		DstHost: uint32(dst),
		SrcPort: srcPort,
		DstPort: dstPort,
		Proto:   6,
		Size:    uint32(size),
		CoS:     cos,
	})
}

// Run advances the emulation by d of virtual time.
func (n *Network) Run(d time.Duration) {
	n.inner.RunFor(sim.Duration(d.Nanoseconds()))
}

// Snapshot takes one synchronized network snapshot: it schedules the
// snapshot one virtual millisecond out, advances the emulation until
// the observer assembles it, and returns the global result.
func (n *Network) Snapshot() (*Snapshot, error) {
	eng := n.inner.Engine()
	id, err := n.inner.ScheduleSnapshot(eng.Now().Add(sim.Millisecond))
	if err != nil {
		return nil, err
	}
	// Advance until this snapshot completes (bounded: recovery timers
	// guarantee progress).
	deadline := eng.Now().Add(2 * sim.Second)
	for eng.Now() < deadline {
		n.inner.RunFor(sim.Millisecond)
		for _, g := range n.inner.Snapshots() {
			if g.ID != id {
				continue
			}
			snap := &Snapshot{ID: id, Consistent: g.Consistent}
			if d, ok := n.inner.SyncSpread(id); ok {
				snap.Sync = time.Duration(d)
			}
			for u, res := range g.Results {
				snap.Values = append(snap.Values, UnitValue{
					Switch:     int(u.Node),
					Port:       u.Port,
					Direction:  u.Dir.String(),
					Value:      res.Value,
					Consistent: res.Consistent,
				})
			}
			sort.Slice(snap.Values, func(a, b int) bool {
				x, y := snap.Values[a], snap.Values[b]
				if x.Switch != y.Switch {
					return x.Switch < y.Switch
				}
				if x.Port != y.Port {
					return x.Port < y.Port
				}
				return x.Direction < y.Direction
			})
			return snap, nil
		}
	}
	return nil, fmt.Errorf("speedlight: snapshot %d did not complete", id)
}

// Uplinks returns the uplink egress locations of a leaf switch, for
// load-balance analyses.
func (n *Network) Uplinks(leaf int) [][2]int {
	var out [][2]int
	for _, p := range n.ls.UplinkPorts(topology.NodeID(leaf)) {
		out = append(out, [2]int{leaf, p})
	}
	return out
}

// NumSwitches returns the fabric's switch count (leaves then spines).
func (n *Network) NumSwitches() int { return len(n.ls.Switches) }

// Journal returns the flight-recorder set the network was built with,
// or nil when journaling is disabled.
func (n *Network) Journal() *journal.Set { return n.inner.Journal() }

// Snapstore returns the snapshot-history store the network was built
// with, or nil when history is disabled.
func (n *Network) Snapstore() *snapstore.Store { return n.cfg.Snapstore }

// Invariants returns the streaming invariant engine the network was
// built with, or nil when disabled.
func (n *Network) Invariants() *invariant.Engine { return n.cfg.Invariants }

// Audit replays the flight-recorder journal and independently verifies
// every snapshot's causal-consistency invariants (see internal/audit).
// Nil when journaling is disabled.
func (n *Network) Audit() *audit.Report { return n.inner.Audit() }

// EpochTraces reconstructs per-epoch causal traces from the journal:
// the propagation wavefront, per-switch span tree, and the critical
// path whose segment durations sum exactly to each epoch's completion
// latency (see internal/epochtrace). Nil when journaling is disabled.
func (n *Network) EpochTraces() []*epochtrace.EpochTrace { return n.inner.EpochTraces() }

// BarrierProfile returns the sharded engine's cumulative per-shard
// work/wait split (the shard-barrier profiler), or nil on a serial
// engine or when metrics are disabled.
func (n *Network) BarrierProfile() []sim.BarrierShardStats { return n.inner.BarrierProfile() }

// BlockedProfile returns the sharded engine's per-pair stall
// attribution (which waiter shard lost how much wall time to which
// holdup shard's published clock), most blocking pair first, or nil on
// a serial engine or when metrics are disabled.
func (n *Network) BlockedProfile() []epochtrace.ShardBlocking { return n.inner.BlockedProfile() }

// Reconciler builds a fabric reconciliation controller over this
// network: declare desired churn on its Spec (switches down, links
// drained, config pushes) and the controller converges the fabric —
// directly via Reconcile, on a periodic watcher via Start, or from
// scripted scenarios (see internal/reconcile). All reconciliation runs
// as deterministic global-domain events, so churned campaigns keep the
// serial-vs-sharded byte-identical artifact contract.
func (n *Network) Reconciler() (*reconcile.Controller, error) {
	return reconcile.New(reconcile.Config{
		Fabric: n.inner,
		Proc:   n.inner.Engine().Proc(sim.GlobalDomain),
	})
}

// LeakCheck verifies pooled-packet leak-freedom: after traffic stops
// and the network drains, every pooled packet must be back in a free
// list. A non-nil error means a teardown or drop path lost a packet.
func (n *Network) LeakCheck() error { return n.inner.LeakCheck() }

// ClassifyChurn grades every journaled churn event against the
// snapshots it overlapped — clean, excluded, inconsistent-caught, or
// (a defect) silent-disagreement. Nil when journaling is disabled.
func (n *Network) ClassifyChurn() []reconcile.Classified {
	if n.cfg.Journal == nil {
		return nil
	}
	return reconcile.Classify(n.cfg.Journal.Events(), n.Audit())
}

// Inner exposes the underlying emulation for advanced use: attaching
// the workload generators, custom metrics, or direct engine access.
// Most callers never need it.
func (n *Network) Inner() *emunet.Network { return n.inner }
