// Package emunet assembles the full Speedlight system on the
// discrete-event simulator: switches (data plane + control plane +
// PTP-disciplined clock), links with propagation and serialization
// delay, bounded egress queues, the lossy notification path to each
// switch CPU with a modeled per-notification service time, and a
// snapshot observer connected over the network.
//
// This is the stand-in for the paper's Wedge100BF testbed (and for the
// large-network simulation behind its Figure 11). All randomness comes
// from the engine's seed; runs are reproducible.
package emunet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"speedlight/internal/clock"
	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/dist"
	"speedlight/internal/epochtrace"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// Config parameterizes an emulated network.
type Config struct {
	// Topo is the network topology. Required.
	Topo *topology.Topology
	// Seed drives all randomness.
	Seed int64

	// Shards selects the simulation engine: 0 or 1 runs the serial
	// reference engine; >= 2 runs the conservative parallel engine with
	// that many worker shards. Both produce byte-identical journals,
	// audit reports, and snapshots for the same seed; see DESIGN.md for
	// the determinism contract. With shards, every switch-to-switch
	// link crossing a shard boundary must have positive latency.
	Shards int

	// Snapshot protocol parameters.
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// NumCoS is the number of Class-of-Service levels (strict priority;
	// higher class wins). Each class is an independent FIFO logical
	// channel in the snapshot model. Zero means 1.
	NumCoS int

	// Metrics selects each unit's snapshot target. Nil defaults to
	// per-unit packet counters. The factory may return nil for "use the
	// default for this unit".
	Metrics func(net *Network, id dataplane.UnitID) core.Metric

	// NewBalancer builds each switch's load balancer. Nil defaults to
	// ECMP.
	NewBalancer func(node topology.NodeID, r *rand.Rand) routing.Balancer

	// Clock is the control planes' synchronization quality. The zero
	// value defaults to clock.PTP().
	Clock clock.Config

	// CPServiceTime is the control plane's per-notification processing
	// time — the bottleneck behind the paper's Figure 10. Default:
	// ~110 µs lognormal (calibrated to ~70 snapshots/s at 64 ports).
	CPServiceTime dist.Dist
	// CPServiceTimeFor overrides CPServiceTime per switch: a non-nil
	// return replaces the global distribution for that node. Fault
	// injection uses it to slow one control plane and check that the
	// epoch tracer's critical path names the straggler.
	CPServiceTimeFor func(node topology.NodeID) dist.Dist

	// QueueCapacity bounds each egress queue, in packets. Default 512.
	QueueCapacity int
	// NotifCapacity bounds each switch CPU's notification socket
	// buffer. Default 4096.
	NotifCapacity int

	// RetryAfter / ExcludeAfter configure the observer's recovery
	// timers, counted from the snapshot's Begin. Zero derives them by
	// node.RecoveryTimers from the widest control plane's drain (its
	// 2 × ports units times its mean service time): RetryAfter =
	// max(5 ms, 2 × drain), ExcludeAfter = max(50 ms, 2 × RetryAfter), so
	// a retry fires only when something was lost. Negative disables.
	RetryAfter   sim.Duration
	ExcludeAfter sim.Duration

	// LinkLossProb drops each switch-to-switch wire transmission with
	// this probability (failure injection). The snapshot protocol is
	// designed to survive loss: IDs piggyback on every packet and the
	// control planes re-initiate and poll (Section 6).
	LinkLossProb float64

	// SnapshotDisabled lists switches that forward traffic but do not
	// participate in snapshots (partial deployment, Section 10).
	SnapshotDisabled map[topology.NodeID]bool

	// OnDeliver, when set, observes every packet delivered to a host.
	// Setting it routes deliveries through the serializing global
	// domain, so invocations are single-threaded and deterministically
	// ordered even under Shards > 1 (at some cost to scaling).
	OnDeliver func(pkt *packet.Packet, host topology.HostID, now sim.Time)

	// OnProgress, when set, observes every progress-relevant data-plane
	// notification (the ones entering synchronization windows), keyed by
	// the unwrapped snapshot ID it advances. Experiments use it to
	// collect per-unit timing distributions. Under Shards > 1 it is
	// invoked from concurrent shard workers (serialized only per
	// switch): the hook must be thread-safe, and must not depend on
	// cross-switch invocation order.
	OnProgress func(id packet.SeqID, at sim.Time)

	// OnInject, when set, observes every host packet injection at its
	// injection time — e.g., to record a workload as a replayable
	// trace.
	OnInject func(pkt *packet.Packet, host topology.HostID, at sim.Time)

	// Registry, when set, enables telemetry: every protocol layer's
	// counters and histograms are registered on it. Nil disables
	// instrumentation at zero hot-path cost.
	Registry *telemetry.Registry

	// Journal, when set, enables the flight recorder: every protocol
	// layer appends structured events to its per-switch rings, and
	// Network.Audit() can mechanically verify the run. Nil disables
	// journaling at one nil check per potential event.
	Journal *journal.Set
	// OnAnomaly, when set, fires when a snapshot finalizes inconsistent
	// or with exclusions — with the flight-recorder tail at that moment
	// (the last 512 journal events; nil without a Journal). It runs with
	// the node.Fabric's lock held, so it must not call back into the
	// network (Snapshots or ScheduleSnapshot would deadlock).
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)

	// Snapstore, when set, ingests every completed global snapshot as a
	// sealed delta-encoded epoch in the snapshot-history store (see
	// internal/snapstore). Ingestion runs on the observer's completion
	// path in the serialized global domain.
	Snapstore *snapstore.Store
	// Invariants, when set, streams every epoch sealed into Snapstore
	// through the registered invariants; each violation fires OnAnomaly
	// with a flight-recorder dump. Requires Snapstore.
	Invariants *invariant.Engine
}

func (c *Config) setDefaults() {
	if c.MaxID == 0 {
		c.MaxID = 256
	}
	if c.NumCoS <= 0 {
		c.NumCoS = 1
	}
	if c.Clock.ResidualOffset == nil {
		c.Clock = clock.PTP()
	}
	if c.CPServiceTime == nil {
		c.CPServiceTime = dist.LogNormalFromMedianP99(110_000, 200_000)
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 512
	}
	if c.NotifCapacity == 0 {
		c.NotifCapacity = 4096
	}
	c.RetryAfter, c.ExcludeAfter = node.RecoveryTimers(c.RetryAfter, c.ExcludeAfter, c.drain())
}

// serviceTime returns a switch's per-notification service time.
func (c *Config) serviceTime(node topology.NodeID) dist.Dist {
	if c.CPServiceTimeFor != nil {
		if d := c.CPServiceTimeFor(node); d != nil {
			return d
		}
	}
	return c.CPServiceTime
}

// drain is the widest control plane's expected notification backlog
// for one loss-free epoch: one notification per unit (two per port),
// serviced one at a time.
func (c *Config) drain() sim.Duration {
	var worst float64
	for _, sw := range c.Topo.Switches {
		worst = max(worst, float64(2*len(sw.Ports))*c.serviceTime(sw.ID).Mean())
	}
	return sim.Duration(worst)
}

// Switch-CPU path latencies, sampled per event, in nanoseconds.
var (
	// cpNotifLatency is the data-plane-to-CPU delivery latency of a
	// notification (DMA + kernel): ~10 µs lognormal.
	cpNotifLatency = dist.LogNormalFromMedianP99(10_000, 40_000)
	// initiationLatency is the delay between a control plane's local
	// deadline and the initiation reaching the data plane (scheduler
	// wakeup + driver): ~2 µs lognormal with a 15 µs p99.
	initiationLatency = dist.LogNormalFromMedianP99(2_000, 15_000)
)

// observerLatency is the control-plane-to-observer result delivery time
// and, being constant, also the lookahead of every
// switch-shard-to-observer-shard pair: result deliveries execute in the
// observer's own domain (so snapshot assembly, store ingest and
// invariant evaluation run off the serialized global domain), and the
// parallel engine needs a positive lower bound on their delivery time.
const observerLatency = 50 * sim.Microsecond

// defaultLinkRateBps is the transmission rate of a link whose topology
// leaves its RateBps zero: 25 Gb/s, the testbed's server links.
const defaultLinkRateBps = 25e9

// resultChunk is a block of results on their way from one switch to the
// observer domain.
type resultChunk [64]control.Result

// outbox is a switch's result handoff to the observer domain. The
// switch's domain writes each result into the next slot of cur, then
// sends the delivery event that names the slot, so the engine's handoff
// orders the write before the read; a slot is never rewritten in flight.
// Every delivery from one switch takes observerLatency, so the observer
// domain reads the slots in the order they were written, and the read of
// a chunk's last slot hands the chunk back through spare. A chunk handed
// back while spare is full is left to the collector.
type outbox struct {
	cur   *resultChunk
	next  int
	spare atomic.Pointer[resultChunk]
}

// refill gives the outbox an empty chunk: the one the observer handed
// back, or a new one.
func (ob *outbox) refill() {
	if ob.cur, ob.next = ob.spare.Swap(nil), 0; ob.cur == nil {
		ob.cur = new(resultChunk)
	}
}

// pktFIFO is a head-indexed FIFO: pops advance a cursor instead of
// re-slicing the front (which strands the backing array's prefix and
// forces append to keep growing fresh arrays), and the buffer compacts
// once the dead prefix dominates. Steady state pushes and pops without
// allocating.
type pktFIFO struct {
	items []*packet.Packet
	head  int
}

func (f *pktFIFO) len() int { return len(f.items) - f.head }

//speedlight:hotpath
//speedlight:pool-transfer pkt
func (f *pktFIFO) push(pkt *packet.Packet) { f.items = append(f.items, pkt) }

//speedlight:hotpath
func (f *pktFIFO) peek() *packet.Packet { return f.items[f.head] }

//speedlight:hotpath
func (f *pktFIFO) pop() *packet.Packet {
	pkt := f.items[f.head]
	f.items[f.head] = nil // unpin
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head >= 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	return pkt
}

// portQueue is one egress port's set of per-class FIFO queues with a
// single strict-priority transmitter: within a class order holds, but
// a higher class's packets overtake lower ones — exactly the CoS
// channel model of Section 4.1.
type portQueue struct {
	perCoS      []pktFIFO
	queued      int // packets over all classes
	txScheduled bool
	drops       uint64
	// depth is the egress unit's registered depth gauge (Network.Gauge),
	// or nil.
	depth *counters.Gauge
	// rate is the link's transmission rate in bits per second.
	rate float64
	// txSize and txTime are the last packet size serialization priced
	// and its price.
	txSize uint32
	txTime sim.Duration
}

func (q *portQueue) length() int { return q.queued }

// setDepth mirrors the queue's occupancy into its depth gauge, if any.
//
//speedlight:hotpath
func (q *portQueue) setDepth() {
	if q.depth != nil {
		q.depth.Set(uint64(q.length()))
	}
}

// serialization returns the transmission time of a packet of the given
// size on the port's link. A run of equal sizes is priced once.
//
//speedlight:hotpath
func (q *portQueue) serialization(size uint32) sim.Duration {
	if size == 0 {
		size = 64
	}
	if size != q.txSize {
		q.txSize, q.txTime = size, sim.DurationOfSeconds(float64(size)*8/q.rate)
	}
	return q.txTime
}

// head returns the highest-priority non-empty class, or -1.
//
//speedlight:hotpath
func (q *portQueue) head() int {
	for cos := len(q.perCoS) - 1; cos >= 0; cos-- {
		if q.perCoS[cos].len() > 0 {
			return cos
		}
	}
	return -1
}

// EmuSwitch is one emulated switch: the switch proper (data plane DP
// and control plane CP, rebuilt by every re-provisioning), its clock,
// and per-port egress queues.
type EmuSwitch struct {
	*node.Switch
	Node   topology.NodeID
	spec   *topology.Switch // the switch's ports and their peers
	Clock  *clock.Clock
	queues []*portQueue

	// dom is the switch's scheduling domain on the engine; proc is its
	// scheduling handle. All of this struct's mutable state is owned by
	// that domain: only its own events (or serialized global-domain
	// events) may touch it.
	dom  int
	proc sim.Proc

	cpBusy bool // notification processing loop active
	// cpService is the switch's per-notification service time — the
	// global Config.CPServiceTime unless CPServiceTimeFor overrides it.
	cpService dist.Dist

	// Churn state (see churn.go). down marks the switch out of the
	// fabric; gen is bumped on every down/up transition so in-flight
	// closure-free events armed against the old incarnation no-op
	// instead of touching flushed queues or a rebooted control plane;
	// linkDown marks administratively drained ports. All three are
	// written only from serialized global-domain events (workers
	// parked), so shard-context reads are race-free.
	down     bool
	gen      int64
	linkDown []bool
	rng      *rand.Rand
	// pkts counts this switch's wire arrivals (per-switch throughput).
	pkts *telemetry.Counter
	// ppool is the switch's packet free list (see packet.Pool): touched
	// only by this switch's domain events or with workers parked, and
	// balanced against other switches through the network's central
	// exchange.
	ppool packet.Pool
	// out carries the switch's finished results to the observer domain.
	out outbox
}

// QueueLen returns the occupancy of an egress queue in packets, summed
// over service classes.
func (s *EmuSwitch) QueueLen(port int) int { return s.queues[port].length() }

// syncWindow tracks the earliest and latest notification timestamps
// observed for one snapshot ID (the paper's synchronization metric,
// Section 8.1).
type syncWindow struct {
	min, max sim.Time
	count    int
}

// Network is the emulated Speedlight deployment: a node.Fabric — routes,
// switches, the observer and its recovery timers — whose switches run on
// the engine's domains behind modelled queues, wires and control planes.
// The Fabric brings Journal, Audit, Snapshots, CompletedEpochs and Begin;
// its Result runs in the observer's domain, its Retries in the global
// one, so its mutex is never contended.
type Network struct {
	*node.Fabric
	cfg Config
	eng sim.Sim
	// gproc is the global domain's scheduling handle.
	gproc sim.Proc
	// obsDom/obsProc address the observer's domain: snapshot results,
	// snapstore ingest, invariant evaluation, and epoch-trace stamping
	// all execute there, off the coordinator's critical path.
	obsDom  int
	obsProc sim.Proc
	// sws holds every switch by NodeID (topology order).
	sws []*EmuSwitch
	// syncMu guards syncs: notifications record windows from concurrent
	// shard workers.
	syncMu sync.Mutex
	syncs  map[packet.SeqID]*syncWindow
	gauges map[dataplane.UnitID]*counters.Gauge
	// wireDrops counts packets lost to injected link failures (atomic:
	// switch domains on different shards drop concurrently).
	wireDrops atomic.Uint64
	// churnDrops counts packets eaten by churn: arrivals at a down
	// switch, and transmissions onto a drained link (atomic, as
	// wireDrops).
	churnDrops atomic.Uint64
	// tel's handles are all nil (no-op) when cfg.Registry is nil.
	tel netTelemetry

	// Packet pooling: central is the exchange behind every switch's
	// free list; dpool is the driver/global-context pool (NewPacket,
	// global-domain deliveries).
	central *packet.Central
	dpool   packet.Pool

	// Cached closure-free callbacks (method values evaluate to a fresh
	// allocation each time, so they are bound once here). These carry
	// the hottest per-packet schedules: wire arrival, head-of-line
	// transmit, host delivery, the CP notification loop, and result
	// delivery to the observer.
	arriveFn        sim.CallFn
	txFn            sim.CallFn
	deliverLocalFn  sim.CallFn
	deliverGlobalFn sim.CallFn
	cpFn            sim.CallFn
	resultFn        sim.CallFn
}

// netTelemetry is the emulation harness's own metric set, covering the
// layers the protocol packages cannot see: egress queues, the wire,
// and assembled-snapshot quality.
type netTelemetry struct {
	syncSpreadUS   *telemetry.Histogram
	queueDrops     *telemetry.Counter
	queueHighWater *telemetry.Gauge
	wireDrops      *telemetry.Counter
	injected       *telemetry.Counter
	delivered      *telemetry.Counter
	switchPkts     *telemetry.CounterVec
}

func newNetTelemetry(reg *telemetry.Registry) netTelemetry {
	return netTelemetry{
		syncSpreadUS: reg.Histogram("speedlight_net_sync_spread_us",
			"snapshot synchronization spread, earliest to latest notification (microseconds)", telemetry.LatencyBucketsUS),
		queueDrops:     reg.Counter("speedlight_net_queue_drops_total", "packets dropped at full egress queues"),
		queueHighWater: reg.Gauge("speedlight_net_queue_high_water", "deepest egress queue occupancy"),
		wireDrops:      reg.Counter("speedlight_net_wire_drops_total", "packets lost to injected link failures"),
		injected:       reg.Counter("speedlight_net_packets_injected_total", "packets injected from hosts"),
		delivered:      reg.Counter("speedlight_net_packets_delivered_total", "packets delivered to hosts"),
		switchPkts:     reg.CounterVec("speedlight_net_switch_packets_total", "wire arrivals per switch", "switch"),
	}
}

// buildEngine picks the serial or sharded engine and places scheduling
// domains: switch i of the topology is domain i+1 (see switchDomain),
// and the observer runs in its own domain right after the switches (see
// observerDomain).
// sim.GlobalDomain keeps only what truly serializes: drivers, recovery
// timers, and churn. On the sharded engine the cross-shard channel set
// is declared per pair — each ordered shard pair gets the minimum
// latency of the switch links that actually cross it as its lookahead —
// so shards synchronize against their real neighbors instead of a
// fleet-wide horizon.
func buildEngine(cfg *Config) (sim.Sim, error) {
	if cfg.Shards <= 1 {
		return sim.NewEngine(cfg.Seed), nil
	}
	shard := make(map[topology.NodeID]int, len(cfg.Topo.Switches))
	for i, sw := range cfg.Topo.Switches {
		shard[sw.ID] = i % cfg.Shards
	}
	// SetShardLinks below declares every pair the emulation sends on, so
	// the engine-wide default lookahead passed here is never consulted.
	p := sim.NewParallel(cfg.Seed, cfg.Shards, observerLatency)
	for _, sw := range cfg.Topo.Switches {
		p.Place(switchDomain(sw.ID), shard[sw.ID])
	}
	// The observer domain follows the same modulo placement rule as the
	// switches (it is "domain len(switches)+1"), so its shard assignment
	// is stable as topologies grow.
	obsShard := len(cfg.Topo.Switches) % cfg.Shards
	p.Place(observerDomain(cfg.Topo), obsShard)

	// Declare the actual cross-shard channel set. Each ordered shard
	// pair's lookahead is the minimum latency among the switch links
	// whose sender lands on the pair's source shard and receiver on its
	// destination shard — wire hops are the only switch-to-switch sends
	// and are scheduled with the sending port's latency, so that bound
	// is exact, not merely conservative. A pair needs positive lookahead,
	// so a zero-latency link may not cross shards.
	type shardPair struct{ from, to int }
	pairMin := make(map[shardPair]sim.Duration)
	declare := func(from, to int, l sim.Duration) {
		if from == to {
			return
		}
		pr := shardPair{from, to}
		if cur, ok := pairMin[pr]; !ok || l < cur {
			pairMin[pr] = l
		}
	}
	for _, sw := range cfg.Topo.Switches {
		for _, peer := range sw.Ports {
			if peer.Kind != topology.PeerSwitch {
				continue
			}
			if peer.Latency <= 0 && shard[sw.ID] != shard[peer.Node] {
				return nil, fmt.Errorf("emunet: link %d<->%d crosses shards with zero latency; sharded simulation needs positive cross-shard link latency", sw.ID, peer.Node)
			}
			declare(shard[sw.ID], shard[peer.Node], sim.Duration(peer.Latency))
		}
	}
	// Every switch shard reports snapshot results to the observer's
	// shard; those sends take exactly observerLatency, which is
	// therefore the pair's lookahead.
	for _, sw := range cfg.Topo.Switches {
		declare(shard[sw.ID], obsShard, observerLatency)
	}
	links := make([]sim.ShardLink, 0, len(pairMin))
	for pr, l := range pairMin {
		links = append(links, sim.ShardLink{From: pr.from, To: pr.to, Lookahead: l})
	}
	sort.Slice(links, func(a, b int) bool {
		if links[a].From != links[b].From {
			return links[a].From < links[b].From
		}
		return links[a].To < links[b].To
	})
	p.SetShardLinks(links)
	return p, nil
}

// switchDomain returns a switch's scheduling domain: the topology's
// node IDs are its switch indices, and domain 0 is sim.GlobalDomain.
func switchDomain(node topology.NodeID) int { return int(node) + 1 }

// observerDomain returns the scheduling domain that hosts the snapshot
// observer: the slot right after the last switch domain. Keeping the
// observer out of sim.GlobalDomain lets snapstore ingest, invariant
// evaluation, and epoch-trace stamping run on a shard worker instead of
// serializing on the coordinator.
func observerDomain(topo *topology.Topology) int { return len(topo.Switches) + 1 }

// New builds and wires the emulated network.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("emunet: nil topology")
	}
	cfg.setDefaults()
	if err := checkTxPacking(cfg.Topo); err != nil {
		return nil, err
	}
	eng, err := buildEngine(&cfg)
	if err != nil {
		return nil, err
	}
	if p, ok := eng.(*sim.Parallel); ok && cfg.Registry != nil {
		// Publish per-shard barrier wait/work counters. The wall clock
		// arrives as an injected func so this package stays free of
		// direct time reads; the profiler observes epochs without
		// perturbing the deterministic schedule.
		p.EnableBarrierMetrics(cfg.Registry, telemetry.NowNs)
	}

	n := &Network{
		cfg:     cfg,
		eng:     eng,
		gproc:   eng.Proc(sim.GlobalDomain),
		obsDom:  observerDomain(cfg.Topo),
		sws:     make([]*EmuSwitch, len(cfg.Topo.Switches)),
		syncs:   make(map[packet.SeqID]*syncWindow),
		gauges:  make(map[dataplane.UnitID]*counters.Gauge),
		tel:     newNetTelemetry(cfg.Registry),
		central: packet.NewCentral(),
	}
	n.obsProc = eng.Proc(n.obsDom)
	n.dpool = n.central.NewPool()
	n.arriveFn = n.arriveCall
	n.txFn = n.txCall
	n.deliverLocalFn = n.deliverLocalCall
	n.deliverGlobalFn = n.deliverGlobalCall
	n.cpFn = n.cpCall
	n.resultFn = n.resultCall

	var metrics dataplane.MetricFactory
	if cfg.Metrics != nil {
		metrics = func(id dataplane.UnitID) core.Metric { return cfg.Metrics(n, id) }
	}
	// Every assembled snapshot completes into the sink in the observer's
	// domain.
	n.Fabric, err = node.NewFabric(node.FabricConfig{
		Topo: cfg.Topo, Registry: cfg.Registry, RetryAfter: cfg.RetryAfter, ExcludeAfter: cfg.ExcludeAfter,
		Sink: &node.Sink{Journal: cfg.Journal, OnAnomaly: cfg.OnAnomaly, Snapstore: cfg.Snapstore, Invariants: cfg.Invariants},
		DP: dataplane.Config{MaxID: cfg.MaxID, WrapAround: cfg.WrapAround, ChannelState: cfg.ChannelState,
			NumCoS: cfg.NumCoS, Metrics: metrics, NotifCapacity: cfg.NotifCapacity},
		Spread: n.spread,
		Attach: n.attach,
	})
	if err != nil {
		return nil, err
	}

	// Start the clock discipline tickers, in topology order for
	// deterministic event sequencing. Each clock ticks in its own
	// switch's domain: the clock is switch state.
	for id, es := range n.sws {
		es.Switch = n.Fabric.Switch(topology.NodeID(id))
		es.proc.NewTicker(sim.Duration(es.Clock.SyncInterval()), func() { es.Clock.Sync(es.proc.Now()) })
	}

	// Observer recovery ticker: global-domain, so relay may touch any
	// switch's state (workers are parked while it runs).
	if cfg.RetryAfter > 0 || cfg.ExcludeAfter > 0 {
		relay := n.relay
		n.gproc.NewTicker(sim.Millisecond, func() { n.Retries(n.gproc.Now(), relay) })
	}
	return n, nil
}

// attach is the Fabric's Attach, run before each build of a switch's
// planes. The first build makes the EmuSwitch — registered and queued
// before its planes exist, since metric factories ask for the switch's
// Proc and its queues' depth gauges — and every build, a reboot's too,
// draws the switch's balancer and fills its per-switch data-plane
// fields. The engine's RNG draws (the switch's own, the balancer's, the
// clock's, in that order) land in the global total order: initial
// construction runs in the driver, SetSwitchUp in a global-domain event.
func (n *Network) attach(spec *topology.Switch, dp *dataplane.Config) (node.Host, func(control.Result), error) {
	cfg := &n.cfg
	es := n.sws[spec.ID]
	if es == nil {
		es = n.newSwitch(spec)
	}
	if cfg.NewBalancer != nil {
		dp.Balancer = cfg.NewBalancer(spec.ID, n.eng.NewRand())
	}
	if es.Clock == nil { // the first build's
		es.Clock = clock.New(cfg.Clock, n.eng.NewRand())
	}
	dp.SnapshotDisabled = cfg.SnapshotDisabled[spec.ID]
	// Record synchronization windows at export time, while the unit's
	// unwrapped state still matches the notification. Only
	// progress-relevant notifications count: snapshot ID advances, and
	// last-seen advances on channels that gate completion (structurally
	// idle channels only ever advance via recovery markers, long after
	// the snapshot instant).
	dp.OnNotify = func(notif dataplane.CPUNotification) {
		unit := es.DP.Unit(notif.Unit)
		if notif.SIDChanged() {
			n.recordSync(unit.CurrentSID(), notif.Exported)
		} else if notif.LastSeenChanged() && es.CP.Gates(notif.Unit, notif.Channel) {
			n.recordSync(unit.LastSeenUnwrapped(notif.Channel), notif.Exported)
		}
	}
	// The switch drives its halves of the step itself: no Host.
	return nil, func(res control.Result) { n.toObserver(es, res) }, nil
}

// newSwitch makes and registers the EmuSwitch around spec's planes.
func (n *Network) newSwitch(spec *topology.Switch) *EmuSwitch {
	cfg, id := &n.cfg, spec.ID
	es := &EmuSwitch{Node: id, spec: spec, dom: switchDomain(id), rng: n.eng.NewRand()}
	es.proc = n.eng.Proc(es.dom)
	n.sws[id] = es
	es.queues = make([]*portQueue, len(spec.Ports))
	for i, peer := range spec.Ports {
		q := &portQueue{perCoS: make([]pktFIFO, cfg.NumCoS), rate: peer.RateBps}
		if q.rate == 0 {
			q.rate = defaultLinkRateBps
		}
		q.depth = n.gauges[dataplane.UnitID{Node: id, Port: i, Dir: dataplane.Egress}]
		es.queues[i] = q
	}
	es.cpService = cfg.serviceTime(id)
	es.pkts = n.tel.switchPkts.With(fmt.Sprint(id))
	es.linkDown = make([]bool, len(spec.Ports))
	es.ppool = n.central.NewPool()
	return es
}

// spread is the Fabric's Spread: a snapshot's SyncSpread, recorded in
// the sync-spread histogram when it has one.
func (n *Network) spread(id packet.SeqID) sim.Duration {
	sync, ok := n.SyncSpread(id)
	if ok {
		n.tel.syncSpreadUS.Observe(sync.Micros())
	}
	return sync
}

// Engine exposes the simulation engine for workload drivers and tests.
// Drivers run in the engine's global domain: callbacks they schedule
// directly on the engine are serialized with respect to every shard.
func (n *Network) Engine() sim.Sim { return n.eng }

// Proc returns a switch's scheduling handle. Events scheduled through
// it run in that switch's domain — on its shard, in deterministic
// order with the switch's own work. Use it for per-switch driver loops
// that must scale with shards (a driver on Engine() serializes), and
// as the clock source of metrics attached to the switch's units.
func (n *Network) Proc(node topology.NodeID) sim.Proc {
	es := n.Switch(node)
	if es == nil {
		panic(fmt.Sprintf("emunet: unknown switch %d", node))
	}
	return es.proc
}

// HostProc returns the scheduling handle of the switch a host hangs
// off — the domain an independent per-host traffic source should run
// in (see InjectFrom).
func (n *Network) HostProc(host topology.HostID) sim.Proc {
	h := n.cfg.Topo.Host(host)
	if h == nil {
		panic(fmt.Sprintf("emunet: unknown host %d", host))
	}
	return n.sws[h.Node].proc
}

// Topo returns the network topology.
func (n *Network) Topo() *topology.Topology { return n.cfg.Topo }

// Switch returns one emulated switch, or nil for an unknown node. sws
// parallels topo.Switches, so the topology's lookup is the bounds check.
func (n *Network) Switch(node topology.NodeID) *EmuSwitch {
	if n.cfg.Topo.Switch(node) == nil {
		return nil
	}
	return n.sws[node]
}

// Unit returns a processing unit anywhere in the network.
func (n *Network) Unit(id dataplane.UnitID) *core.Unit {
	return n.sws[id.Node].DP.Unit(id)
}

// Gauge returns the queue-depth gauge registered for a unit, creating
// it on first use. Metric factories use this to wire egress queue depth
// into snapshots: an egress unit's gauge follows its port's queue. An
// ingress unit's gauge is the caller's to set.
func (n *Network) Gauge(id dataplane.UnitID) *counters.Gauge {
	g, ok := n.gauges[id]
	if !ok {
		g = &counters.Gauge{}
		n.gauges[id] = g
		if es := n.Switch(id.Node); es != nil && id.Dir == dataplane.Egress && id.Port >= 0 && id.Port < len(es.queues) {
			es.queues[id.Port].depth = g
		}
	}
	return g
}

// EWMAMetrics is a Config.Metrics factory: an EWMA of packet
// interarrival time (Section 8's primary counter) on every egress unit
// and a packet counter on every ingress unit.
func EWMAMetrics(net *Network, id dataplane.UnitID) core.Metric {
	if id.Dir != dataplane.Egress {
		return &counters.PacketCount{}
	}
	// Clock from the unit's own domain: under shards the engine-wide
	// clock lags shard-local virtual time.
	proc := net.Proc(id.Node)
	return counters.NewEWMAInterarrival(func() int64 { return int64(proc.Now()) })
}

// Units lists every processing unit in the network, in topology order:
// the sweep of a polling framework that reads every counter.
func (n *Network) Units() []dataplane.UnitID {
	var out []dataplane.UnitID
	for _, sw := range n.cfg.Topo.Switches {
		out = append(out, n.sws[sw.ID].DP.UnitIDs()...)
	}
	return out
}

// UplinkUnits returns, per leaf, the egress units of its uplink ports:
// the groups the load-balancing analyses compare (Section 8.3 compares
// uplinks only with other uplinks of the same switch).
func UplinkUnits(ls *topology.LeafSpine) [][]dataplane.UnitID {
	groups := make([][]dataplane.UnitID, len(ls.Leaves))
	for i, leaf := range ls.Leaves {
		for _, port := range ls.UplinkPorts(leaf) {
			groups[i] = append(groups[i], dataplane.UnitID{Node: leaf, Port: port, Dir: dataplane.Egress})
		}
	}
	return groups
}

// EpochTraces reconstructs per-epoch causal traces (wavefront, span
// tree, critical path) from the journal. Nil when journaling is
// disabled. Driver context only — the reconstruction reads the merged
// journal.
func (n *Network) EpochTraces() []*epochtrace.EpochTrace {
	if n.cfg.Journal == nil {
		return nil
	}
	return epochtrace.Build(n.cfg.Journal.Events())
}

// BarrierProfile returns the sharded engine's cumulative per-shard
// work/wait split, or nil on a serial engine or when no Registry was
// configured. Driver context only.
func (n *Network) BarrierProfile() []sim.BarrierShardStats {
	if p, ok := n.eng.(*sim.Parallel); ok {
		return p.BarrierProfile()
	}
	return nil
}

// BlockedProfile returns the sharded engine's per-pair stall
// attribution in the epoch-trace rollup's wire form, most blocking
// waiter→holdup pair first. Nil on a serial engine or when no
// Registry was configured. Driver context only.
func (n *Network) BlockedProfile() []epochtrace.ShardBlocking {
	p, ok := n.eng.(*sim.Parallel)
	if !ok {
		return nil
	}
	prof := p.BlockedProfile()
	if len(prof) == 0 {
		return nil
	}
	out := make([]epochtrace.ShardBlocking, len(prof))
	for i, b := range prof {
		out[i] = epochtrace.ShardBlocking{Waiter: b.Waiter, Holdup: b.Holdup, WaitNs: b.WaitNs}
	}
	return out
}

// Registry returns the telemetry registry the network was built with,
// or nil when telemetry is disabled.
func (n *Network) Registry() *telemetry.Registry { return n.cfg.Registry }

// NotifDropsTotal sums dropped notifications across all switches.
func (n *Network) NotifDropsTotal() uint64 {
	var total uint64
	for _, es := range n.sws {
		total += es.DP.NotifDrops()
	}
	return total
}

// WireDrops returns packets lost to injected link loss.
func (n *Network) WireDrops() uint64 { return n.wireDrops.Load() }

// ChurnDrops returns packets eaten by fabric churn: arrivals at a down
// switch and transmissions onto a drained link.
func (n *Network) ChurnDrops() uint64 { return n.churnDrops.Load() }

// QueueDropsTotal sums packets dropped at full egress queues.
func (n *Network) QueueDropsTotal() uint64 {
	var total uint64
	for _, es := range n.sws {
		for p := range es.queues {
			total += es.queues[p].drops
		}
	}
	return total
}

// SyncSpread returns the synchronization of snapshot id: the difference
// between the earliest and latest data-plane notification timestamps
// carrying that ID (Section 8.1). The second result is false when no
// notifications for the ID were observed.
func (n *Network) SyncSpread(id packet.SeqID) (sim.Duration, bool) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	w, ok := n.syncs[id]
	if !ok || w.count == 0 {
		return 0, false
	}
	return w.max.Sub(w.min), true
}

// recordSync folds a notification timestamp into the snapshot's
// synchronization window. Called from switch domains on concurrent
// shards; everything it records is order-independent (min, max and a
// count).
func (n *Network) recordSync(id packet.SeqID, at sim.Time) {
	if n.cfg.OnProgress != nil {
		n.cfg.OnProgress(id, at)
	}
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	w, ok := n.syncs[id]
	if !ok {
		w = &syncWindow{min: at, max: at}
		n.syncs[id] = w
	}
	if at < w.min {
		w.min = at
	}
	if at > w.max {
		w.max = at
	}
	w.count++
}

// InjectFromHost delivers a packet from a host into its leaf switch at
// the current virtual time plus the host link latency. Call it from
// driver or global-domain context; per-host traffic sources that should
// scale with shards use InjectFrom with the host's own proc instead.
func (n *Network) InjectFromHost(host topology.HostID, pkt *packet.Packet) {
	n.InjectFrom(n.gproc, host, pkt)
}

// InjectFrom delivers a packet from a host into its leaf switch using
// the given scheduling handle. p must be either the global proc or the
// host's own switch proc (HostProc) — i.e. the domain the calling event
// runs in.
//
//speedlight:pool-transfer pkt
func (n *Network) InjectFrom(p sim.Proc, host topology.HostID, pkt *packet.Packet) {
	h := n.cfg.Topo.Host(host)
	if h == nil {
		panic(fmt.Sprintf("emunet: unknown host %d", host))
	}
	pkt.SrcHost = uint32(host)
	n.tel.injected.Inc()
	if n.cfg.OnInject != nil {
		n.cfg.OnInject(pkt, host, p.Now())
	}
	es := n.sws[h.Node]
	p.SendCall(es.dom, sim.Duration(h.Latency), n.arriveFn, es, pkt, int64(h.Port))
}

// NewPacket returns a zeroed pool-owned packet for injection from
// driver or global-domain context. Ownership passes to the network at
// InjectFrom*; the packet is recycled at its terminal point (host
// delivery or any drop), so the caller — including OnInject/OnDeliver
// hooks — must not retain it past the hand-off. Packets built directly
// with &packet.Packet{...} remain outside the pool and are never
// recycled.
func (n *Network) NewPacket() *packet.Packet { return n.dpool.Get() }

// NewPacketFor is NewPacket for a per-host traffic source running in
// the host's own switch domain (InjectFrom with HostProc): the packet
// comes from that switch's pool, which the calling context owns.
func (n *Network) NewPacketFor(host topology.HostID) *packet.Packet {
	h := n.cfg.Topo.Host(host)
	if h == nil {
		panic(fmt.Sprintf("emunet: unknown host %d", host))
	}
	return n.sws[h.Node].ppool.Get()
}

// arriveCall, txCall, deliverLocalCall, deliverGlobalCall and cpCall
// are the closure-free event callbacks behind the per-packet schedules
// (bound once into the *Fn fields at construction).
//
//speedlight:pool-transfer b
//speedlight:shard
func (n *Network) arriveCall(a, b any, i int64) {
	n.arrive(a.(*EmuSwitch), b.(*packet.Packet), int(i))
}

// arrive handles a packet arriving at a switch port from the wire.
// Runs in es's domain.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) arrive(es *EmuSwitch, pkt *packet.Packet, port int) {
	if es.down || es.linkDown[port] {
		// The switch left the fabric (or the ingress link was drained)
		// while this packet was on the wire: the wire eats it. The Put
		// keeps teardown leak-free — every in-flight pooled packet
		// still reaches a pool.
		n.churnDrops.Add(1)
		es.ppool.Put(pkt)
		return
	}
	es.pkts.Inc()
	out, ok := es.Ingress(pkt, port, es.proc.Now())
	n.drainNotifs(es)
	if !ok {
		es.ppool.Put(pkt)
		return
	}
	n.enqueue(es, pkt, out)
}

// enqueue places a packet into an egress queue, dropping at capacity,
// and starts the transmitter if idle.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) enqueue(es *EmuSwitch, pkt *packet.Packet, port int) {
	q := es.queues[port]
	if q.length() >= n.cfg.QueueCapacity {
		q.drops++
		n.tel.queueDrops.Inc()
		es.ppool.Put(pkt)
		return
	}
	cos := int(pkt.CoS)
	if cos >= len(q.perCoS) {
		cos = len(q.perCoS) - 1
	}
	q.perCoS[cos].push(pkt)
	q.queued++
	n.tel.queueHighWater.SetMax(int64(q.length()))
	q.setDepth()
	if !q.txScheduled {
		q.txScheduled = true
		n.scheduleTx(es, port)
	}
}

// A transmit event's argument packs gen<<20 | port<<8 | cos (scheduleTx
// encodes, txCall decodes).
const (
	txCoSBits  = 8
	txPortBits = 12
)

// checkTxPacking rejects a switch whose transmit events would not
// round-trip: a port past its field would decode as another queue's.
// The class field needs no check here — dataplane.New holds NumCoS to
// the packet header's 4 bits.
func checkTxPacking(topo *topology.Topology) error {
	for _, sw := range topo.Switches {
		if len(sw.Ports) > 1<<txPortBits {
			return fmt.Errorf("emunet: switch %d has %d ports: the transmit event holds ports below %d", sw.ID, len(sw.Ports), 1<<txPortBits)
		}
	}
	return nil
}

// scheduleTx arms the transmitter for the current head-of-line packet.
// The chosen class rides in the event (its low txCoSBits): strict
// priority is decided when the transmitter is armed, and FIFO order
// within a class guarantees the class's head at fire time is the
// same packet that was priced here. The switch generation makes events
// armed before a churn teardown inert — after a down/up cycle the
// queues were flushed, so a stale pop would dequeue (or double-price)
// a packet the flush already recycled.
//
//speedlight:hotpath
func (n *Network) scheduleTx(es *EmuSwitch, port int) {
	q := es.queues[port]
	cos := q.head()
	if cos < 0 {
		q.txScheduled = false
		return
	}
	head := q.perCoS[cos].peek()
	es.proc.AfterCall(q.serialization(head.Size),
		n.txFn, es, nil, es.gen<<(txPortBits+txCoSBits)|int64(port)<<txCoSBits|int64(cos))
}

// txCall fires when the head-of-line packet finishes serializing: pop
// it, run egress, and re-arm for the next head. An event carrying a
// stale switch generation no-ops (see scheduleTx).
//
//speedlight:hotpath
//speedlight:shard
func (n *Network) txCall(a, _ any, i int64) {
	es := a.(*EmuSwitch)
	if i>>(txPortBits+txCoSBits) != es.gen {
		return
	}
	port, cos := int(i>>txCoSBits)&(1<<txPortBits-1), int(i)&(1<<txCoSBits-1)
	q := es.queues[port]
	head := q.perCoS[cos].pop()
	q.queued--
	q.setDepth()
	n.transmit(es, head, port)
	n.scheduleTx(es, port)
}

// transmit runs the egress unit and delivers the packet to the port's
// peer. Runs in es's domain; the wire hop to a neighboring switch is a
// cross-domain send whose latency is what the parallel engine's
// lookahead is derived from.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) transmit(es *EmuSwitch, pkt *packet.Packet, port int) {
	ok := es.Egress(pkt, port, es.proc.Now())
	n.drainNotifs(es)
	if !ok {
		es.ppool.Put(pkt)
		return
	}
	peer := &es.spec.Ports[port]
	switch peer.Kind {
	case topology.PeerSwitch:
		// Markers ride the wire like data, subject to the same injected
		// loss — the next recovery round resends them.
		n.wireHop(es, pkt, port, peer)
	case topology.PeerHost:
		if n.cfg.OnDeliver != nil {
			// Serialize hook invocations (and their order) through the
			// global domain; the packet's pooled life ends in driver
			// context after the hook returns.
			es.proc.SendCall(sim.GlobalDomain, sim.Duration(peer.Latency),
				n.deliverGlobalFn, nil, pkt, int64(peer.Host))
		} else {
			es.proc.AfterCall(sim.Duration(peer.Latency),
				n.deliverLocalFn, es, pkt, 0)
		}
	default:
		// Egress onto an unwired port (PeerNone): the wire eats the
		// packet. Recycle it — before poolown, this path leaked the
		// pooled packet silently.
		es.ppool.Put(pkt)
	}
}

// deliverLocalCall is host delivery with no OnDeliver hook: count it
// and recycle the packet in the delivering switch's domain.
//
//speedlight:hotpath
//speedlight:pool-transfer b
//speedlight:shard
func (n *Network) deliverLocalCall(a, b any, _ int64) {
	n.tel.delivered.Inc()
	a.(*EmuSwitch).ppool.Put(b.(*packet.Packet))
}

// deliverGlobalCall is host delivery serialized through the global
// domain for the OnDeliver hook; the packet dies into the driver pool.
//
//speedlight:pool-transfer b
func (n *Network) deliverGlobalCall(_, b any, i int64) {
	pkt := b.(*packet.Packet)
	n.tel.delivered.Inc()
	n.cfg.OnDeliver(pkt, topology.HostID(uint32(i)), n.gproc.Now())
	n.dpool.Put(pkt)
}

// wireHop carries a packet across a switch-to-switch link, subject to
// injected loss. Runs in es's domain; arrival runs in the neighbor's.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) wireHop(es *EmuSwitch, pkt *packet.Packet, port int, peer *topology.Peer) {
	if es.linkDown[port] {
		// Administratively drained link: the wire is cut, so anything
		// the queue still pushes onto it is eaten deterministically
		// (no RNG draw — loss sampling stays aligned across engines).
		n.churnDrops.Add(1)
		es.ppool.Put(pkt)
		return
	}
	if n.cfg.LinkLossProb > 0 && es.rng.Float64() < n.cfg.LinkLossProb {
		n.wireDrops.Add(1)
		n.tel.wireDrops.Inc()
		es.ppool.Put(pkt)
		return
	}
	next := n.sws[peer.Node]
	es.proc.SendCall(next.dom, sim.Duration(peer.Latency),
		n.arriveFn, next, pkt, int64(peer.Port))
}

// drainNotifs moves data-plane notifications toward the switch CPU: if
// the control plane is idle, start its processing loop. The data
// plane's bounded queue is the socket buffer; the loop drains it one
// notification per service time, so a sustained notification rate above
// the service rate builds the queue up and eventually drops (Figure 10).
//
//speedlight:hotpath
func (n *Network) drainNotifs(es *EmuSwitch) {
	if es.cpBusy || es.DP.PendingNotifs() == 0 {
		return
	}
	es.cpBusy = true
	lat := sim.Duration(cpNotifLatency.Sample(es.rng))
	es.proc.AfterCall(lat, n.cpFn, es, nil, es.gen)
}

// cpCall dispatches the CP processing loop's closure-free events. The
// switch generation rides in i: a loop event armed before a churn
// teardown must not drive the rebooted control plane.
//
//speedlight:shard
func (n *Network) cpCall(a, _ any, i int64) {
	es := a.(*EmuSwitch)
	if i != es.gen {
		return
	}
	n.cpProcessOne(es)
}

// cpProcessOne handles one notification and reschedules itself while
// work remains.
func (n *Network) cpProcessOne(es *EmuSwitch) {
	notif, ok := es.DP.PopNotif()
	if !ok {
		es.cpBusy = false
		return
	}
	es.CP.HandleNotification(notif, es.proc.Now())
	svc := sim.Duration(es.cpService.Sample(es.rng))
	es.proc.AfterCall(svc, n.cpFn, es, nil, es.gen)
}

// toObserver is every switch's OnResult: the result takes the next slot
// of the switch's outbox and crosses to the observer's domain as one
// closure-free send, landing serialized there without touching the
// coordinator. A Poll from the global domain sends through the same
// proc, so its results keep the switch's order.
//
//speedlight:hotpath
func (n *Network) toObserver(es *EmuSwitch, res control.Result) {
	if es.out.cur == nil || es.out.next == len(es.out.cur) {
		es.out.refill()
	}
	es.out.cur[es.out.next] = res
	es.proc.SendCall(n.obsDom, observerLatency, n.resultFn, es.out.cur, es, int64(es.out.next))
	es.out.next++
}

// resultCall delivers the result in slot i of chunk a to the observer;
// reading a chunk's last slot hands the chunk back to switch b.
//
//speedlight:hotpath
//speedlight:shard
func (n *Network) resultCall(a, b any, i int64) {
	c := a.(*resultChunk)
	n.Result(c[i], n.obsProc.Now())
	if i == int64(len(c)-1) {
		b.(*EmuSwitch).out.spare.Store(c)
	}
}

// ScheduleSnapshot asks the observer to start a snapshot at the given
// local-clock deadline on every control plane. Each control plane fires
// when its own clock reads the deadline — clock error plus scheduling
// jitter is exactly what the synchronization experiments measure.
func (n *Network) ScheduleSnapshot(localDeadline sim.Time) (packet.SeqID, error) {
	id, _, err := n.Begin(n.eng.Now())
	if err != nil {
		return 0, err
	}
	for _, es := range n.sws {
		// A switch out of the fabric is out of the observer's snapshot
		// set too, so the snapshot neither initiates there nor waits for
		// it.
		if !n.cfg.SnapshotDisabled[es.Node] && !es.down {
			n.initiateAt(es, id, localDeadline)
		}
	}
	return id, nil
}

// SnapshotSeries is the campaign loop behind every measured figure of
// Section 8: count times it arms fire one gap ahead and runs that gap,
// then runs drain so stragglers finish, and returns the IDs fire
// scheduled, in order. fire gets the global clock at its instant; it
// schedules the snapshot (ScheduleSnapshot a lead ahead, typically) and
// starts whatever shares the instant, such as a poll sweep. A snapshot
// the observer's no-lapping window refuses is skipped.
//
// The arm-then-run order is load-bearing: event sequence numbers and
// RNG draws, hence every reproduced digit, depend on it.
func (n *Network) SnapshotSeries(count int, gap, drain sim.Duration, fire func(now sim.Time) (packet.SeqID, error)) []packet.SeqID {
	ids := make([]packet.SeqID, 0, count)
	for i := 0; i < count; i++ {
		n.eng.After(gap, func() {
			if id, err := fire(n.eng.Now()); err == nil {
				ids = append(ids, id)
			}
		})
		n.eng.RunFor(gap)
	}
	n.eng.RunFor(drain)
	return ids
}

// Completed returns the snapshots among ids that have completed, in
// the order of ids.
func (n *Network) Completed(ids []packet.SeqID) []*observer.GlobalSnapshot {
	done := n.Snapshots()
	byID := make(map[packet.SeqID]*observer.GlobalSnapshot, len(done))
	for _, g := range done {
		byID[g.ID] = g
	}
	out := make([]*observer.GlobalSnapshot, 0, len(ids))
	for _, id := range ids {
		if g, ok := byID[id]; ok {
			out = append(out, g)
		}
	}
	return out
}

// SyncSpreadsMicros returns the SyncSpread, in microseconds, of every
// snapshot among ids that has one, in the order of ids.
func (n *Network) SyncSpreadsMicros(ids []packet.SeqID) []float64 {
	var out []float64
	for _, id := range ids {
		if d, ok := n.SyncSpread(id); ok {
			out = append(out, d.Micros())
		}
	}
	return out
}

// initiateAt arms one control plane's initiation of snapshot id for the
// moment its own clock reads localDeadline, plus scheduling jitter. The
// initiation runs in the switch's own domain.
func (n *Network) initiateAt(es *EmuSwitch, id packet.SeqID, localDeadline sim.Time) {
	trueAt := es.Clock.TrueAtLocal(localDeadline)
	if trueAt < n.eng.Now() {
		trueAt = n.eng.Now()
	}
	jitter := sim.Duration(initiationLatency.Sample(es.rng))
	n.gproc.SendAt(es.dom, trueAt.Add(jitter), func() { n.initiate(es, id) })
}

// ScheduleSnapshotSingle is the single-initiator ablation: only the
// given switch's control plane initiates; every other device learns the
// new epoch from the snapshot IDs piggybacked on transit traffic, as in
// a classical single-initiator Chandy-Lamport run. Consistency is
// unaffected; what degrades is synchronization, which now includes the
// propagation time of the epoch through the network — the comparison
// that motivates the paper's multi-initiator design.
func (n *Network) ScheduleSnapshotSingle(node topology.NodeID, localDeadline sim.Time) (packet.SeqID, error) {
	id, _, err := n.Begin(n.eng.Now())
	if err != nil {
		return 0, err
	}
	es := n.Switch(node)
	if es == nil || n.cfg.SnapshotDisabled[node] || es.down {
		return 0, fmt.Errorf("emunet: switch %d cannot initiate", node)
	}
	n.initiateAt(es, id, localDeadline)
	return id, nil
}

// initiate runs a control-plane snapshot initiation on one switch:
// every ingress unit processes the initiation message, which then
// follows the same egress queues as data traffic (FIFO order matters;
// Section 6). Runs in es's domain, or in the global domain during
// recovery (workers parked, so touching es is safe either way).
//
//speedlight:hotpath
//speedlight:shard
func (n *Network) initiate(es *EmuSwitch, id packet.SeqID) {
	if es.down {
		// The switch left the fabric between scheduling and firing;
		// the observer's recovery machinery will exclude it (§6).
		return
	}
	inits := es.CP.Initiate(id, es.proc.Now())
	n.drainNotifs(es)
	for _, init := range inits {
		// The packet is the data plane's until its port's next
		// initiation; the queue keeps a copy from the switch's pool,
		// which the egress drop (or a queue flush) returns.
		n.enqueue(es, es.ppool.Clone(init.Pkt), init.Port)
	}
}

// relay is the recovery relay the global-domain ticker hands
// Fabric.Retries: re-initiation, a register poll to recover dropped
// notifications, and (in the channel-state variant) a marker broadcast
// to force ID propagation on idle channels. A down switch is
// unreachable; the exclusion timer keeps running and will cut it out.
//
//speedlight:global-only
func (n *Network) relay(dev topology.NodeID, id packet.SeqID) {
	es := n.sws[dev]
	if es.down {
		return
	}
	n.initiate(es, id)
	es.CP.Poll(n.gproc.Now())
	if n.cfg.ChannelState {
		node.FloodMarkers(es.DP, es.proc.Now(), markerSink{n, es})
	}
}

// markerSink feeds the Section 6 marker flood into one switch's
// notification path and its real egress queues: the FIFO queues
// guarantee any genuinely in-flight packets are seen first, so the
// marker's ID advance is truthful on every internal channel. Each egress
// copy then crosses one wire hop, refreshing the neighbors' external
// channels.
type markerSink struct {
	n  *Network
	es *EmuSwitch
}

func (m markerSink) Drain()                              { m.n.drainNotifs(m.es) }
func (m markerSink) Egress(pkt *packet.Packet, port int) { m.n.enqueue(m.es, pkt, port) }

// RunFor advances the emulation.
func (n *Network) RunFor(d sim.Duration) { n.eng.RunFor(d) }
