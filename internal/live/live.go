// Package live runs a Speedlight deployment as real concurrent Go:
// every switch is a goroutine owning its data plane and control plane,
// a link is a put into the neighbour's mailbox — a bounded,
// mutex-guarded inbox its goroutine empties a burst at a time — and the
// snapshot observer runs in its own goroutine with wall-clock
// initiation timers.
//
// The deployment itself — routes, completion gates, one node.Switch per
// topology node, the snapshot collector and the recovery relay — is a
// node.Fabric, the same one package wire builds. What is written here is
// what a goroutine transport adds: the mailboxes, the switch and
// observer goroutines, and Inject's back-pressure.
//
// The protocol logic is exactly the same state-machine code the
// discrete-event simulation drives (internal/core, internal/control,
// internal/observer); this runtime demonstrates it under genuine
// asynchrony — goroutine scheduling, real queueing in the mailboxes,
// and wall-clock time — the way a deployment across real switch CPUs
// would run it. Experiments use the simulator for reproducibility; this
// package is the "production shaped" engine.
package live

import (
	"fmt"
	"os"
	"sync"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// Config parameterizes a live network.
type Config struct {
	// Topo is the network topology. Required.
	Topo *topology.Topology

	// Snapshot protocol parameters (defaults: 256, wraparound on,
	// channel state off).
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// Metrics builds each unit's snapshot target; nil defaults to
	// packet counters.
	Metrics func(id dataplane.UnitID) core.Metric

	// OnDeliver observes packets reaching hosts. Called from switch
	// goroutines; must be safe for concurrent use.
	OnDeliver func(pkt *packet.Packet, host topology.HostID)

	// RetryEvery re-initiates incomplete snapshots (liveness). Default
	// 20ms; negative disables.
	RetryEvery time.Duration

	// Registry, when set, enables telemetry across every layer of the
	// deployment. Nil disables instrumentation at zero hot-path cost.
	Registry *telemetry.Registry
	// MetricsAddr, when non-empty, serves the observability endpoints
	// (Prometheus /metrics, expvar /debug/vars, /debug/pprof, /healthz,
	// /readyz, and — when journaling is on — /journal, /audit and
	// /trace) on this address from Start until Stop. A Registry is
	// created automatically if none was provided.
	MetricsAddr string

	// Journal, when set, records every protocol event into per-switch
	// flight-recorder rings (internal/journal). The rings are lock-free
	// and safe for the concurrent switch goroutines. Nil disables
	// journaling at zero hot-path cost.
	Journal *journal.Set
	// OnAnomaly receives a flight-recorder dump (the last 512 journal
	// events) whenever a snapshot finalizes inconsistent or with
	// excluded devices. Called with the collector's lock held; must not
	// call back into the network.
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)

	// Snapstore, when set, ingests every completed global snapshot as a
	// sealed delta-encoded epoch (internal/snapstore). Ingestion runs on
	// the observer goroutine; with MetricsAddr set the query plane is
	// served at /snapshots, and a readiness check flips /readyz when
	// ingestion lags the observer by more than node.SnapstoreLagMax
	// epochs.
	Snapstore *snapstore.Store
	// Invariants, when set, streams every epoch sealed into Snapstore
	// through the registered invariants (internal/invariant); each
	// violation fires OnAnomaly with a flight-recorder dump, and with
	// MetricsAddr set the status endpoint is served at /invariants.
	// Requires Snapstore.
	Invariants *invariant.Engine
}

// inboxDepth bounds the packets waiting in each switch's mailbox: the
// link buffer a full switch drops into (see liveSwitch.Forward).
const inboxDepth = 4096

// event is one unit of work for a switch goroutine, queued in its
// mailbox.
type event struct {
	kind eventKind
	pkt  *packet.Packet
	port int
	// initiation
	snapshotID packet.SeqID
	// markers asks the initiation to also inject marker broadcasts, the
	// Section 6 liveness mechanism for traffic-free channels (used on
	// recovery retries in channel-state mode).
	markers bool
	// poll request
	done chan struct{}
}

type eventKind int

const (
	evPacket eventKind = iota
	evInitiate
	evPoll
)

// mailbox is a switch's inbox: many producers, one consumer. Producers
// append under mu; the switch goroutine takes the whole backlog in one
// swap, so it pays one lock per burst and none per event, and no two
// switches share a lock — which a receive that also selects on the
// network-wide stop channel would take, per event, on every switch.
type mailbox struct {
	mu sync.Mutex
	q  []event
	// wake holds a token whenever q went from empty to not: what the
	// consumer parks on. A stale token costs it one empty take.
	wake chan struct{}
	// room gets a token when a full backlog is taken: what an Inject
	// refused by put parks on.
	room chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1), room: make(chan struct{}, 1)}
}

// put queues ev and returns the depth it reached, or 0 for a packet
// refused because inboxDepth events already wait. Control events are
// always admitted: the observer's no-lapping ID window bounds them, and
// it asks for a retry only once. The wake token goes out after Unlock:
// nothing blocks, or is sent, under mu.
//
//speedlight:hotpath
func (m *mailbox) put(ev event) int {
	m.mu.Lock()
	depth := len(m.q)
	if ev.kind == evPacket && depth >= inboxDepth {
		m.mu.Unlock()
		return 0
	}
	m.q = append(m.q, ev)
	m.mu.Unlock()
	if depth == 0 {
		signal(m.wake)
	}
	return depth + 1
}

// take returns everything queued, in put order, and leaves spare (the
// previous burst, now processed) as the queue's storage.
//
//speedlight:hotpath
func (m *mailbox) take(spare []event) []event {
	clear(spare) // drop the packets it still points to
	m.mu.Lock()
	burst := m.q
	m.q = spare[:0]
	m.mu.Unlock()
	if len(burst) >= inboxDepth {
		signal(m.room)
	}
	return burst
}

// signal leaves a token in a 1-buffered channel unless one is there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// liveSwitch is one switch goroutine's state, and the node.Host of the
// switch it runs.
type liveSwitch struct {
	net   *Network
	spec  *topology.Switch
	sw    *node.Switch
	inbox *mailbox
	// events counts this switch goroutine's processed events
	// (per-switch throughput).
	events *telemetry.Counter
}

// put queues ev for the switch and books the depth the mailbox
// reached; false means a full mailbox refused the packet.
func (ls *liveSwitch) put(ev event) bool {
	depth := ls.inbox.put(ev)
	ls.net.tel.inboxHighWater.SetMax(int64(depth))
	return depth > 0
}

// Network is a running live deployment.
type Network struct {
	cfg  Config
	topo *topology.Topology
	sws  []*liveSwitch // by NodeID

	// Fabric is the deployment itself: the switches the goroutines drive
	// and the collector that assembles their snapshots into sink. It
	// brings Switch, Journal, Audit, Snapshots and CompletedEpochs.
	// Results reach it through obsEvents — the network path from switch
	// CPU to observer host — so switch goroutines do no observer work.
	*node.Fabric
	sink      node.Sink
	obsEvents chan control.Result

	started time.Time
	wg      sync.WaitGroup
	stop    chan struct{}
	stopped sync.Once

	tel liveTelemetry
	// endpoints is what Start serves on MetricsAddr.
	endpoints telemetry.MuxConfig
	metSrv    *telemetry.Server
	health    *telemetry.Health
}

// liveTelemetry is the runtime's own metric set: the queueing and
// scheduling effects only the goroutine harness can see.
type liveTelemetry struct {
	inboxHighWater *telemetry.Gauge
	inboxDrops     *telemetry.Counter
	obsHighWater   *telemetry.Gauge
	events         *telemetry.Counter
	delivered      *telemetry.Counter
}

func newLiveTelemetry(reg *telemetry.Registry) liveTelemetry {
	return liveTelemetry{
		inboxHighWater: reg.Gauge("speedlight_live_inbox_high_water", "deepest switch inbox occupancy"),
		inboxDrops:     reg.Counter("speedlight_live_inbox_drops_total", "packets dropped at full switch inboxes"),
		obsHighWater:   reg.Gauge("speedlight_live_obs_queue_high_water", "deepest observer event-queue occupancy"),
		events:         reg.Counter("speedlight_live_events_total", "events processed by switch goroutines"),
		delivered:      reg.Counter("speedlight_live_packets_delivered_total", "packets delivered to hosts"),
	}
}

// New builds a live network. Call Start to launch its goroutines.
func New(cfg Config) (*Network, error) {
	if cfg.RetryEvery == 0 {
		cfg.RetryEvery = 20 * time.Millisecond
	}
	if cfg.MetricsAddr != "" && cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	n := &Network{
		cfg:  cfg,
		topo: cfg.Topo,
		sink: node.Sink{
			Journal: cfg.Journal, OnAnomaly: cfg.OnAnomaly,
			Snapstore: cfg.Snapstore, Invariants: cfg.Invariants,
		},
		// Deep enough for every unit's result from a few snapshots in
		// flight; a full queue blocks the sending switch.
		obsEvents: make(chan control.Result, 1024),
		stop:      make(chan struct{}),
		tel:       newLiveTelemetry(cfg.Registry),
		health:    telemetry.NewHealth(),
	}
	swEvents := cfg.Registry.CounterVec("speedlight_live_switch_events_total",
		"events processed per switch goroutine", "switch")
	var err error
	// A negative RetryEvery disables retries: zero never asks for one.
	retryAfter := sim.Duration(max(0, cfg.RetryEvery).Nanoseconds())
	n.Fabric, err = node.NewFabric(cfg.Topo, dataplane.Config{
		MaxID:        cfg.MaxID,
		WrapAround:   cfg.WrapAround,
		ChannelState: cfg.ChannelState,
		Metrics:      cfg.Metrics,
	}, retryAfter, &n.sink, cfg.Registry, func(spec *topology.Switch) (node.Host, func(control.Result), error) {
		ls := &liveSwitch{net: n, spec: spec, inbox: newMailbox(), events: swEvents.With(fmt.Sprint(spec.ID))}
		n.sws = append(n.sws, ls)
		return ls, n.toObserver, nil
	})
	if err != nil {
		return nil, err
	}
	for id, ls := range n.sws {
		ls.sw = n.Switch(topology.NodeID(id))
	}
	// No blocking source: live switches are real goroutines, there is no
	// sharded simulation engine to attribute.
	n.endpoints = n.sink.Endpoints(cfg.Registry, n.health, n.CompletedEpochs, n.Audit, nil)
	return n, nil
}

// toObserver is every switch's OnResult: the network path to the
// observer's goroutine.
func (n *Network) toObserver(res control.Result) {
	select {
	case n.obsEvents <- res:
	case <-n.stop:
	}
}

// now returns wall time since Start as protocol time.
func (n *Network) now() sim.Time {
	return sim.Time(time.Since(n.started).Nanoseconds())
}

// Start launches the switch and observer goroutines, and the
// observability HTTP server when MetricsAddr is configured. A metrics
// server that fails to bind is reported on stderr but does not stop
// the network.
func (n *Network) Start() {
	if n.cfg.MetricsAddr != "" {
		srv, err := telemetry.ServeConfig(n.cfg.MetricsAddr, n.endpoints)
		if err != nil {
			fmt.Fprintf(os.Stderr, "live: metrics server: %v\n", err)
		} else {
			n.metSrv = srv
		}
	}
	n.started = time.Now()
	for _, ls := range n.sws {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runSwitch(ls)
		}()
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runObserver()
	}()
	n.health.SetReady(true)
}

// Stop terminates all goroutines and the metrics server. It is
// idempotent.
func (n *Network) Stop() {
	n.health.SetReady(false)
	n.stopped.Do(func() { close(n.stop) })
	n.wg.Wait()
	if n.metSrv != nil {
		_ = n.metSrv.Close()
		n.metSrv = nil
	}
}

// Registry returns the telemetry registry, or nil when disabled.
func (n *Network) Registry() *telemetry.Registry { return n.cfg.Registry }

// Health returns the runtime's health state: ready between Start and
// Stop. It backs the /healthz and /readyz probes.
func (n *Network) Health() *telemetry.Health { return n.health }

// MetricsAddr returns the bound observability address, or "" when no
// metrics server is running (useful with a ":0" MetricsAddr).
func (n *Network) MetricsAddr() string {
	if n.metSrv == nil {
		return ""
	}
	return n.metSrv.Addr()
}

// runSwitch is one switch's event loop: the single goroutine that owns
// both the data plane and the control plane state of the device, so
// every unit stays linearizable and FIFO order is inherent. It takes
// its mailbox a burst at a time, looks at stop once per burst, and
// parks only on an empty mailbox.
func (n *Network) runSwitch(ls *liveSwitch) {
	var burst []event
	for {
		burst = ls.inbox.take(burst)
		if len(burst) == 0 {
			select {
			case <-n.stop:
				return
			case <-ls.inbox.wake:
				continue
			}
		}
		ls.events.Add(uint64(len(burst)))
		n.tel.events.Add(uint64(len(burst)))
		for i := range burst {
			switch ev := &burst[i]; ev.kind {
			case evPacket:
				ls.sw.Packet(ev.pkt, ev.port)
			case evInitiate:
				ls.sw.Initiate(ev.snapshotID, ev.markers)
			case evPoll:
				ls.sw.Poll()
				if ev.done != nil {
					close(ev.done)
				}
			}
		}
		select {
		case <-n.stop:
			return
		default:
		}
	}
}

// Now returns wall time since Start as protocol time.
func (ls *liveSwitch) Now() sim.Time { return ls.net.now() }

// Forward delivers an egressed packet to the port's peer.
func (ls *liveSwitch) Forward(port int, pkt *packet.Packet) {
	n := ls.net
	switch peer := ls.spec.Ports[port]; peer.Kind {
	case topology.PeerSwitch:
		// Non-blocking: a full mailbox is a full link buffer, and the
		// packet is dropped — blocking here could deadlock a cycle of
		// mutually full switches.
		if !n.sws[peer.Node].put(event{kind: evPacket, pkt: pkt, port: peer.Port}) {
			n.tel.inboxDrops.Inc()
		}
	case topology.PeerHost:
		n.tel.delivered.Inc()
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(pkt, peer.Host)
		}
	}
}

// runObserver is the observer host's goroutine: it takes results off
// the queue and runs the recovery timers.
func (n *Network) runObserver() {
	var tick <-chan time.Time
	if n.cfg.RetryEvery > 0 {
		t := time.NewTicker(n.cfg.RetryEvery)
		defer t.Stop()
		tick = t.C
	}
	// Control events are admitted whatever the depth, so the relay
	// neither blocks (it could deadlock against a switch blocked on the
	// observer channel) nor loses the retry, which the observer asks for
	// only once per snapshot. Only retries flood markers; first
	// initiations do not.
	relay := func(dev topology.NodeID, id packet.SeqID) {
		ls := n.sws[dev]
		ls.put(event{kind: evInitiate, snapshotID: id, markers: n.cfg.ChannelState})
		ls.put(event{kind: evPoll})
	}
	for {
		select {
		case <-n.stop:
			return
		case res := <-n.obsEvents:
			// +1: the result just dequeued was part of the backlog.
			n.tel.obsHighWater.SetMax(int64(len(n.obsEvents)) + 1)
			n.Result(res, n.now())
		case <-tick:
			n.Retries(n.now(), relay)
		}
	}
}

// Inject sends a packet from a host into the network.
func (n *Network) Inject(host topology.HostID, pkt *packet.Packet) error {
	if int(host) >= len(n.topo.Hosts) {
		return fmt.Errorf("live: unknown host %d", host)
	}
	h := n.topo.Hosts[host]
	pkt.SrcHost = uint32(host)
	ls, ev := n.sws[h.Node], event{kind: evPacket, pkt: pkt, port: h.Port}
	if ls.put(ev) {
		return nil
	}
	// A full mailbox makes the host wait until the switch takes it, or
	// for Stop; whoever gets in passes the token to the next one waiting.
	for ok := false; !ok; ok = ls.put(ev) {
		select {
		case <-ls.inbox.room:
		case <-n.stop:
			return fmt.Errorf("live: network stopped")
		}
	}
	signal(ls.inbox.room)
	return nil
}

// TakeSnapshot begins a network-wide snapshot after the given delay and
// returns its ID and a channel that yields the assembled global
// snapshot once complete.
func (n *Network) TakeSnapshot(delay time.Duration) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	select {
	case <-n.stop:
		return 0, nil, fmt.Errorf("live: network stopped")
	default:
	}
	id, sub, err := n.Begin(n.now())
	if err != nil {
		return 0, nil, err
	}
	// Control events never block, so without a delay the caller's
	// goroutine initiates: no timer, closure or goroutine to wait no time.
	if delay <= 0 {
		n.initiate(id)
	} else {
		time.AfterFunc(delay, func() { n.initiate(id) })
	}
	return id, sub, nil
}

// initiate asks every switch to start snapshot id.
func (n *Network) initiate(id packet.SeqID) {
	for _, ls := range n.sws {
		ls.put(event{kind: evInitiate, snapshotID: id})
	}
}

// PollAll synchronously asks every switch control plane to poll its
// registers (recovery path), returning when all have finished.
func (n *Network) PollAll() {
	dones := make([]chan struct{}, len(n.sws))
	for i, ls := range n.sws {
		dones[i] = make(chan struct{})
		ls.put(event{kind: evPoll, done: dones[i]})
	}
	for _, d := range dones {
		select {
		case <-d:
		case <-n.stop:
			return
		}
	}
}
