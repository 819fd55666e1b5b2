// Package live runs a Speedlight deployment as real concurrent Go:
// every switch is a goroutine owning its data plane and control plane,
// a link is a train the switch stages during a burst and then hands, in
// one put, to the neighbour's mailbox — a bounded, mutex-guarded inbox
// its goroutine empties a burst at a time — and the snapshot observer
// runs in its own goroutine with wall-clock initiation timers.
//
// It is also the one wall-clock deployment (Runtime): one Config, and a
// node.Fabric — the routes, completion gates, one node.Switch per
// topology node, the observer with its retry and exclusion timers, and
// the recovery relay — plus a Device per switch that moves its bytes,
// driven by one goroutine loop per switch, one TakeSnapshot, one clock
// and the recovery check its transport's observer host runs (Timers),
// with the Fabric's observability endpoints served from Start to Stop.
// Package wire is a Runtime over UDP sockets; Network is one over
// mailboxes, and what is written for it here is what a goroutine
// transport adds: the mailboxes and the trains into them, the observer
// goroutine, Inject's back-pressure and the
// speedlight_live_* metrics that count them.
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
	"errors"
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

// Config parameterizes a wall-clock deployment: a live Network, or a
// wire Deployment (wire.Config is this type).
type Config struct {
	// Topo is the network topology. Required.
	Topo *topology.Topology

	// Snapshot protocol parameters (zero values: MaxID 256, wraparound
	// off, channel state off).
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// Metrics builds each unit's snapshot target; nil defaults to
	// packet counters.
	Metrics func(id dataplane.UnitID) core.Metric

	// OnDeliver observes packets reaching hosts. Called from live's
	// switch goroutines and from wire's host-sink goroutine; must be safe
	// for concurrent use. A delivered packet belongs to the callee, which
	// may keep it or Inject it again: on live it is the pointer a host
	// injected, on wire it may be any struct an earlier Inject handed
	// over (see Runtime.Inject).
	OnDeliver func(pkt *packet.Packet, host topology.HostID)

	// RetryEvery is the recovery period: a snapshot incomplete for it is
	// re-initiated once where units are missing, and one incomplete for
	// max(50 ms, 2 × RetryEvery) — 50 ms by default — finalizes with the
	// silent switches excluded, checked every RetryEvery. Default 20 ms;
	// negative disables both.
	RetryEvery time.Duration

	// Registry, when set, enables telemetry across every layer of the
	// deployment. Nil disables instrumentation at zero hot-path cost.
	Registry *telemetry.Registry
	// MetricsAddr, when non-empty, serves the observability endpoints
	// (Prometheus /metrics, expvar /debug/vars, /debug/pprof, /healthz,
	// /readyz, and — when journaling is on — /journal, /audit and
	// /trace) on this address from Start until Stop. A Registry is
	// created if none was provided.
	MetricsAddr string

	// Journal, when set, records every protocol event into per-switch
	// flight-recorder rings (internal/journal). The rings are lock-free
	// and safe for the concurrent switch goroutines. Nil disables
	// journaling at zero hot-path cost.
	Journal *journal.Set
	// OnAnomaly receives a flight-recorder dump (the last 512 journal
	// events) whenever a snapshot finalizes inconsistent or with
	// excluded devices. Called with the fabric's lock held; must not
	// call back into the network.
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)

	// Snapstore, when set, ingests every completed global snapshot as a
	// sealed delta-encoded epoch (internal/snapstore). Ingestion runs on
	// the observer host's goroutine; with MetricsAddr set the query plane
	// is served at /snapshots, and a readiness check flips /readyz when
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

// retryDefault is the recovery period of a runtime whose RetryEvery is
// zero.
const retryDefault = 20 * time.Millisecond

var errStopped = errors.New("live: network stopped")

// Runtime is a wall-clock deployment: a node.Fabric whose switches run on
// a transport's Devices, one goroutine per switch, the observer host's
// recovery check, and the server of the Fabric's endpoints. A Network is a
// Runtime over in-process mailboxes, a wire.Deployment one over UDP
// sockets; what is written here, they share.
type Runtime struct {
	// The fields every switch and host reads, step after step, come
	// first: nothing writes them after Start.
	*node.Fabric
	Clock
	devs []Device // by NodeID
	stop chan struct{}
	cfg  Config

	sink    node.Sink // the Fabric's
	due     time.Time // the observer host's next recovery check (zero: its first call)
	health  *telemetry.Health
	metSrv  *telemetry.Server
	wg      sync.WaitGroup
	stopped sync.Once
}

// Device is one switch's side of a transport: the node.Host the switch
// runs on, and what the Runtime drives it through.
type Device interface {
	node.Host
	// Burst takes the switch's next burst of input and Steps each event
	// of it, parking while there is none. False means shutdown.
	Burst() bool
	// Flush writes out what the burst staged.
	Flush()
	// Control hands the switch an initiation of snapshot id (flooding
	// markers if asked) and then, if asked, a poll. A full queue must not
	// drop them: the observer asks for a retry once.
	Control(id packet.SeqID, markers, poll bool)
	// Inject takes a host's packet in at port; nil means it took the
	// packet (Runtime.Inject).
	Inject(port int, pkt *packet.Packet) error
}

// Clock is a runtime's wall clock: the time since Start as protocol
// time. The Runtime reads it where it acts itself (Begin, the recovery
// check); a Device reads it through its Stamp, once per input it takes.
type Clock struct{ started time.Time }

// Now returns wall time since Start as protocol time.
func (c *Clock) Now() sim.Time { return sim.Time(time.Since(c.started).Nanoseconds()) }

// Stamp is a Device's time, and with it node.Host's Now: the Runtime's
// Clock as Take last read it. A Device Takes once it has taken input in
// — after everything it steps was sent — and every step of that input
// runs at the stamp, as a switch stamps a frame on arrival and not at
// each pipeline stage. Each sender stamped before it sent, so a stamp
// is never earlier than any stamp that caused it; the burst or datagram
// the stamp covers bounds how late it can be.
type Stamp struct {
	clock *Clock
	now   sim.Time
}

// Take reads the clock.
//
//speedlight:hotpath
func (s *Stamp) Take() { s.now = s.clock.Now() }

// Now returns the instant Take read.
//
//speedlight:hotpath
func (s *Stamp) Now() sim.Time { return s.now }

// NewRuntime builds the deployment cfg describes — fabric, sink,
// recovery period and endpoints — with each switch on the Device attach
// makes with a Stamp on the runtime's clock. OnDeliver is the
// transport's to honour. A zero RetryEvery means 20 ms, a negative one
// no recovery.
func NewRuntime(cfg Config, attach func(*topology.Switch, Stamp) (Device, func(control.Result), error)) (*Runtime, error) {
	if cfg.RetryEvery == 0 {
		cfg.RetryEvery = retryDefault
	}
	if cfg.MetricsAddr != "" && cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	r := &Runtime{cfg: cfg, stop: make(chan struct{}), health: telemetry.NewHealth(), sink: node.Sink{
		Journal: cfg.Journal, OnAnomaly: cfg.OnAnomaly,
		Snapstore: cfg.Snapstore, Invariants: cfg.Invariants,
	}}
	var err error
	// The retry period is the observer's RetryAfter (a negative one asks
	// for no retries), and its exclusion takes RecoveryTimers' default.
	r.Fabric, err = node.NewFabric(node.FabricConfig{
		Topo: cfg.Topo, Sink: &r.sink, Registry: cfg.Registry, RetryAfter: sim.Duration(cfg.RetryEvery.Nanoseconds()),
		DP: dataplane.Config{MaxID: cfg.MaxID, WrapAround: cfg.WrapAround, ChannelState: cfg.ChannelState, Metrics: cfg.Metrics},
		Attach: func(spec *topology.Switch, _ *dataplane.Config) (node.Host, func(control.Result), error) {
			dev, onResult, err := attach(spec, Stamp{clock: &r.Clock})
			r.devs = append(r.devs, dev)
			return dev, onResult, err
		},
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Event is one step of a switch: a packet arriving on Port, an
// initiation of snapshot ID (flooding markers if Markers says so), or a
// register poll.
type Event struct {
	Kind    EventKind
	Markers bool
	Port    int
	Pkt     *packet.Packet
	ID      packet.SeqID
}

// EventKind says which of the three steps an Event is.
type EventKind uint8

const (
	EvPacket EventKind = iota
	EvInitiate
	EvPoll
)

// Step runs ev through sw: the one place a wall-clock runtime calls into
// a switch.
//
//speedlight:hotpath
func (ev *Event) Step(sw *node.Switch) {
	switch ev.Kind {
	case EvPacket:
		sw.Packet(ev.Pkt, ev.Port)
	case EvInitiate:
		sw.Initiate(ev.ID, ev.Markers)
	case EvPoll:
		sw.Poll()
	}
}

// Start serves the endpoints when MetricsAddr is set, starts the clock
// and launches a goroutine per switch and one per host: the transport's
// own goroutines (its observer host, which runs Timers, say), which
// must return once Stop is called. A metrics server that fails to bind
// is reported on stderr but does not stop the deployment.
func (r *Runtime) Start(hosts ...func()) {
	if r.cfg.MetricsAddr != "" {
		// No blocking source: the goroutines are real, there is no
		// sharded simulation engine to attribute.
		srv, err := telemetry.ServeConfig(r.cfg.MetricsAddr, r.Endpoints(r.health, nil))
		if err != nil {
			fmt.Fprintf(os.Stderr, "live: metrics server: %v\n", err)
		}
		r.metSrv = srv
	}
	r.started = time.Now()
	for _, dev := range r.devs {
		hosts = append(hosts, func() { r.run(dev) })
	}
	r.wg.Add(len(hosts))
	for _, f := range hosts {
		go func() {
			defer r.wg.Done()
			f()
		}()
	}
	r.health.SetReady(true)
}

// Stop shuts the runtime down, waits for its goroutines and closes the
// metrics server. It is idempotent. A transport whose devices park
// anywhere but on the stop channel wakes them first (wire closes its
// sockets).
func (r *Runtime) Stop() {
	r.stopped.Do(func() {
		r.health.SetReady(false)
		close(r.stop)
		r.wg.Wait()
		_ = r.metSrv.Close()
		r.metSrv = nil
	})
}

// Registry returns the telemetry registry, or nil when disabled.
func (r *Runtime) Registry() *telemetry.Registry { return r.cfg.Registry }

// Health returns the deployment's health state: ready between Start and
// Stop. It backs the /healthz and /readyz probes.
func (r *Runtime) Health() *telemetry.Health { return r.health }

// MetricsAddr returns the bound observability address, or "" when no
// metrics server is running (useful with a ":0" MetricsAddr).
func (r *Runtime) MetricsAddr() string {
	if r.metSrv == nil {
		return ""
	}
	return r.metSrv.Addr()
}

// run is one switch's goroutine: the single owner of both its data plane
// and its control plane, so every unit stays linearizable and FIFO order
// is inherent. It takes its input a burst at a time, writes out what each
// burst staged, and looks at stop once per burst.
func (r *Runtime) run(dev Device) {
	for dev.Burst() {
		dev.Flush()
		select {
		case <-r.stop:
			return
		default:
		}
	}
}

// Timers is the observer host's recovery check. Its goroutine calls it
// once it has taken every result waiting, so no result it has not read
// yet counts as silence. When a check is due it runs the observer's
// retry and exclusion timers — a retried device gets a re-initiation,
// which floods markers in channel-state mode (first initiations do not),
// and a poll — and the next check falls due RetryEvery after this one
// ran: a retried device has at least that long to answer before it can
// be excluded. Timers returns when the next check is due: with recovery
// off, never, and Timers returns the zero time.
func (r *Runtime) Timers() time.Time {
	if r.cfg.RetryEvery > 0 && !time.Now().Before(r.due) {
		r.Retries(r.Now(), func(dev topology.NodeID, id packet.SeqID) { r.devs[dev].Control(id, r.cfg.ChannelState, true) })
		r.due = time.Now().Add(r.cfg.RetryEvery)
	}
	return r.due
}

// Inject sends a packet from a host into its edge switch. When it
// returns nil the runtime has taken the packet: the caller must not read
// or write it afterwards. live forwards the pointer itself (to
// OnDeliver, if it arrives); wire encodes it, then decodes a later
// delivery into it. On an error the caller keeps it.
func (r *Runtime) Inject(host topology.HostID, pkt *packet.Packet) error {
	if int(host) >= len(r.cfg.Topo.Hosts) {
		return fmt.Errorf("live: unknown host %d", host)
	}
	h := r.cfg.Topo.Hosts[host]
	pkt.SrcHost = uint32(host)
	return r.devs[h.Node].Inject(h.Port, pkt)
}

// TakeSnapshot begins a network-wide snapshot after the given delay and
// returns its ID and a channel that yields the assembled global
// snapshot once complete.
func (r *Runtime) TakeSnapshot(delay time.Duration) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	select {
	case <-r.stop:
		return 0, nil, errStopped
	default:
	}
	id, sub, err := r.Begin(r.Now())
	if err != nil {
		return 0, nil, err
	}
	// Control never blocks, so without a delay the caller's goroutine
	// initiates: no timer, closure or goroutine to wait no time.
	if delay <= 0 {
		r.initiate(id)
	} else {
		time.AfterFunc(delay, func() { r.initiate(id) })
	}
	return id, sub, nil
}

// initiate asks every switch to start snapshot id.
func (r *Runtime) initiate(id packet.SeqID) {
	for _, dev := range r.devs {
		dev.Control(id, false, false)
	}
}

// inboxDepth bounds the packets waiting in each switch's mailbox: the
// link buffer a full switch drops into (see liveSwitch.Flush).
const inboxDepth = 4096

// mailbox is a switch's inbox: many producers, one consumer. Producers
// append under mu; the switch goroutine takes the whole backlog in one
// swap, so it pays one lock per burst and none per event, and no two
// switches share a lock — which a receive that also selects on the
// network-wide stop channel would take, per event, on every switch.
type mailbox struct {
	mu sync.Mutex
	q  []Event
	// spare is the burst take returned last: the consumer's alone, and
	// the queue's storage once it is processed.
	spare []Event
	// wake holds a token whenever q went from empty to not: what the
	// consumer parks on. A stale token costs it one empty take.
	wake chan struct{}
	// room gets a token when a full backlog is taken: what an Inject
	// refused by put parks on.
	room chan struct{}
	// highWater books the depth each put left.
	highWater *telemetry.Gauge
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1), room: make(chan struct{}, 1)}
}

// put queues evs in order, books the depth the queue reached, and
// returns how many of evs it refused. A packet is admitted while fewer
// than inboxDepth events wait, so a train that meets a full mailbox
// loses its tail of packets. Control events are always admitted: the
// observer's no-lapping ID window bounds them, and it asks for a retry
// only once. The wake token goes out after Unlock, and only if the
// queue was empty: nothing blocks, or is sent, under mu.
//
//speedlight:hotpath
func (m *mailbox) put(evs []Event) (refused int) {
	m.mu.Lock()
	was := len(m.q)
	for _, ev := range evs {
		if ev.Kind != EvPacket || len(m.q) < inboxDepth {
			m.q = append(m.q, ev)
		}
	}
	depth := len(m.q)
	m.mu.Unlock()
	m.highWater.SetMax(int64(depth))
	if was == 0 {
		signal(m.wake)
	}
	return was + len(evs) - depth
}

// take returns everything queued, in put order, and leaves the previous
// burst, now processed, as the queue's storage.
//
//speedlight:hotpath
func (m *mailbox) take() []Event {
	clear(m.spare) // drop the packets it still points to
	m.mu.Lock()
	burst := m.q
	m.q = m.spare[:0]
	m.mu.Unlock()
	m.spare = burst
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

// liveSwitch is one switch goroutine's state: the Device, and so the
// node.Host, of the switch it runs. Other goroutines read it (to put
// into its mailbox); after New only its goroutine writes it, the Stamp
// once per burst.
type liveSwitch struct {
	Stamp
	net   *Network
	sw    *node.Switch
	spec  *topology.Switch
	inbox *mailbox
	// events counts this switch goroutine's processed events
	// (per-switch throughput).
	events *telemetry.Counter
	// ports holds the train behind each port: one per neighbour switch,
	// shared by the ports that lead to it (nil toward a host or nothing).
	ports []*train
}

// train is what a switch stages for one neighbour during a burst. Only
// the switch's goroutine touches it, and it fills a cache line of its
// own, so no producer reads a line the goroutine writes per packet (such
// sharing cost wire_udp 4-8 % of ops_per_s on a 2-CPU box).
type train struct {
	to  *mailbox
	evs []Event
	_   [32]byte
}

// Network is a running live deployment.
type Network struct {
	// Runtime is the deployment and its goroutines: the switches the
	// mailboxes feed and the Fabric that assembles their snapshots into
	// sink. It brings Switch, Journal, Audit, Snapshots,
	// CompletedEpochs, Inject, TakeSnapshot, Stop and the observability
	// surface. Results reach it through obsEvents — the network path from
	// switch CPU to observer host — so switch goroutines do no observer
	// work.
	*Runtime
	sws       []*liveSwitch // by NodeID
	obsEvents chan control.Result
	stall     func() // runs before each result the observer host takes: a test seam, a no-op outside tests

	tel liveTelemetry
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
	// Deep enough for every unit's result from a few snapshots in flight;
	// a full queue blocks the sending switch.
	n := &Network{obsEvents: make(chan control.Result, 1024), stall: func() {}}
	var err error
	n.Runtime, err = NewRuntime(cfg, func(spec *topology.Switch, stamp Stamp) (Device, func(control.Result), error) {
		ls := &liveSwitch{Stamp: stamp, net: n, spec: spec, inbox: newMailbox(), ports: make([]*train, len(spec.Ports))}
		n.sws = append(n.sws, ls)
		return ls, n.toObserver, nil
	})
	if err != nil {
		return nil, err
	}
	n.tel = newLiveTelemetry(n.Registry())
	swEvents := n.Registry().CounterVec("speedlight_live_switch_events_total",
		"events processed per switch goroutine", "switch")
	for id, ls := range n.sws {
		ls.sw = n.Switch(topology.NodeID(id))
		ls.inbox.highWater = n.tel.inboxHighWater
		ls.events = swEvents.With(fmt.Sprint(id))
		trains := make([]*train, len(n.sws)) // by neighbour
		for p, peer := range ls.spec.Ports {
			if peer.Kind == topology.PeerSwitch {
				if trains[peer.Node] == nil {
					trains[peer.Node] = &train{to: n.sws[peer.Node].inbox}
				}
				ls.ports[p] = trains[peer.Node]
			}
		}
	}
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

// Start launches the switch and observer goroutines, and the
// observability server when MetricsAddr is configured.
func (n *Network) Start() { n.Runtime.Start(n.runObserver) }

// Burst takes the mailbox's backlog and steps it, parking on an empty
// mailbox until a put or Stop. The whole burst runs at one stamp, taken
// once the backlog is in hand: everything in it was put, and so
// stamped by its sender, before.
func (ls *liveSwitch) Burst() bool {
	burst := ls.inbox.take()
	for ; len(burst) == 0; burst = ls.inbox.take() {
		select {
		case <-ls.net.stop:
			return false
		case <-ls.inbox.wake:
		}
	}
	ls.Take()
	ls.events.Add(uint64(len(burst)))
	ls.net.tel.events.Add(uint64(len(burst)))
	for i := range burst {
		burst[i].Step(ls.sw)
	}
	return true
}

// Flush hands each train the burst staged to its neighbour's mailbox in
// one put. So a packet waits for nothing but the rest of its burst, and
// a train keeps its channels' order. Non-blocking: a full mailbox is a
// full link buffer, and the refused tail is dropped and counted —
// blocking here could deadlock a cycle of mutually full switches.
//
//speedlight:hotpath
func (ls *liveSwitch) Flush() {
	for _, t := range ls.ports {
		if t == nil || len(t.evs) == 0 {
			continue // a host port, or a train another port flushed
		}
		if refused := t.to.put(t.evs); refused > 0 {
			ls.net.tel.inboxDrops.Add(uint64(refused))
		}
		clear(t.evs) // drop the packets it still points to
		t.evs = t.evs[:0]
	}
}

// Control queues the initiation and the poll behind whatever waits, in
// one put: control events are admitted whatever the depth, so the relay
// neither blocks (it could deadlock against a switch blocked on the
// observer channel) nor loses the retry.
func (ls *liveSwitch) Control(id packet.SeqID, markers, poll bool) {
	evs := []Event{{Kind: EvInitiate, ID: id, Markers: markers}, {Kind: EvPoll}}
	if !poll {
		evs = evs[:1]
	}
	ls.inbox.put(evs)
}

// Inject queues a host's packet. A full mailbox makes the host wait
// until the switch takes it, or for Stop; whoever gets in passes the
// token to the next one waiting.
func (ls *liveSwitch) Inject(port int, pkt *packet.Packet) error {
	ev := []Event{{Kind: EvPacket, Pkt: pkt, Port: port}}
	if ls.inbox.put(ev) == 0 {
		return nil
	}
	for refused := 1; refused > 0; refused = ls.inbox.put(ev) {
		select {
		case <-ls.inbox.room:
		case <-ls.net.stop:
			return errStopped
		}
	}
	signal(ls.inbox.room)
	return nil
}

// Forward stages an egressed packet on the train to the port's
// neighbour switch, or delivers it to the port's host.
//
//speedlight:hotpath
func (ls *liveSwitch) Forward(port int, pkt *packet.Packet) {
	switch peer := ls.spec.Ports[port]; peer.Kind {
	case topology.PeerSwitch:
		t := ls.ports[port]
		t.evs = append(t.evs, Event{Kind: EvPacket, Pkt: pkt, Port: peer.Port})
	case topology.PeerHost:
		// Counted once the hook returns, so a scrape never counts a
		// delivery the hook has not seen.
		n := ls.net
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(pkt, peer.Host)
		}
		n.tel.delivered.Inc()
	}
}

// runObserver is the observer host's goroutine: it takes results, each
// at the instant it takes it, and once none is waiting runs the
// recovery check (Timers); it parks until the next result, the next
// check or Stop. The timer is reset to each new due time; with recovery
// off it never is, and its one firing is a wake-up with nothing due.
func (n *Network) runObserver() {
	var due time.Time
	t := time.NewTimer(retryDefault)
	defer t.Stop()
	for {
		if len(n.obsEvents) == 0 && n.Timers() != due {
			due = n.due
			t.Reset(time.Until(due))
		}
		select {
		case <-n.stop:
			return
		case <-t.C:
		case res := <-n.obsEvents:
			// +1: the result just dequeued was part of the backlog.
			n.tel.obsHighWater.SetMax(int64(len(n.obsEvents)) + 1)
			n.stall()
			n.Result(res, n.Now())
		}
	}
}
