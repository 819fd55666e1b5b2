package node

import (
	"errors"
	"sync"

	"speedlight/internal/audit"
	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/epochtrace"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// Fabric is everything a runtime builds that is not its transport: one
// switch per topology node, routed and gated, and the observer they
// report to, with its retry and exclusion timers. The runtime decides
// what a link, a clock and a goroutine (or a simulation domain) are — it
// hands NewFabric each switch's Host and the path its results take
// toward Result, and passes the time in — so a Fabric over a recording
// Host is a whole deployment a test can step.
//
// Its callers may be concurrent: one mutex guards the observer state
// machine, the completed list and the per-snapshot subscriptions.
// Snapshots complete into the Sink with the lock held, so Sink.OnAnomaly
// (and Spread) must not call back into the Fabric.
type Fabric struct {
	cfg      FabricConfig // DP as every switch starts from it
	rings    *journal.Set // the Sink's Journal, or counts-only rings for the Registry
	fibs     map[topology.NodeID]*routing.FIB
	utilized []routing.PortPairs // by NodeID
	sws      []*Switch           // by NodeID

	mu   sync.Mutex
	obs  *observer.Observer
	subs map[packet.SeqID]chan *observer.GlobalSnapshot
	done []*observer.GlobalSnapshot
}

// FabricConfig describes a deployment to NewFabric.
type FabricConfig struct {
	Topo *topology.Topology
	// DP is every switch's data plane less what NewFabric fills in per
	// switch (FIB, Telemetry, Journal) and what Attach does: the snapshot
	// parameters — a zero MaxID means 256 — and Metrics.
	DP dataplane.Config
	// RetryAfter and ExcludeAfter are the observer's recovery timers,
	// defaulted by RecoveryTimers for a drain of zero: a snapshot
	// incomplete for RetryAfter has Retries name its missing devices
	// once, and one incomplete for ExcludeAfter finalizes without them.
	RetryAfter, ExcludeAfter sim.Duration
	// Sink takes the assembled snapshots, and its Journal is the
	// deployment's: the per-switch rings, the observer's, and Audit's.
	Sink *Sink
	// Spread, when set, gives Sink.Complete a snapshot's synchronization
	// spread.
	Spread func(packet.SeqID) sim.Duration
	// Registry, when set, enables telemetry in every layer. Its protocol
	// counters are the switch and observer rings' counts (registerCounts):
	// the Sink's Journal, or, without one, counts-only rings that keep no
	// events, so Journal, Audit and the journal endpoints stay detached.
	Registry *telemetry.Registry
	// Attach is called once per switch, in NodeID order, before that
	// switch exists, and again whenever Reprovision rebuilds it. It may
	// fill dp's per-switch fields (Balancer, OnNotify, SnapshotDisabled:
	// a disabled switch never joins the observer's snapshot set), and
	// returns the Host the switch will run on and the function that ships
	// its per-unit results toward the observer (and so, eventually, into
	// Result).
	Attach func(spec *topology.Switch, dp *dataplane.Config) (Host, func(control.Result), error)
}

// RecoveryTimers is the one rule for a deployment's recovery timers,
// counted from Begin. drain is the widest control plane's expected
// notification backlog for one loss-free epoch. A zero retryAfter is
// max(5 ms, 2 × drain), so a retry fires only when something was lost;
// a zero excludeAfter is max(50 ms, 2 × retryAfter). Explicit values,
// and negative ones (disabled), are kept.
func RecoveryTimers(retryAfter, excludeAfter, drain sim.Duration) (sim.Duration, sim.Duration) {
	if retryAfter == 0 {
		retryAfter = max(5*sim.Millisecond, 2*drain)
	}
	if excludeAfter == 0 {
		excludeAfter = max(50*sim.Millisecond, 2*retryAfter)
	}
	return retryAfter, excludeAfter
}

// NewFabric builds the deployment cfg describes.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	if cfg.Topo == nil {
		return nil, errors.New("node: nil topology")
	}
	if cfg.DP.MaxID == 0 {
		cfg.DP.MaxID = 256
	}
	cfg.RetryAfter, cfg.ExcludeAfter = RecoveryTimers(cfg.RetryAfter, cfg.ExcludeAfter, 0)
	fibs, err := routing.ComputeFIBs(cfg.Topo)
	if err != nil {
		return nil, err
	}
	// The rings every level appends to: the Sink's Journal, counts-only
	// rings for a Registry without one, or nil, which records nothing.
	rings := cfg.Sink.Journal
	if rings == nil && cfg.Registry != nil {
		rings = journal.NewCounts()
	}
	registerCounts(cfg.Registry, rings)
	rings.Observer().Append(journal.Config(uint64(cfg.DP.MaxID), cfg.DP.WrapAround, cfg.DP.ChannelState))
	cfg.DP.Telemetry = dataplane.NewTelemetry(cfg.Registry)
	f := &Fabric{cfg: cfg, rings: rings, fibs: fibs, utilized: routing.UtilizedPairs(cfg.Topo, fibs),
		sws: make([]*Switch, len(cfg.Topo.Switches)), subs: make(map[packet.SeqID]chan *observer.GlobalSnapshot)}
	f.obs, err = observer.New(observer.Config{MaxID: cfg.DP.MaxID, WrapAround: cfg.DP.WrapAround,
		RetryAfter: max(0, cfg.RetryAfter), ExcludeAfter: max(0, cfg.ExcludeAfter),
		Telemetry: observer.NewTelemetry(cfg.Registry), Journal: rings.Observer(), OnComplete: f.complete})
	if err != nil {
		return nil, err
	}
	for _, spec := range cfg.Topo.Switches {
		if err := f.build(spec); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// build makes spec's switch on what Attach gives it, from its FIB and
// gates as they stand, puts it in its slot and adds it to the snapshot
// set unless Attach disabled it.
func (f *Fabric) build(spec *topology.Switch) error {
	dp := f.cfg.DP
	dp.FIB, dp.Journal = f.fibs[spec.ID], f.rings.For(int(spec.ID))
	host, onResult, err := f.cfg.Attach(spec, &dp)
	if err != nil {
		return err
	}
	sw, err := New(Config{Spec: spec, DP: dp, Utilized: f.utilized[spec.ID], OnResult: onResult}, host)
	if err != nil {
		return err
	}
	f.sws[spec.ID] = sw
	if !dp.SnapshotDisabled {
		f.mu.Lock()
		f.obs.Register(spec.ID, sw.DP.UnitIDs())
		f.mu.Unlock()
	}
	return nil
}

// Switch returns one switch, for inspection: whoever the runtime has
// drive it owns everything about it that changes after NewFabric.
func (f *Fabric) Switch(id topology.NodeID) *Switch { return f.sws[id] }

// Journal returns the flight-recorder set, or nil when journaling is
// disabled.
func (f *Fabric) Journal() *journal.Set { return f.cfg.Sink.Journal }

// Audit replays the journal and verifies every snapshot's consistency
// invariants. Safe while the deployment runs (the rings are dumped
// atomically). Nil when journaling is disabled.
func (f *Fabric) Audit() *audit.Report {
	return audit.Replay(f.cfg.Sink.Journal, f.cfg.DP.MaxID, f.cfg.DP.WrapAround, f.cfg.DP.ChannelState)
}

// CompletedEpochs returns how many global snapshots the observer has
// assembled. Safe from any goroutine.
func (f *Fabric) CompletedEpochs() uint64 { return f.cfg.Sink.CompletedEpochs() }

// Endpoints assembles the deployment's observability endpoint set —
// handlers only: serving them is the caller's. The Registry brings
// /metrics; the Sink's Journal brings /journal, /audit and the /trace
// family, whose per-pair stall attribution is blocked (nil off a sharded
// engine); its Snapstore brings /snapshots and a "snapstore-lag"
// readiness check on health; and its Invariants bring /invariants.
func (f *Fabric) Endpoints(health *telemetry.Health, blocked func() []epochtrace.ShardBlocking) telemetry.MuxConfig {
	s := f.cfg.Sink
	mc := telemetry.MuxConfig{Registry: f.cfg.Registry, Health: health}
	if jr := s.Journal; jr != nil {
		mc.Journal = journal.HTTPHandler(jr.Events)
		mc.Audit = audit.HTTPHandler(f.Audit)
		mc.EpochTrace = epochtrace.HTTPHandler(func() []*epochtrace.EpochTrace {
			return epochtrace.Build(jr.Events())
		}, blocked)
	}
	if s.Snapstore != nil {
		mc.Snapshots = snapstore.HTTPHandler(s.Snapstore.View)
		health.AddCheck("snapstore-lag", snapstore.HealthCheck(s.Snapstore, s.CompletedEpochs, SnapstoreLagMax))
	}
	if s.Invariants != nil {
		mc.Invariants = invariant.HTTPHandler(s.Invariants)
	}
	return mc
}

// Snapshots returns a copy of the snapshots completed so far.
func (f *Fabric) Snapshots() []*observer.GlobalSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*observer.GlobalSnapshot(nil), f.done...)
}

// Begin allocates the next snapshot ID; the channel yields the
// assembled snapshot once, then closes. The runtime tells every switch
// to initiate the ID.
func (f *Fabric) Begin(now sim.Time) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, err := f.obs.Begin(now)
	if err != nil {
		return 0, nil, err
	}
	sub := make(chan *observer.GlobalSnapshot, 1)
	f.subs[id] = sub
	return id, sub, nil
}

// Result ingests one per-unit result: the far end of Attach's path.
//
//speedlight:hotpath
func (f *Fabric) Result(res control.Result, now sim.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.obs.OnResult(res, now)
}

// Retries runs the observer's retry and exclusion timers at now and
// hands relay every (device, snapshot) that is due a re-initiation and a
// poll — the observer asks once per snapshot, so relay must not lose it.
// relay runs without the lock. Whether the re-initiation floods markers
// is the runtime's liveness policy.
func (f *Fabric) Retries(now sim.Time, relay func(dev topology.NodeID, id packet.SeqID)) {
	f.mu.Lock()
	acts := f.obs.CheckTimeouts(now)
	f.mu.Unlock()
	for _, act := range acts {
		for _, dev := range act.Retry {
			relay(dev, act.SnapshotID)
		}
	}
}

// Remove takes switch id out of the snapshot set, as when it leaves the
// fabric: snapshots begun from now on neither wait for it nor include
// it, and those in flight recover by retry and exclusion.
func (f *Fabric) Remove(id topology.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.obs.Unregister(id)
}

// Reprovision rebuilds switch id from scratch, as a reboot does: zeroed
// registers, its FIB and gates as they stand, Attach run again. The new
// switch takes the old one's place in Switch and rejoins the snapshot
// set unless Attach disabled it; whoever drove the old one discards it
// and its work in flight.
func (f *Fabric) Reprovision(id topology.NodeID) error { return f.build(f.cfg.Topo.Switch(id)) }

// RouteAround recomputes forwarding around what filter takes out, in
// place: every switch's FIB gets its new next hops and a version bump,
// and the gates of the next Reprovision derive from the new paths.
// Destinations the filter severs lose their entries.
func (f *Fabric) RouteAround(filter routing.Filter) {
	fresh := routing.ComputeFIBsFiltered(f.cfg.Topo, filter)
	for id, fib := range f.fibs {
		fib.NextHops = fresh[id].NextHops
		fib.Version++
	}
	f.utilized = routing.UtilizedPairs(f.cfg.Topo, f.fibs)
}

// PushFIB rewrites switch id's FIB alone around what filter takes out,
// bumping its version, as a controller re-pushing drifted config does.
func (f *Fabric) PushFIB(id topology.NodeID, filter routing.Filter) {
	fib := f.fibs[id]
	fib.NextHops = routing.ComputeFIBsFiltered(f.cfg.Topo, filter)[id].NextHops
	fib.Version++
}

// complete is the observer's OnComplete: it runs inside Result or
// Retries, with mu held. The send cannot block — sub has room for the
// one snapshot it ever carries.
func (f *Fabric) complete(g *observer.GlobalSnapshot) {
	var spread sim.Duration
	if f.cfg.Spread != nil {
		spread = f.cfg.Spread(g.ID)
	}
	f.cfg.Sink.Complete(g, spread)
	f.done = append(f.done, g)
	if sub, ok := f.subs[g.ID]; ok {
		delete(f.subs, g.ID)
		sub <- g
		close(sub)
	}
}
