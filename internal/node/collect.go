package node

import (
	"fmt"
	"sync"
	"sync/atomic"

	"speedlight/internal/audit"
	"speedlight/internal/control"
	"speedlight/internal/epochtrace"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
)

// Sink is where an assembled global snapshot goes: the anomaly hook,
// the history store and the invariant engine. Every field is optional.
type Sink struct {
	// Journal supplies the flight-recorder tail handed to OnAnomaly.
	Journal   *journal.Set
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)
	// Snapstore ingests every snapshot as a sealed epoch; Invariants
	// (which needs Snapstore) then evaluates it.
	Snapstore  *snapstore.Store
	Invariants *invariant.Engine

	completed atomic.Uint64
}

// CompletedEpochs returns how many snapshots Complete has taken. Safe
// from any goroutine; against Snapstore's sealed count it is the
// store's ingestion lag.
func (s *Sink) CompletedEpochs() uint64 { return s.completed.Load() }

// Complete takes one finalized snapshot; calls must not overlap. An
// inconsistent snapshot, one with excluded devices, and every invariant
// violation fire OnAnomaly. sync is the snapshot's synchronization
// spread where the runtime measures one.
func (s *Sink) Complete(g *observer.GlobalSnapshot, sync sim.Duration) {
	completed := s.completed.Add(1)
	if !g.Consistent {
		s.anomaly(fmt.Sprintf("snapshot %d finalized inconsistent", g.ID), g.ID)
	} else if len(g.Excluded) > 0 {
		s.anomaly(fmt.Sprintf("snapshot %d finalized with %d device(s) excluded", g.ID, len(g.Excluded)), g.ID)
	}
	if s.Snapstore == nil {
		return
	}
	ep := s.Snapstore.Ingest(g, sync)
	s.Snapstore.RecordLag(completed)
	if s.Invariants != nil {
		for _, viol := range s.Invariants.Eval(s.Snapstore.View(), ep) {
			s.anomaly(viol.String(), g.ID)
		}
	}
}

// anomaly dumps the flight recorder to the hook. Other goroutines (or
// simulation shards) may be appending while the tail is read: slots are
// read atomically, and an entry still being published may miss the
// dump, which a flight recorder tolerates.
func (s *Sink) anomaly(reason string, id packet.SeqID) {
	s.Journal.Anomaly(s.OnAnomaly, reason, id)
}

// SnapstoreLagMax is how many epochs Snapstore's ingestion may trail the
// observer before the readiness check Endpoints registers fails.
const SnapstoreLagMax = 8

// Endpoints assembles the observability endpoint set of a deployment
// that completes into s — handlers only: serving them is the caller's.
// A Journal brings /journal, /audit (auditRun's report) and the /trace
// family, whose per-pair stall attribution is blocked (nil off a sharded
// engine); Snapstore brings /snapshots and a "snapstore-lag" readiness
// check on health, completed being the observer's epoch count; and
// Invariants brings /invariants.
func (s *Sink) Endpoints(reg *telemetry.Registry, health *telemetry.Health, completed func() uint64,
	auditRun func() *audit.Report, blocked func() []epochtrace.ShardBlocking) telemetry.MuxConfig {
	mc := telemetry.MuxConfig{Registry: reg, Health: health}
	if jr := s.Journal; jr != nil {
		mc.Journal = journal.HTTPHandler(jr.Events)
		mc.Audit = audit.HTTPHandler(auditRun)
		mc.EpochTrace = epochtrace.HTTPHandler(func() []*epochtrace.EpochTrace {
			return epochtrace.Build(jr.Events())
		}, blocked)
	}
	if s.Snapstore != nil {
		mc.Snapshots = snapstore.HTTPHandler(s.Snapstore.View)
		health.AddCheck("snapstore-lag", snapstore.HealthCheck(s.Snapstore, completed, SnapstoreLagMax))
	}
	if s.Invariants != nil {
		mc.Invariants = invariant.HTTPHandler(s.Invariants)
	}
	return mc
}

// Collector is the observer of a runtime whose callers are concurrent:
// one mutex around the observer state machine, the completed list and
// the per-snapshot subscriptions. Snapshots complete into the Sink with
// the lock held, so Sink.OnAnomaly must not call back into the
// Collector.
type Collector struct {
	mu   sync.Mutex
	obs  *observer.Observer
	sink *Sink
	subs map[packet.SeqID]chan *observer.GlobalSnapshot
	done []*observer.GlobalSnapshot
}

// NewCollector builds an observer from cfg (its OnComplete is the
// Collector's) that completes into sink.
func NewCollector(cfg observer.Config, sink *Sink) (*Collector, error) {
	c := &Collector{sink: sink, subs: make(map[packet.SeqID]chan *observer.GlobalSnapshot)}
	cfg.OnComplete = c.complete
	obs, err := observer.New(cfg)
	if err != nil {
		return nil, err
	}
	c.obs = obs
	return c, nil
}

// Register adds a switch's units to the snapshots begun from now on.
func (c *Collector) Register(sw *Switch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs.Register(sw.DP.Node(), sw.DP.UnitIDs())
}

// Begin allocates the next snapshot ID; the channel yields the
// assembled snapshot once, then closes. The caller tells every switch
// to initiate the ID.
func (c *Collector) Begin(now sim.Time) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.obs.Begin(now)
	if err != nil {
		return 0, nil, err
	}
	sub := make(chan *observer.GlobalSnapshot, 1)
	c.subs[id] = sub
	return id, sub, nil
}

// Result ingests one per-unit result from a switch control plane.
func (c *Collector) Result(res control.Result, now sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs.OnResult(res, now)
}

// Timeouts runs the observer's retry and exclusion timers; the caller
// relays the retries it returns.
func (c *Collector) Timeouts(now sim.Time) []observer.Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obs.CheckTimeouts(now)
}

// Snapshots returns a copy of the snapshots completed so far.
func (c *Collector) Snapshots() []*observer.GlobalSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*observer.GlobalSnapshot(nil), c.done...)
}

// complete is the observer's OnComplete: it runs inside Result or
// Timeouts, with mu held. The send cannot block — sub has room for the
// one snapshot it ever carries.
func (c *Collector) complete(g *observer.GlobalSnapshot) {
	c.sink.Complete(g, 0)
	c.done = append(c.done, g)
	if sub, ok := c.subs[g.ID]; ok {
		delete(c.subs, g.ID)
		sub <- g
		close(sub)
	}
}
