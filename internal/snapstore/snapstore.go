// Package snapstore is the snapshot-history store behind the query
// plane: a bounded in-memory bank of completed global snapshots, one
// sealed epoch per assembled observer.GlobalSnapshot.
//
// Epochs are stored as delta encodings — only the registers that
// changed since the previous consistent cut — with a full
// materialization ("base") every min(CheckpointEvery, Retention)
// epochs, so any epoch reconstructs by walking back at most one
// checkpoint interval of deltas. Retention is exact: once more than
// Retention epochs are held, the oldest is hidden from the view, but it
// stays in the view's chain while a retained epoch still reconstructs
// through it. A chain always starts at a base, so no cut is ever copied
// to evict an epoch, and at most Retention + min(CheckpointEvery,
// Retention) − 1 epochs are resident.
//
// Reads never block ingestion. Each seal publishes an immutable View
// through a single atomic pointer swap (in the spirit of Bezerra et
// al.'s fast atomic snapshots): a reader loads the pointer once and
// then owns a consistent catalogue of epochs — sealed epochs are never
// mutated, so thousands of concurrent readers can reconstruct any
// retained cut while the writer keeps sealing new ones.
//
// Concurrency contract: all writer methods (Begin, Observe, Seal,
// Ingest, RecordLag) must be serialized — the observer's completion
// path. Under the emulated fabric that path is the observer's
// simulation domain: a sharded domain of the per-pair parallel engine,
// where domain events never run concurrently with each other even
// though the hosting shard migrates work off the coordinator. One
// logical writer at a time, not one pinned goroutine. View and Sealed
// are safe from any goroutine at any time.
package snapstore

import (
	"fmt"
	"sort"
	"sync/atomic"

	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// Reg is one processing unit's register in a reconstructed cut.
type Reg struct {
	// Value is the recorded state (meaningful only when Present).
	Value uint64
	// Consistent mirrors the control plane's per-unit consistency
	// verdict for the value.
	Consistent bool
	// Present is false when the unit had no result in the cut (its
	// device was excluded, or it attached after the epoch).
	Present bool
}

// Delta is one register change relative to the previous sealed epoch.
// Its fields are ordered to pack it into 16 bytes.
type Delta struct {
	// Value and Consistent are the register's new state. When Present
	// is false the unit left the cut and both are zero.
	Value uint64
	// Unit is the dense unit index into the store's unit table.
	Unit       int32
	Consistent bool
	Present    bool
}

// Epoch is one sealed snapshot in the history. All fields are
// immutable after Seal; an Epoch reachable from any View is safe to
// read concurrently with ingestion forever.
type Epoch struct {
	// ID is the observer's snapshot ID for this epoch.
	ID packet.SeqID
	// Seq is the seal sequence number (ingest order, starting at 1).
	Seq uint64
	// ScheduledAt and CompletedAt bracket the snapshot's lifetime in
	// observer time.
	ScheduledAt sim.Time
	CompletedAt sim.Time
	// Sync is the snapshot's measured synchronization spread (zero when
	// unknown).
	Sync sim.Duration
	// Consistent reports whether every included unit was consistent.
	Consistent bool
	// Excluded lists devices dropped from this snapshot.
	Excluded []topology.NodeID

	// deltas holds the registers that changed since the previous sealed
	// epoch. base, when non-nil, is the full materialization of this
	// epoch's cut (checkpoint epochs only).
	deltas []Delta
	base   []Reg
	// nUnits is the unit-table length at seal time: indices >= nUnits
	// were not yet registered and are absent from this cut.
	nUnits int
}

// IsBase reports whether the epoch carries a full materialization.
func (e *Epoch) IsBase() bool { return e.base != nil }

// DeltaCount returns how many register changes the epoch recorded.
func (e *Epoch) DeltaCount() int { return len(e.deltas) }

// Config parameterizes a store.
type Config struct {
	// Retention bounds the number of retained epochs. Default 1024.
	Retention int
	// CheckpointEvery is the full-materialization cadence: every Nth
	// sealed epoch stores its complete cut alongside the delta, so
	// reconstruction walks at most N-1 delta sets. Default 16; 1 makes
	// every epoch a base (no delta chains). A Retention below it sets
	// the cadence instead, which bounds the evicted epochs kept for
	// reconstruction.
	CheckpointEvery int
	// Registry, when set, enables the store's telemetry. Nil disables
	// instrumentation.
	Registry *telemetry.Registry
}

func (c *Config) setDefaults() {
	if c.Retention <= 0 {
		c.Retention = 1024
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
}

// Store is the snapshot-history store. See the package comment for the
// concurrency contract.
type Store struct {
	cfg Config

	// Writer-owned state (single ingesting goroutine).
	unitIdx map[dataplane.UnitID]int32
	units   []dataplane.UnitID
	// order lists the dense indices in canonical unit order (unitLess).
	// Ingest walks it, so an epoch's arrival deltas come out in canonical
	// order without sorting anything per epoch.
	order []int32
	// prev is the previous sealed epoch's cut, the reference the next
	// epoch's deltas are computed against. After Seal it equals the
	// just-sealed epoch's full state.
	prev []Reg
	// seen stamps the epoch sequence that last observed each unit, so
	// Seal can detect units that dropped out of the cut.
	seen      []uint64
	cur       *Epoch
	curSeq    uint64
	sinceBase int

	view   atomic.Pointer[View]
	sealed atomic.Uint64

	tel storeTelemetry
}

// storeTelemetry is the store's metric set; all fields are nil no-ops
// without a registry.
type storeTelemetry struct {
	seals    *telemetry.Counter
	deltas   *telemetry.Counter
	bases    *telemetry.Counter
	evicted  *telemetry.Counter
	retained *telemetry.Gauge
	lag      *telemetry.Gauge
}

func newStoreTelemetry(reg *telemetry.Registry) storeTelemetry {
	return storeTelemetry{
		seals:    reg.Counter("speedlight_snapstore_seals_total", "epochs sealed into the history store"),
		deltas:   reg.Counter("speedlight_snapstore_deltas_total", "register deltas recorded across all sealed epochs"),
		bases:    reg.Counter("speedlight_snapstore_bases_total", "full-materialization (base) epochs stored"),
		evicted:  reg.Counter("speedlight_snapstore_evicted_total", "epochs compacted away by retention"),
		retained: reg.Gauge("speedlight_snapstore_epochs_retained", "epochs currently retained in the store"),
		lag:      reg.Gauge("speedlight_snapstore_lag_epochs", "observer epochs completed but not yet sealed into the store"),
	}
}

// New builds a store.
func New(cfg Config) *Store {
	cfg.setDefaults()
	return &Store{
		cfg:     cfg,
		unitIdx: make(map[dataplane.UnitID]int32),
		tel:     newStoreTelemetry(cfg.Registry),
	}
}

// Retention returns the configured epoch bound.
func (s *Store) Retention() int { return s.cfg.Retention }

// Sealed returns how many epochs have ever been sealed. Safe from any
// goroutine; with the observer's completed count it yields the
// ingestion lag behind HealthCheck.
func (s *Store) Sealed() uint64 { return s.sealed.Load() }

// RecordLag publishes the ingestion-lag gauge: how many epochs the
// observer has completed that the store has not yet sealed.
func (s *Store) RecordLag(completed uint64) {
	sealed := s.sealed.Load()
	if completed < sealed {
		completed = sealed
	}
	s.tel.lag.Set(int64(completed - sealed))
}

// HealthCheck returns a readiness check that fails when the store's
// ingestion lags the observer by more than maxLag epochs — the serving
// plane is then answering from stale history and /readyz should flip.
// completed reports the observer's completed-epoch count and must be
// safe for concurrent use.
func HealthCheck(s *Store, completed func() uint64, maxLag uint64) func() error {
	return func() error {
		done := completed()
		sealed := s.Sealed()
		if done > sealed && done-sealed > maxLag {
			return fmt.Errorf("snapshot store %d epochs behind the observer (max %d)", done-sealed, maxLag)
		}
		return nil
	}
}

// View returns the current immutable view of the history: one atomic
// load, safe from any goroutine, never blocked by ingestion. The
// returned view stays internally consistent forever; it simply stops
// including epochs sealed after it was taken.
func (s *Store) View() *View {
	if v := s.view.Load(); v != nil {
		return v
	}
	return emptyView
}

var emptyView = &View{}

// Begin opens the epoch for snapshot id. Every Observe until the
// matching Seal records one unit of the epoch's cut.
func (s *Store) Begin(id packet.SeqID, scheduledAt sim.Time) {
	if s.cur != nil {
		panic(fmt.Sprintf("snapstore: Begin(%d) with epoch %d still open", id, s.cur.ID))
	}
	s.curSeq++
	s.cur = &Epoch{
		ID:          id,
		Seq:         s.curSeq,
		ScheduledAt: scheduledAt,
		deltas:      make([]Delta, 0, len(s.units)),
	}
}

// Observe records one unit's value in the open epoch. Registers whose
// value and consistency match the previous sealed cut are elided (the
// delta encoding); duplicate observations of a unit within one epoch
// keep the first. This is the ingestion hot path: steady-state calls
// are allocation-free.
//
//speedlight:hotpath
func (s *Store) Observe(u dataplane.UnitID, value uint64, consistent bool) {
	if s.cur == nil {
		panic("snapstore: Observe without Begin")
	}
	idx, ok := s.unitIdx[u]
	if !ok {
		idx = s.register(u)
	}
	s.observe(idx, value, consistent)
}

// observe is Observe on a dense index.
//
//speedlight:hotpath
func (s *Store) observe(idx int32, value uint64, consistent bool) {
	if s.seen[idx] == s.curSeq {
		return
	}
	s.seen[idx] = s.curSeq
	p := s.prev[idx]
	if p.Present && p.Value == value && p.Consistent == consistent {
		return
	}
	s.cur.deltas = append(s.cur.deltas, Delta{Unit: idx, Value: value, Consistent: consistent, Present: true})
	s.prev[idx] = Reg{Value: value, Consistent: consistent, Present: true}
}

// register adds a unit to the dense table and to its canonical place
// in order (cold path: each unit registers once, on its first ever
// observation).
func (s *Store) register(u dataplane.UnitID) int32 {
	idx := int32(len(s.units))
	s.units = append(s.units, u)
	s.prev = append(s.prev, Reg{})
	s.seen = append(s.seen, 0)
	s.unitIdx[u] = idx
	at := sort.Search(len(s.order), func(i int) bool { return unitLess(u, s.units[s.order[i]]) })
	s.order = append(s.order, 0)
	copy(s.order[at+1:], s.order[at:])
	s.order[at] = idx
	return idx
}

// Seal closes the open epoch and publishes a new view containing it.
// Units present in the previous cut but unobserved this epoch are
// recorded as departures. Returns the sealed (now immutable) epoch.
func (s *Store) Seal(completedAt sim.Time, consistent bool, excluded []topology.NodeID, sync sim.Duration) *Epoch {
	e := s.cur
	if e == nil {
		panic("snapstore: Seal without Begin")
	}
	s.cur = nil

	// Departures: previously present units with no result this epoch.
	for idx := range s.prev {
		if s.prev[idx].Present && s.seen[idx] != s.curSeq {
			e.deltas = append(e.deltas, Delta{Unit: int32(idx), Present: false})
			s.prev[idx] = Reg{}
		}
	}
	e.CompletedAt = completedAt
	e.Consistent = consistent
	e.Sync = sync
	if len(excluded) > 0 {
		e.Excluded = append([]topology.NodeID(nil), excluded...)
	}
	e.nUnits = len(s.units)

	// Checkpoint cadence: the first epoch is a base, and so is every
	// min(CheckpointEvery, Retention)-th after it (prev is exactly this
	// epoch's state once the deltas above are applied).
	old := s.View()
	if len(old.epochs) == 0 || s.sinceBase+1 >= min(s.cfg.CheckpointEvery, s.cfg.Retention) {
		// Non-nil even for an empty cut: IsBase tests for nil.
		e.base = append(make([]Reg, 0, len(s.prev)), s.prev...)
		s.sinceBase = 0
		s.tel.bases.Inc()
	} else {
		s.sinceBase++
	}

	// The successor view is the old chain plus e. Past the retention
	// bound the oldest retained epoch is hidden; the chain then sheds
	// every epoch before the last base at or before its first retained
	// one. A base falls in every window of the cadence, so fewer than
	// min(CheckpointEvery, Retention) epochs stay hidden.
	lo := old.lo
	if old.Len() == s.cfg.Retention {
		lo++
		s.tel.evicted.Inc()
	}
	b := lo // index into old.epochs, then e
	for b < len(old.epochs) && !old.epochs[b].IsBase() {
		b--
	}
	epochs := make([]*Epoch, 0, len(old.epochs)+1-b)
	epochs = append(append(epochs, old.epochs[b:]...), e)

	v := &View{epochs: epochs, lo: lo - b, units: s.units[:len(s.units):len(s.units)]}
	s.view.Store(v)
	s.sealed.Add(1)
	s.tel.seals.Inc()
	s.tel.deltas.Add(uint64(len(e.deltas)))
	s.tel.retained.Set(int64(v.Len()))
	return e
}

// Ingest records one assembled global snapshot as a sealed epoch:
// Begin, one observation per unit result in canonical unit order, Seal.
// Only g.Results need be populated. sync is the snapshot's measured
// synchronization spread (zero when unknown). Returns the sealed epoch.
func (s *Store) Ingest(g *observer.GlobalSnapshot, sync sim.Duration) *Epoch {
	s.Begin(g.ID, g.ScheduledAt)
	known := 0
	for _, idx := range s.order {
		if res, ok := g.Results[s.units[idx]]; ok {
			s.observe(idx, res.Value, res.Consistent)
			known++
		}
	}
	if known < len(g.Results) {
		s.ingestNew(g)
	}
	return s.Seal(g.CompletedAt, g.Consistent, g.Excluded, sync)
}

// ingestNew registers and observes the units of g the table has not
// seen (cold path: the first epoch and attachments), in canonical order
// so dense indices are assigned in it, then restores canonical order
// across the epoch's deltas.
func (s *Store) ingestNew(g *observer.GlobalSnapshot) {
	var fresh []dataplane.UnitID
	for u := range g.Results {
		if _, ok := s.unitIdx[u]; !ok {
			fresh = append(fresh, u)
		}
	}
	sort.Slice(fresh, func(a, b int) bool { return unitLess(fresh[a], fresh[b]) })
	for _, u := range fresh {
		res := g.Results[u]
		s.observe(s.register(u), res.Value, res.Consistent)
	}
	d := s.cur.deltas
	sort.Slice(d, func(a, b int) bool { return unitLess(s.units[d[a].Unit], s.units[d[b].Unit]) })
}

// unitLess is the canonical unit order (switch, port, direction).
func unitLess(a, b dataplane.UnitID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Dir < b.Dir
}
