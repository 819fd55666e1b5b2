// Package journal is Speedlight's flight recorder: an always-on,
// bounded, lock-free ring buffer of structured protocol events — the
// per-unit record of what the snapshot machinery actually did. Each
// ring also counts what it was handed by (kind, flag), overwritten or
// not, and those counts are the protocol counters a deployment's
// telemetry registry exposes; a registry without a journal gets
// counts-only rings (NewCounts) that keep no events.
//
// Each switch gets its own ring (a Set groups them, plus one for the
// observer); appends reserve a slot with a single atomic cursor
// increment and publish the event through an atomic pointer, so the
// emulation hot path and the live runtime's switch goroutines never
// contend on a lock. When a ring fills, the oldest events are
// overwritten — the "flight recorder" semantics: the recent past is
// always available for dumping when an anomaly fires.
//
// Sequencing is per ring: an event's stamp is its ring's append
// ordinal, not a position in some global order. Set.Events
// reconstructs the merged stream deterministically — sorted by
// (timestamp, ring, per-ring ordinal) and re-stamped — so the merged
// journal of a run is a pure function of what each ring logged,
// independent of wall-clock interleaving between rings. That is what
// lets the sharded parallel engine produce byte-identical journals to
// the serial reference: each ring is only appended from one
// deterministic execution context — a switch's ring from its domain's
// events, the observer ring from the observer's domain (its own
// sharded domain under the per-pair engine; the serialized global
// domain on the serial one) — and the merge key carries virtual
// timestamps and per-ring ordinals, nothing an OS scheduler or a
// shard placement can influence.
//
// Like internal/telemetry, every method is safe on a nil receiver,
// which is the disabled state: an un-journaled deployment pays one
// predicted branch per potential event and nothing else.
//
// The event stream is what internal/audit replays to verify the
// paper's causal-consistency invariants mechanically (Sections 3-6);
// internal/export serializes it for offline analysis and the
// `speedlight doctor` subcommand.
package journal

import (
	"sort"
	"sync"
	"sync/atomic"

	"speedlight/internal/packet"
)

// ObserverNode is the pseudo switch ID under which observer-side
// events are journaled in a Set. It is negative, so the observer ring
// sorts ahead of every switch ring when merged timestamps tie — an
// observer action (e.g. a retry order) precedes the switch events it
// triggers at the same instant.
const ObserverNode = -1

// DefaultCapacity is the per-ring event capacity used when a Set is
// created with a non-positive capacity.
const DefaultCapacity = 4096

// Journal is one bounded ring of events. The zero value is a
// counts-only ring, which counts what it is handed and keeps nothing;
// create rings that keep events with New or through a Set. A nil
// *Journal is the disabled state: Append is a no-op and Events returns
// nil.
type Journal struct {
	mask uint64
	// next is both the append cursor and the sequencer: an event's
	// stamp is its append ordinal in this ring. One atomic add per
	// append, no cross-ring contention.
	next atomic.Uint64
	// slots hold published events. Pointer slots keep appends lock-free
	// and dump reads race-free: a reader either sees the old event or
	// the new one, never a torn mix.
	slots []atomic.Pointer[Event]
	// cells is the current block of write-once event storage. Appends
	// claim cells from it instead of heap-allocating per event; when a
	// block is exhausted a fresh one is CASed in, so the allocation is
	// amortized over a whole block. Cells are never rewritten after
	// publication (claimed exactly once, blocks never recycled), which
	// keeps concurrent dump reads race-free.
	cells atomic.Pointer[cellBlock]
	// counts holds how many events of each (Kind, Flag) this ring has
	// been handed, at 2*Kind+Flag: the protocol counters.
	counts [2 * numKinds]atomic.Uint64
}

// cellBlock is one batch of event cells; pos is the claim cursor.
type cellBlock struct {
	pos atomic.Uint64
	evs []Event
}

// New creates a standalone ring. capacity is rounded up to a power of
// two; non-positive means DefaultCapacity.
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	j := &Journal{
		mask:  uint64(size - 1),
		slots: make([]atomic.Pointer[Event], size),
	}
	j.cells.Store(&cellBlock{evs: make([]Event, size)})
	return j
}

// Append counts the event, then stamps it with its append ordinal in
// this ring and publishes it, overwriting the oldest event once the
// ring is full; a counts-only ring stops at the count. Safe for
// concurrent use and a no-op on a nil Journal.
//
//speedlight:hotpath
func (j *Journal) Append(ev Event) {
	if j == nil {
		return
	}
	if i := countAt(ev.Kind, ev.Flag); i < len(j.counts) {
		j.counts[i].Add(1)
	}
	if j.slots == nil {
		return
	}
	pos := j.next.Add(1) - 1
	ev.Seq = pos + 1
	e := j.cell()
	*e = ev
	j.slots[pos&j.mask].Store(e)
}

// cell claims the next write-once event cell, advancing to a fresh
// block when the current one is spent.
//
//speedlight:hotpath
func (j *Journal) cell() *Event {
	for {
		blk := j.cells.Load()
		i := blk.pos.Add(1) - 1
		if i < uint64(len(blk.evs)) {
			return &blk.evs[i]
		}
		j.growCells(blk)
	}
}

// growCells is the amortized cold path: install a fresh block in place
// of the spent one. A lost CAS means another appender already did.
func (j *Journal) growCells(spent *cellBlock) {
	blk := &cellBlock{evs: make([]Event, len(j.slots))}
	j.cells.CompareAndSwap(spent, blk)
}

// Count returns how many events of kind with the given Flag this ring
// has been handed, including ones already overwritten.
func (j *Journal) Count(kind Kind, flag bool) uint64 {
	if i := countAt(kind, flag); j != nil && i < len(j.counts) {
		return j.counts[i].Load()
	}
	return 0
}

// countAt is (kind, flag)'s index in Journal.counts.
func countAt(kind Kind, flag bool) int {
	if flag {
		return 2*int(kind) + 1
	}
	return 2 * int(kind)
}

// Appended returns how many events this ring has accepted in total
// (including ones already overwritten).
func (j *Journal) Appended() uint64 {
	if j == nil {
		return 0
	}
	return j.next.Load()
}

// Overwritten returns how many events have been lost to ring reuse.
func (j *Journal) Overwritten() uint64 {
	if j == nil {
		return 0
	}
	n := j.next.Load()
	if c := uint64(len(j.slots)); n > c {
		return n - c
	}
	return 0
}

// Events returns a snapshot of the ring's current contents in append
// order. Nil on a nil Journal.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, 0, len(j.slots))
	for i := range j.slots {
		if e := j.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Set groups the per-switch rings of one deployment. A nil *Set is the
// disabled state: For and Observer return nil rings whose appends are
// no-ops.
type Set struct {
	cap int // < 0: counts-only rings

	mu    sync.Mutex
	rings map[int]*Journal
}

// NewSet creates a journal set whose rings each hold perRingCapacity
// events (rounded up to a power of two; non-positive means
// DefaultCapacity).
func NewSet(perRingCapacity int) *Set {
	return &Set{cap: perRingCapacity, rings: make(map[int]*Journal)}
}

// NewCounts creates a set of counts-only rings: each counts what it is
// handed (Count) and keeps no event, so Events reads empty.
func NewCounts() *Set {
	return &Set{cap: -1, rings: make(map[int]*Journal)}
}

// For returns the ring for a switch, creating it on first use. A nil
// Set returns a nil (no-op) ring.
func (s *Set) For(node int) *Journal {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.rings[node]
	if !ok {
		j = &Journal{}
		if s.cap >= 0 {
			j = New(s.cap)
		}
		s.rings[node] = j
	}
	return j
}

// Observer returns the observer-side ring.
func (s *Set) Observer() *Journal { return s.For(ObserverNode) }

// Appended returns the total number of events accepted across the set.
func (s *Set) Appended() uint64 { return s.sum((*Journal).Appended) }

// Overwritten sums events lost to ring reuse across the set.
func (s *Set) Overwritten() uint64 { return s.sum((*Journal).Overwritten) }

// Count sums Journal.Count over the set's rings.
func (s *Set) Count(kind Kind, flag bool) uint64 {
	return s.sum(func(j *Journal) uint64 { return j.Count(kind, flag) })
}

// sum adds up one reading of every ring; 0 on a nil Set.
func (s *Set) sum(read func(*Journal) uint64) uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for _, r := range s.sorted() {
		total += read(r.ring)
	}
	return total
}

type nodeRing struct {
	node int
	ring *Journal
}

// sorted returns the rings keyed and ordered by node ID (observer
// first), the deterministic merge rank.
func (s *Set) sorted() []nodeRing {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]nodeRing, 0, len(s.rings))
	for node, j := range s.rings {
		out = append(out, nodeRing{node: node, ring: j})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].node < out[b].node })
	return out
}

// Events merges every ring's current contents into one deterministic
// stream: sorted by (timestamp, ring node, per-ring ordinal) and
// re-stamped 1..n. Because each ring is appended from a single
// deterministic execution context, the merged stream is identical for
// any interleaving of rings — in particular, the parallel engine's
// journal matches the serial engine's byte for byte, even with the
// observer ring appended from its own sharded domain: which shard (or
// goroutine) hosts a domain never enters the key. Nil on a nil Set.
func (s *Set) Events() []Event {
	if s == nil {
		return nil
	}
	type keyed struct {
		ev   Event
		node int
	}
	var all []keyed
	for _, r := range s.sorted() {
		for _, ev := range r.ring.Events() {
			all = append(all, keyed{ev: ev, node: r.node})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.ev.AtNs != y.ev.AtNs {
			return x.ev.AtNs < y.ev.AtNs
		}
		if x.node != y.node {
			return x.node < y.node
		}
		return x.ev.Seq < y.ev.Seq
	})
	out := make([]Event, len(all))
	for i, k := range all {
		out[i] = k.ev
		out[i].Seq = uint64(i + 1)
	}
	return out
}

// Tail returns the last n events of the merged stream — the flight
// recorder dump taken when an anomaly fires.
func (s *Set) Tail(n int) []Event {
	evs := s.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// flightTail is how many trailing events an anomaly dump carries.
const flightTail = 512

// Anomaly hands a runtime's OnAnomaly hook the flight-recorder tail at
// this moment (no events on a nil Set). A nil hook is a no-op.
func (s *Set) Anomaly(hook func(reason string, snapshotID packet.SeqID, dump []Event), reason string, id packet.SeqID) {
	if hook != nil {
		hook(reason, id, s.Tail(flightTail))
	}
}
