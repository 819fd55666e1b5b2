// Package observer implements the snapshot observer: the host-side
// component that schedules network-wide snapshots, assembles per-unit
// results shipped by the switch control planes, detects global
// completion, retries incomplete snapshots, and excludes failed devices
// (Sections 3 and 6).
//
// The observer also enforces the no-lapping rule out-of-band: a new
// snapshot may not start while an incomplete snapshot more than
// MaxID-1 epochs behind is outstanding, or wrapped IDs would become
// ambiguous (Section 5.3).
package observer

import (
	"fmt"
	"slices"
	"sort"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// GlobalSnapshot is an assembled network-wide snapshot.
type GlobalSnapshot struct {
	ID packet.SeqID
	// Results holds one finished result per expected unit. Units of
	// excluded devices are absent.
	Results map[dataplane.UnitID]control.Result
	// Excluded lists devices that timed out and were dropped from this
	// snapshot (Section 6: "If a device fails, it may timeout and be
	// excluded from the global snapshot").
	Excluded []topology.NodeID
	// Consistent reports whether every included unit's value is
	// consistent.
	Consistent bool
	// ScheduledAt and CompletedAt bracket the snapshot's lifetime in
	// observer (true) time.
	ScheduledAt sim.Time
	CompletedAt sim.Time
}

// Value returns a unit's recorded value.
func (g *GlobalSnapshot) Value(id dataplane.UnitID) (uint64, bool) {
	r, ok := g.Results[id]
	if !ok || !r.Consistent {
		return 0, false
	}
	return r.Value, true
}

// Config parameterizes an observer.
type Config struct {
	// MaxID mirrors the data plane's snapshot ID space, for no-lapping
	// enforcement. Required when WrapAround.
	MaxID      uint32
	WrapAround bool
	// RetryAfter is how long a snapshot may stay incomplete before the
	// observer requests re-initiation. Zero disables retries.
	RetryAfter sim.Duration
	// ExcludeAfter is how long before missing devices are excluded and
	// the snapshot finalized without them. Zero disables exclusion.
	ExcludeAfter sim.Duration
	// OnComplete receives each finalized global snapshot. Required.
	OnComplete func(*GlobalSnapshot)
	// Telemetry receives the observer's metric updates that no journal
	// event counts. Nil disables them.
	Telemetry *Telemetry
	// Journal receives the observer's protocol events (snapshot begin,
	// accepted results, retries, exclusions, completion): the flight
	// recorder's record and, counted, the observer's protocol
	// telemetry — normally a Set's Observer() ring. Nil disables both.
	Journal *journal.Journal
}

// pending is the pooled record of one in-progress snapshot. Its slices
// run parallel to the observer's unit table as it stood at Begin.
type pending struct {
	id          packet.SeqID
	scheduledAt sim.Time
	// want marks the units still awaited: copied from the active set at
	// Begin, cleared as results arrive or devices are excluded.
	want []bool
	// res[i] belongs to this snapshot iff its SnapshotID equals id — IDs
	// never repeat, so a recycled record needs no clearing.
	res     []control.Result
	left    int // units still awaited
	got     int // results stored
	retried bool
}

// missingDevices returns the devices with awaited units, ascending.
func (p *pending) missingDevices(units []dataplane.UnitID) []topology.NodeID {
	var devs []topology.NodeID
	for i, w := range p.want {
		if w {
			devs = append(devs, units[i].Node)
		}
	}
	slices.Sort(devs)
	return slices.Compact(devs)
}

// Observer assembles global snapshots. Like the other protocol
// components it is a pure state machine driven by the harness.
type Observer struct {
	cfg Config
	tel *Telemetry

	// The unit table: every unit ever registered gets the next dense
	// index, which is never reused; active marks the units of currently
	// registered devices. devices holds each device's indices. slot is
	// the way back from a unit to its index, laid out like the switch's
	// own unit array: slot[node][2*port+dir] holds the index plus one,
	// zero where no unit was ever registered.
	slot    [][]int32
	units   []dataplane.UnitID
	active  []bool
	devices map[topology.NodeID][]int32

	nextID packet.SeqID
	pend   map[packet.SeqID]*pending
	free   []*pending // finalized records awaiting reuse
}

// New creates an observer.
func New(cfg Config) (*Observer, error) {
	if cfg.OnComplete == nil {
		return nil, fmt.Errorf("observer: nil OnComplete")
	}
	if cfg.WrapAround && cfg.MaxID < 2 {
		return nil, fmt.Errorf("observer: WrapAround requires MaxID >= 2")
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = nopTelemetry
	}
	return &Observer{
		cfg:     cfg,
		tel:     tel,
		devices: make(map[topology.NodeID][]int32),
		pend:    make(map[packet.SeqID]*pending),
	}, nil
}

// Register adds a device and its processing units to the observer's
// active set, replacing any units the device registered before. New
// devices must be registered before they are included in the next
// snapshot (Section 6, node attachment). Registering mid-flight does not
// change snapshots already in progress.
func (o *Observer) Register(node topology.NodeID, units []dataplane.UnitID) {
	o.Unregister(node)
	idxs := make([]int32, len(units))
	for k, u := range units {
		i, ok := o.lookup(u)
		if !ok {
			s := 2*u.Port + int(u.Dir)
			if u.Node < 0 || uint(u.Dir) > 1 || s < 0 {
				panic(fmt.Sprintf("observer: unit %v has no slot", u))
			}
			i = int32(len(o.units))
			o.units = append(o.units, u)
			o.active = append(o.active, false)
			if len(o.slot) <= int(u.Node) {
				o.slot = append(o.slot, make([][]int32, int(u.Node)+1-len(o.slot))...)
			}
			if row := o.slot[u.Node]; len(row) <= s {
				o.slot[u.Node] = append(row, make([]int32, s+1-len(row))...)
			}
			o.slot[u.Node][s] = i + 1
		}
		o.active[i] = true
		idxs[k] = i
		if o.cfg.Journal != nil {
			o.cfg.Journal.Append(journal.Register(int(u.Node), u.Port, u.Dir.Journal()))
		}
	}
	o.devices[node] = idxs
}

// lookup returns a unit's dense index: two slice loads, no hashing. A
// unit outside the table — unknown node, port or direction — has none.
//
//speedlight:hotpath
func (o *Observer) lookup(u dataplane.UnitID) (int32, bool) {
	if uint(u.Node) < uint(len(o.slot)) && uint(u.Dir) <= 1 {
		if row, s := o.slot[u.Node], uint(2*u.Port+int(u.Dir)); s < uint(len(row)) {
			return row[s] - 1, row[s] != 0
		}
	}
	return 0, false
}

// Unregister removes a device from the active set.
func (o *Observer) Unregister(node topology.NodeID) {
	for _, i := range o.devices[node] {
		o.active[i] = false
	}
	delete(o.devices, node)
}

// Devices returns the registered device IDs in ascending order.
func (o *Observer) Devices() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(o.devices))
	for n := range o.devices {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CanStart reports whether starting one more snapshot would respect the
// no-lapping rule: the span between the oldest incomplete snapshot and
// the new ID must stay below MaxID-1.
func (o *Observer) CanStart() bool {
	if !o.cfg.WrapAround || len(o.pend) == 0 {
		return true
	}
	oldest := o.oldestPending()
	// Live IDs must stay within half the ID space: the data and control
	// planes disambiguate rollover with serial-number arithmetic
	// against their last-seen references (Section 5.3), and stale
	// re-initiations (Section 6) must resolve as "behind", not as a
	// forward lap.
	return uint64((o.nextID+1)-oldest) <= uint64(o.cfg.MaxID)/2-1
}

func (o *Observer) oldestPending() packet.SeqID {
	oldest := packet.SeqID(1<<63 - 1)
	for id := range o.pend {
		if id < oldest {
			oldest = id
		}
	}
	return oldest
}

// Begin allocates the next snapshot ID and records the expected unit
// set. The caller is responsible for telling every device control plane
// to initiate the returned ID at the agreed time. Begin returns an
// error when the no-lapping window is full.
func (o *Observer) Begin(now sim.Time) (packet.SeqID, error) {
	if !o.CanStart() {
		return 0, fmt.Errorf("observer: snapshot window full (oldest incomplete %d, next %d, max %d)",
			o.oldestPending(), o.nextID+1, o.cfg.MaxID)
	}
	o.nextID++
	id := o.nextID
	var p *pending
	if n := len(o.free); n > 0 {
		p, o.free = o.free[n-1], o.free[:n-1]
	} else {
		p = new(pending)
	}
	*p = pending{id: id, scheduledAt: now, want: append(p.want[:0], o.active...), res: p.res}
	if len(p.res) < len(p.want) {
		p.res = append(p.res, make([]control.Result, len(p.want)-len(p.res))...)
	}
	for _, w := range p.want {
		if w {
			p.left++
		}
	}
	o.pend[id] = p
	if o.cfg.Journal != nil {
		o.cfg.Journal.Append(journal.ObsBegin(int64(now), id))
	}
	return id, nil
}

// Pending returns the number of snapshots still being assembled.
func (o *Observer) Pending() int { return len(o.pend) }

// OnResult ingests one per-unit result from a device control plane.
// Results for unknown snapshots (e.g., from a device that attached
// mid-epoch and jumped forward, Section 6) or already-excluded devices
// are ignored.
//
//speedlight:hotpath
func (o *Observer) OnResult(res control.Result, now sim.Time) {
	p, ok := o.pend[res.SnapshotID]
	if !ok {
		o.tel.ResultsIgnored.Inc()
		return
	}
	i, ok := o.lookup(res.Unit)
	if !ok || int(i) >= len(p.want) || !p.want[i] {
		o.tel.ResultsIgnored.Inc()
		return // duplicate, spurious, or registered after Begin
	}
	p.want[i] = false
	p.res[i] = res
	p.left--
	p.got++
	if o.cfg.Journal != nil {
		o.cfg.Journal.Append(journal.ObsResult(int64(now), int(res.Unit.Node), res.Unit.Port,
			res.Unit.Dir.Journal(), res.SnapshotID, res.Consistent))
	}
	if p.left == 0 {
		o.finalize(p, now, nil)
	}
}

// finalize completes a snapshot and delivers it. The public Results map
// is materialized here, once, at its final size; the record goes back
// to the free list. excluded is ascending and owned by the snapshot.
func (o *Observer) finalize(p *pending, now sim.Time, excluded []topology.NodeID) {
	delete(o.pend, p.id)
	snap := &GlobalSnapshot{
		ID:          p.id,
		Results:     make(map[dataplane.UnitID]control.Result, p.got),
		Excluded:    excluded,
		Consistent:  true,
		ScheduledAt: p.scheduledAt,
		CompletedAt: now,
	}
	for i := range p.want {
		if r := &p.res[i]; r.SnapshotID == p.id {
			snap.Results[o.units[i]] = *r
			snap.Consistent = snap.Consistent && r.Consistent
		}
	}
	o.free = append(o.free, p)
	o.tel.CompletionLatencyUS.Observe(now.Sub(snap.ScheduledAt).Micros())
	if o.cfg.Journal != nil {
		o.cfg.Journal.Append(journal.ObsComplete(int64(now), snap.ID, snap.Consistent, len(snap.Excluded)))
	}
	o.cfg.OnComplete(snap)
}

// Action is the observer's requested recovery step for a stalled
// snapshot.
type Action struct {
	SnapshotID packet.SeqID
	// Retry lists devices that should re-initiate the snapshot.
	Retry []topology.NodeID
	// Excluded lists devices dropped from the snapshot this call.
	Excluded []topology.NodeID
}

// CheckTimeouts scans pending snapshots: those older than RetryAfter get
// a retry request (once); those older than ExcludeAfter have their
// missing devices excluded, which may finalize the snapshot. With
// retries enabled, exclusion waits for a check after the retry, so a
// device is never excluded unasked, however late the checks run. The
// caller relays retry requests to the named control planes.
func (o *Observer) CheckTimeouts(now sim.Time) []Action {
	var actions []Action
	ids := make([]packet.SeqID, 0, len(o.pend))
	for id := range o.pend {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := o.pend[id]
		age := now.Sub(p.scheduledAt)
		var act Action
		act.SnapshotID = id
		if o.cfg.ExcludeAfter > 0 && age >= o.cfg.ExcludeAfter && (p.retried || o.cfg.RetryAfter <= 0) {
			// Exclude every device still missing units; the snapshot
			// finalizes without them.
			act.Excluded = p.missingDevices(o.units)
			o.finalize(p, now, append([]topology.NodeID(nil), act.Excluded...))
		} else if o.cfg.RetryAfter > 0 && age >= o.cfg.RetryAfter && !p.retried {
			p.retried = true
			act.Retry = p.missingDevices(o.units)
		}
		if o.cfg.Journal != nil {
			for _, dev := range act.Retry {
				o.cfg.Journal.Append(journal.ObsRetry(int64(now), id, int(dev)))
			}
			for _, dev := range act.Excluded {
				o.cfg.Journal.Append(journal.ObsExclude(int64(now), id, int(dev)))
			}
		}
		if len(act.Retry) > 0 || len(act.Excluded) > 0 {
			actions = append(actions, act)
		}
	}
	return actions
}
