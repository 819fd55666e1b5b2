// Package control implements Speedlight's per-switch control plane
// (Section 6): it initiates snapshots at every local processing unit,
// consumes data-plane notifications to detect snapshot completion and
// inconsistency (Figure 7), reads snapshot values back from the data
// plane registers, and recovers from notification drops by polling.
//
// The control plane is the second tier of the bipartite design: the
// data plane guarantees consistency of what it records, while the
// control plane fills in everything the match-action hardware cannot do
// — tracking progress across epochs, recognizing the snapshots that
// skipped IDs left unusable, and shipping finished values to the
// snapshot observer.
//
// Like internal/core, this package is a pure state machine: the
// emulation harness decides when notifications arrive and when timers
// fire, passing virtual time in explicitly.
package control

import (
	"fmt"
	"slices"

	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
)

// Result is one finished per-unit snapshot, as shipped to the snapshot
// observer.
type Result struct {
	Unit       dataplane.UnitID
	SnapshotID packet.SeqID
	// Value is the recorded state (meaningful only when Consistent).
	Value uint64
	// Consistent is false for snapshots invalidated by skipped IDs in
	// the channel-state variant (Figure 7) or lost to register reuse.
	Consistent bool
	// ReadAt is the virtual time the control plane finalized the value.
	ReadAt sim.Time
}

// Config describes one control plane.
type Config struct {
	// Switch is the local data plane. Required.
	Switch *dataplane.Switch
	// CompletionChannels returns, for a unit, the upstream channels that
	// gate snapshot completion in the channel-state variant. Nil (or a
	// nil function) selects every non-CPU channel. Operators use this to
	// remove upstream neighbors that structurally carry no traffic
	// (Section 6, liveness).
	CompletionChannels func(id dataplane.UnitID) []int
	// OnResult receives finished snapshots. Required.
	OnResult func(Result)
	// Journal receives the plane's protocol events (initiations,
	// notifications serviced, polls, finalized results): the flight
	// recorder's record and, counted, the plane's telemetry. Normally
	// the same ring the switch's dataplane writes to. Nil disables
	// both.
	Journal *journal.Journal
}

// unitState is the controller's view of one processing unit (the
// ctrlSnapID / ctrlLastSeen / lastRead state of Figure 7).
type unitState struct {
	id         dataplane.UnitID
	unit       *core.Unit
	snapID     packet.SeqID // ctrlSnapID, unwrapped
	lastSeen   []packet.SeqID
	lastRead   packet.SeqID
	gateChans  []int
	inconsists map[packet.SeqID]bool
}

// Plane is one switch's snapshot control plane.
type Plane struct {
	cfg          Config
	jr           *journal.Journal
	channelState bool
	maxID        uint32
	wrap         bool

	// units is indexed 2*port+dir, the order of Switch.UnitIDs().
	units []*unitState
	// initiated tracks the highest snapshot ID this plane has initiated,
	// so re-initiations know what to resend.
	initiated packet.SeqID
	// inits is the slice Initiate returns, reused by the next call.
	inits []Initiation
}

// New builds a control plane for a switch.
func New(cfg Config) (*Plane, error) {
	if cfg.Switch == nil {
		return nil, fmt.Errorf("control: nil switch")
	}
	if cfg.OnResult == nil {
		return nil, fmt.Errorf("control: nil OnResult")
	}
	swCfg := cfg.Switch.Config()
	p := &Plane{
		cfg:          cfg,
		jr:           cfg.Journal,
		channelState: swCfg.ChannelState,
		maxID:        swCfg.MaxID,
		wrap:         swCfg.WrapAround,
	}
	ids := cfg.Switch.UnitIDs()
	p.units = make([]*unitState, len(ids))
	for i, id := range ids {
		u := cfg.Switch.Unit(id)
		st := &unitState{
			id:         id,
			unit:       u,
			lastSeen:   make([]packet.SeqID, u.Config().NumChannels),
			inconsists: make(map[packet.SeqID]bool),
		}
		if cfg.CompletionChannels != nil {
			st.gateChans = cfg.CompletionChannels(id)
		}
		if st.gateChans == nil {
			for ch := 0; ch < u.Config().NumChannels; ch++ {
				if ch != u.Config().CPChannel {
					st.gateChans = append(st.gateChans, ch)
				}
			}
		}
		p.units[i] = st
	}
	return p, nil
}

// unitOf returns the state of a local unit, or nil when id does not
// name one.
func (p *Plane) unitOf(id dataplane.UnitID) *unitState {
	i := 2*id.Port + int(id.Dir)
	if i < 0 || i >= len(p.units) || p.units[i].id != id {
		return nil
	}
	return p.units[i]
}

// Node returns the switch this plane controls.
func (p *Plane) Node() int { return int(p.cfg.Switch.Node()) }

// wrapID converts an unwrapped ID to the wire form via the shared
// core.Wrap helper — the control plane and data plane must agree on the
// rollover rule bit-for-bit.
func (p *Plane) wrapID(id packet.SeqID) packet.WireID {
	return core.Wrap(id, p.maxID, p.wrap)
}

// unwrapID resolves a wire ID against an unwrapped reference via
// core.Unwrap (serial-number arithmetic: forward distances below half
// the ID space are ahead; the rest are at or behind). lastRead or the
// tracked ctrl state serves as the reference, exactly as the paper
// prescribes for rollback-aware comparison; the observer keeps live IDs
// within half the space.
func (p *Plane) unwrapID(wire packet.WireID, ref packet.SeqID) packet.SeqID {
	return core.Unwrap(wire, ref, p.maxID, p.wrap)
}

// Gates reports whether channel ch of a local unit gates the unit's
// snapshot completion in the channel-state variant (see
// Config.CompletionChannels).
func (p *Plane) Gates(id dataplane.UnitID, ch int) bool {
	st := p.unitOf(id)
	return st != nil && slices.Contains(st.gateChans, ch)
}

// Initiation pairs an initiation packet with the egress port whose
// per-class FIFO queue it must traverse.
type Initiation struct {
	Port int
	Pkt  *packet.Packet
}

// Initiate starts snapshot id at every local port: the CPU sends an
// initiation message to each ingress unit (Figure 6, path 3). It
// returns the initiation packets — one per (port, class of service)
// FIFO channel — which the caller must deliver to the corresponding
// egress unit through the same queues as data traffic. Duplicate or
// stale initiations are harmless: the data plane ignores them
// (Section 6). The returned slice is valid until the next call, and so
// are the packets: they are the data plane's (InitiateIngress), one set
// per port, so one call's packets for every port stand side by side.
//
//speedlight:hotpath
func (p *Plane) Initiate(id packet.SeqID, now sim.Time) []Initiation {
	re := id <= p.initiated
	if !re {
		p.initiated = id
	}
	if p.jr != nil {
		p.jr.Append(journal.Initiate(int64(now), p.Node(), id, re))
	}
	sw := p.cfg.Switch
	out := p.inits[:0]
	for port := 0; port < sw.NumPorts(); port++ {
		for _, pkt := range sw.InitiateIngress(p.wrapID(id), port, now) {
			out = append(out, Initiation{Port: port, Pkt: pkt})
		}
	}
	p.inits = out
	return out
}

// HandleNotification processes one data-plane notification, following
// Figure 7. Duplicate notifications (no new information) are dropped
// here, as the paper requires.
//
//speedlight:hotpath
func (p *Plane) HandleNotification(n dataplane.CPUNotification, now sim.Time) {
	st := p.unitOf(n.Unit)
	if st == nil {
		return
	}
	if p.jr != nil {
		p.jr.Append(journal.NotifService(int64(now), p.Node(), n.Unit.Port,
			n.Unit.Dir.Journal(), n.NewSIDU))
	}
	if p.channelState {
		p.onNotifyCS(st, n, now)
	} else {
		p.onNotifyNoCS(st, n, now)
	}
}

// onNotifyNoCS is Figure 7, lines 16-22. Without channel state a unit is
// done with a snapshot the moment it records it; skipped epochs carry
// the value of the next recorded one (the unit's state cannot have
// changed in between, or a packet would have carried the intermediate
// ID).
func (p *Plane) onNotifyNoCS(st *unitState, n dataplane.CPUNotification, now sim.Time) {
	current := p.unwrapID(n.NewSID, st.lastRead)
	if current <= st.lastRead {
		// Duplicate, or a stale value after heavy notification loss
		// pushed the unit more than half the ID space ahead of the
		// controller's view; Poll recovers the lost ground.
		return
	}
	first := st.lastRead + 1
	st.lastRead = current
	st.snapID = current
	value, ok := st.unit.RegSnapshot(current)
	res := Result{Unit: st.id, SnapshotID: current, Value: value, Consistent: ok, ReadAt: now}
	if first == current {
		p.emit(res)
		return
	}
	// Several IDs finish at once: walk downward from current, inheriting
	// values for slots that were skipped (uninitialized) or lost to
	// notification drops, then ship in ascending snapshot order.
	batch := make([]Result, current-first+1)
	batch[current-first] = res
	for i := current - 1; i >= first; i-- {
		if v, valid := st.unit.RegSnapshot(i); valid {
			res.Value, res.Consistent = v, true
		}
		res.SnapshotID = i
		batch[i-first] = res
	}
	for _, res := range batch {
		p.emit(res)
	}
}

// onNotifyCS is Figure 7, lines 1-15, with the skipped-ID marking made
// precise: when a unit's snapshot ID advances, every incomplete older
// snapshot (above the minimum last-seen) can still receive in-flight
// packets that the hardware will fold into the *current* slot only, so
// those older snapshots are inconsistent. The newly recorded snapshot
// itself remains consistent — in-flight packets for it are absorbed
// correctly.
func (p *Plane) onNotifyCS(st *unitState, n dataplane.CPUNotification, now sim.Time) {
	current := p.unwrapID(n.NewSID, st.snapID)
	if current > st.snapID {
		done := p.minGate(st)
		for i := done + 1; i < current; i++ {
			if i > st.lastRead {
				st.inconsists[i] = true
			}
		}
		st.snapID = current
	}

	newLS := p.unwrapID(n.NewLastSeen, st.lastSeen[n.Channel])
	if newLS > st.lastSeen[n.Channel] {
		st.lastSeen[n.Channel] = newLS
		p.readThrough(st, p.minGate(st), now)
	}
}

// minGate returns the smallest last-seen ID across the unit's
// completion-gating channels.
func (p *Plane) minGate(st *unitState) packet.SeqID {
	if len(st.gateChans) == 0 {
		return st.snapID
	}
	min := packet.SeqID(1<<63 - 1)
	for _, ch := range st.gateChans {
		if st.lastSeen[ch] < min {
			min = st.lastSeen[ch]
		}
	}
	return min
}

// readThrough finalizes every snapshot from lastRead+1 through toRead:
// consistent ones are read from the data plane, inconsistent ones are
// reported as such.
func (p *Plane) readThrough(st *unitState, toRead packet.SeqID, now sim.Time) {
	if toRead <= st.lastRead {
		return
	}
	u := st.unit
	for i := st.lastRead + 1; i <= toRead; i++ {
		res := Result{Unit: st.id, SnapshotID: i, ReadAt: now}
		if !st.inconsists[i] {
			if v, ok := u.RegSnapshot(i); ok {
				res.Value = v
				res.Consistent = true
			}
		}
		delete(st.inconsists, i)
		p.emit(res)
	}
	st.lastRead = toRead
}

// emit journals and ships one finalized per-unit result.
func (p *Plane) emit(res Result) {
	if p.jr != nil {
		p.jr.Append(journal.Result(int64(res.ReadAt), int(res.Unit.Node), res.Unit.Port,
			res.Unit.Dir.Journal(), res.SnapshotID, res.Value, res.Consistent))
	}
	p.cfg.OnResult(res)
}

// Poll proactively reads every unit's registers and processes the state
// as if freshly notified, recovering from dropped notifications
// (Section 6). It is safe to call at any time.
func (p *Plane) Poll(now sim.Time) {
	if p.jr != nil {
		p.jr.Append(journal.Poll(int64(now), p.Node()))
	}
	for _, st := range p.units {
		id, u := st.id, st.unit
		if p.channelState {
			// Synthesize one notification per channel so the last-seen
			// view catches up alongside the snapshot ID.
			for ch := 0; ch < u.Config().NumChannels; ch++ {
				p.onNotifyCS(st, dataplane.CPUNotification{
					Unit: id,
					Notification: core.Notification{
						Channel:     ch,
						NewSID:      u.RegCurrentSID(),
						NewLastSeen: u.RegLastSeen(ch),
					},
					Exported: now,
				}, now)
			}
		} else {
			p.onNotifyNoCS(st, dataplane.CPUNotification{
				Unit: id,
				Notification: core.Notification{
					Channel: 0,
					NewSID:  u.RegCurrentSID(),
				},
				Exported: now,
			}, now)
		}
	}
}

// Complete reports whether snapshot id has been finalized (read or
// marked inconsistent) at every unit of this switch.
func (p *Plane) Complete(id packet.SeqID) bool {
	for _, st := range p.units {
		if st.lastRead < id {
			return false
		}
	}
	return true
}
