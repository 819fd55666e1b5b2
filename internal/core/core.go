// Package core implements the paper's primary contribution: the
// per-processing-unit network snapshot state machine.
//
// A processing unit is the per-port, per-direction packet processor of a
// switch (Section 4.1). Units are linearizable and connected by FIFO
// channels, which lets a modified multi-initiator Chandy–Lamport
// protocol partition all events into pre- and post-snapshot sets with
// causal consistency (Section 4.2).
//
// Two implementations live here:
//
//   - Unit is the Speedlight data-plane unit (Figures 4 and 5). It is
//     faithful to the match-action hardware's limitations: it cannot
//     loop through skipped snapshot IDs (the control plane marks those
//     inconsistent, Figure 7), it stores snapshots in a bounded register
//     array with optional ID wraparound, and it reports progress to the
//     control plane through notifications.
//
//   - IdealUnit (ideal_test.go) is the idealized algorithm of Figure 3,
//     with unbounded IDs and loop-through of skipped epochs. It exists
//     as an executable specification: tests drive Unit and IdealUnit
//     with the same packet streams and compare results.
//
// Units are pure state machines: no goroutines, no clocks. The
// simulation (internal/emunet) and the wall-clock runtimes
// (internal/live, internal/wire) drive them.
package core

import (
	"fmt"

	"speedlight/internal/packet"
)

// Metric is the local state targeted by a snapshot. The snapshot
// machinery is agnostic to the measured data (Section 3): anything that
// can be read as a register value at line rate can be snapshotted.
//
// Read must return the current state encoded into a register value,
// and must be side-effect-free: a unit reads its metric only on packets
// that may advance its snapshot ID, never on a steady-state packet (see
// Unit.OnPacket), so how often Read runs is not part of the contract.
// Update applies a data packet to the state and is orthogonal to the
// snapshot logic. Absorb folds an in-flight packet into a previously
// recorded snapshot value (channel state); metrics for which channel
// state is meaningless (e.g., instantaneous queue depth) can return the
// value unchanged.
type Metric interface {
	Read() uint64
	Update(pkt *packet.Packet)
	Absorb(snapVal uint64, pkt *packet.Packet) uint64
}

// Config describes one processing unit's snapshot support.
type Config struct {
	// MaxID is the size of the snapshot ID space and of the snapshot
	// value register array (the paper's "max snapshot id"). Must be at
	// least 2.
	MaxID uint32
	// WrapAround enables snapshot ID rollover to 0 after MaxID-1
	// (Section 5.3). Without it, IDs live in the full uint32 space and
	// the deployment must stop snapshotting before exhausting them;
	// register slots are still reused modulo MaxID. A unit's unwrapped
	// ID then never exceeds 2³²-1 (it only ever takes a wire value), so
	// wrapping is the identity and the steady-state comparison of
	// OnPacket is exact.
	WrapAround bool
	// ChannelState enables in-flight packet recording and the last-seen
	// machinery needed for it (the items marked "-" in Sections 4.2,
	// 5.1 and 5.2).
	ChannelState bool
	// NumChannels is the number of upstream neighbors, including the
	// control plane pseudo-channel. An ingress unit in switched
	// Ethernet has 2 (the external neighbor and the CPU); an egress
	// unit has one per ingress port of the device plus the CPU.
	NumChannels int
	// CPChannel is the index of the control plane's pseudo-channel in
	// the last-seen array. Its entry participates in rollover detection
	// but not in completion (Section 6). Use -1 when the unit has no
	// CPU path.
	CPChannel int
}

func (c Config) validate() error {
	if c.MaxID < 2 {
		return fmt.Errorf("core: MaxID %d < 2", c.MaxID)
	}
	if c.NumChannels < 1 {
		return fmt.Errorf("core: NumChannels %d < 1", c.NumChannels)
	}
	if c.CPChannel >= c.NumChannels {
		return fmt.Errorf("core: CPChannel %d out of range", c.CPChannel)
	}
	return nil
}

// Notification is the data plane's progress report to the control plane
// (Section 5.3). One is exported after any update of the local snapshot
// ID or of a last-seen entry, carrying the former value of the changed
// last-seen entry along with the former and new snapshot ID. Values are
// wrapped, exactly as the hardware registers hold them; the control
// plane unwraps them against its own tracking state.
type Notification struct {
	Channel     int
	OldSID      packet.WireID
	NewSID      packet.WireID
	OldLastSeen packet.WireID
	NewLastSeen packet.WireID

	// Diagnostic shadow of the transition in unwrapped form, plus the
	// in-flight absorption outcome. Hardware exports none of this — it
	// exists for the flight recorder (internal/journal), which needs
	// exact epochs where the wrapped registers are ambiguous across
	// rollover laps. The control plane must keep unwrapping the wrapped
	// fields above, exactly as it would against real hardware.
	OldSIDU   packet.SeqID
	NewSIDU   packet.SeqID
	OldSeenU  packet.SeqID
	NewSeenU  packet.SeqID
	PacketSID packet.SeqID
	// WireID is the snapshot ID the packet arrived with, before any
	// restamping.
	WireID packet.WireID
	// Absorbed reports that the packet was in flight (PacketSID behind
	// the unit's epoch) and was folded into the current slot's channel
	// state; AbsorbMissed that it was in flight but found no open slot.
	Absorbed     bool
	AbsorbMissed bool
}

// SIDChanged reports whether the unit's snapshot ID advanced.
func (n Notification) SIDChanged() bool { return n.OldSID != n.NewSID }

// LastSeenChanged reports whether the last-seen entry advanced.
func (n Notification) LastSeenChanged() bool { return n.OldLastSeen != n.NewLastSeen }

// slot is one entry of the snapshot value register array. id records the
// unwrapped ID the slot was written for. Hardware stores only the
// wrapped form — indistinguishable across rollover laps, which is
// exactly why the observer enforces the no-lapping assumption and the
// control plane reads values promptly (Section 5.3). The unwrapped
// shadow makes RegSnapshot strictly safer than the hardware register
// (a lapped read returns "not held" instead of a later epoch's value)
// without changing behaviour under correct operation.
type slot struct {
	id    packet.SeqID
	valid bool
	value uint64
}

// Unit is a Speedlight data-plane processing unit.
type Unit struct {
	cfg    Config
	metric Metric

	sid      packet.SeqID   // current snapshot ID, unwrapped
	wsid     packet.WireID  // sid wrapped: the current-ID register
	lastSeen []packet.SeqID // per-channel last seen ID, unwrapped
	snaps    []slot         // register array, indexed by sid mod MaxID
	note     Notification   // OnPacket's report, valid until the next step
}

// NewUnit creates a processing unit with all state zeroed, as when a new
// device attaches to the network (Section 6): its first traffic will
// jump it forward to the network's current snapshot ID.
func NewUnit(cfg Config, metric Metric) (*Unit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if metric == nil {
		return nil, fmt.Errorf("core: nil metric")
	}
	return &Unit{
		cfg:      cfg,
		metric:   metric,
		lastSeen: make([]packet.SeqID, cfg.NumChannels),
		snaps:    make([]slot, cfg.MaxID),
	}, nil
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Metric returns the unit's metric.
func (u *Unit) Metric() Metric { return u.metric }

// Wrap converts an unwrapped snapshot ID to its on-wire / in-register
// form: the ID modulo maxID when rollover is enabled, or a plain
// truncation otherwise (Section 5.3). Together with Unwrap it is the
// only blessed crossing between the ordered SeqID domain and the
// ambiguous WireID domain; the wrappedcmp analyzer flags conversions
// anywhere else.
func Wrap(id packet.SeqID, maxID uint32, wrapAround bool) packet.WireID {
	if wrapAround {
		return packet.WireID(uint64(id) % uint64(maxID))
	}
	return packet.WireID(id)
}

// Unwrap resolves a wire ID against a reference unwrapped ID (a
// last-seen entry or the control plane's tracking state — the rollover
// reference of Section 5.3) using serial-number arithmetic: a forward
// distance below half the ID space means the wire ID is ahead of the
// reference; anything else means it is at or behind it (an in-flight
// packet, or a stale/duplicate control-plane initiation, which must be
// ignored rather than misread as a rollover, Section 6). The observer
// keeps all live IDs within half the space, making the resolution exact.
func Unwrap(wire packet.WireID, ref packet.SeqID, maxID uint32, wrapAround bool) packet.SeqID {
	if !wrapAround {
		return packet.SeqID(wire)
	}
	m := uint64(maxID)
	delta := (uint64(wire) + m - uint64(Wrap(ref, maxID, wrapAround))) % m
	if delta < m/2 {
		return ref + packet.SeqID(delta)
	}
	behind := packet.SeqID(m - delta)
	if behind > ref {
		return 0 // older than anything this unit has seen
	}
	return ref - behind
}

// RolledOver reports whether a wire register that advanced from old to
// new lapped zero (Section 5.3). Unwrapped progress only moves forward,
// so a numerically smaller new register value is exactly a rollover.
// This is the one sanctioned ordering question about wire IDs, and it
// compares raw register values on purpose: callers detecting rollover
// (telemetry, the flight recorder) must not be required to unwrap
// first, since rollover detection is an input to unwrapping.
func RolledOver(old, new packet.WireID) bool {
	return new.Raw() < old.Raw()
}

// wrap converts an unwrapped ID to its on-wire / in-register form.
func (u *Unit) wrap(id packet.SeqID) packet.WireID {
	return Wrap(id, u.cfg.MaxID, u.cfg.WrapAround)
}

// unwrap resolves a wire ID against a reference unwrapped ID.
func (u *Unit) unwrap(wire packet.WireID, ref packet.SeqID) packet.SeqID {
	return Unwrap(wire, ref, u.cfg.MaxID, u.cfg.WrapAround)
}

// slotOf returns the register-array slot an unwrapped ID maps to.
func (u *Unit) slotOf(id packet.SeqID) *slot {
	return &u.snaps[uint64(id)%uint64(u.cfg.MaxID)]
}

// OnPacket runs the snapshot pipeline of Figures 4 and 5 on a packet
// arriving on the given upstream channel. It mutates the packet's
// snapshot header (stamping the unit's current ID for the next hop) and
// returns the packet's unwrapped snapshot ID and the unit's report of
// the step: nil when it moved no register and absorbed nothing, else
// the unit's own Notification, valid until the unit's next step. An
// absorb moves no register, so the caller exports a report only when
// SIDChanged or LastSeenChanged.
//
// The packet must carry a snapshot header; adding headers at the
// snapshot-enabled edge is the data plane wiring's job (Section 5.1).
//
// A packet carrying the unit's own epoch on a channel that has already
// seen it is the steady state: nothing can advance, so it costs one
// register compare and the metric update — no unwrap, no slot, no
// Metric.Read, no report, as the hardware exports nothing (Section 5.3).
//
//speedlight:hotpath
func (u *Unit) OnPacket(pkt *packet.Packet, channel int) (packet.SeqID, *Notification) {
	if !pkt.HasSnap {
		panic("core: OnPacket without snapshot header")
	}
	if channel < 0 || channel >= u.cfg.NumChannels {
		panic(fmt.Sprintf("core: channel %d out of range [0,%d)", channel, u.cfg.NumChannels))
	}
	hdr := &pkt.Snap

	if hdr.ID == u.wsid && u.lastSeen[channel] == u.sid {
		if hdr.Type == packet.TypeData {
			u.metric.Update(pkt)
		}
		return u.sid, nil
	}

	// Read the target state before applying this packet: a snapshot
	// triggered by this packet must not include its effects (Figure 3
	// saves state before the final update; see also the proof sketch).
	preState := u.metric.Read()

	oldSID := u.sid
	oldLS := u.lastSeen[channel]
	wireID := hdr.ID

	// Resolve the wire ID against this channel's last-seen entry — the
	// reference that makes rollover detection possible (Section 5.3).
	psid := u.unwrap(hdr.ID, oldLS)
	if psid > u.lastSeen[channel] {
		u.lastSeen[channel] = psid
	}

	var absorbed, absorbMissed bool
	switch {
	case psid > u.sid:
		// New snapshot: save local state for epoch psid. The hardware
		// writes exactly one slot per packet, so epochs skipped over
		// (oldSID+1 .. psid-1) are left unsaved; the control plane
		// recovers them (without channel state) or marks them
		// inconsistent (with channel state), per Figure 7.
		s := u.slotOf(psid)
		s.id = psid
		s.valid = true
		s.value = preState
		u.sid = psid
		u.wsid = u.wrap(psid)
	case psid < u.sid && u.cfg.ChannelState && hdr.Type == packet.TypeData:
		// In-flight packet: absorb into the *current* snapshot's
		// channel state. Ideally every epoch in (psid, sid] would
		// absorb it, but the ASIC performs one stateful update per
		// register array per packet; intermediate epochs are the
		// inconsistent ones the control plane tracks.
		s := u.slotOf(u.sid)
		if s.valid && s.id == u.sid {
			s.value = u.metric.Absorb(s.value, pkt)
			absorbed = true
		} else {
			absorbMissed = true
		}
	}

	// Update the target state. Initiation messages are control traffic:
	// they are never counted (Section 6).
	if hdr.Type == packet.TypeData {
		u.metric.Update(pkt)
	}

	// Stamp the outgoing header with the (possibly advanced) local ID.
	hdr.ID = u.wrap(u.sid)

	if u.sid == oldSID && u.lastSeen[channel] == oldLS && !absorbed && !absorbMissed {
		return psid, nil // an in-flight packet with nothing to fold into
	}
	u.note = Notification{
		Channel:     channel,
		OldSID:      u.wrap(oldSID),
		NewSID:      u.wrap(u.sid),
		OldLastSeen: u.wrap(oldLS),
		NewLastSeen: u.wrap(u.lastSeen[channel]),

		OldSIDU:      oldSID,
		NewSIDU:      u.sid,
		OldSeenU:     oldLS,
		NewSeenU:     u.lastSeen[channel],
		PacketSID:    psid,
		WireID:       wireID,
		Absorbed:     absorbed,
		AbsorbMissed: absorbMissed,
	}
	return psid, &u.note
}

// Register read-back interface: the control plane reads these over PCIe
// in hardware (Section 7.2), or directly in emulation.

// RegCurrentSID returns the wrapped current snapshot ID register.
func (u *Unit) RegCurrentSID() packet.WireID { return u.wsid }

// RegLastSeen returns the wrapped last-seen register for a channel.
func (u *Unit) RegLastSeen(ch int) packet.WireID { return u.wrap(u.lastSeen[ch]) }

// RegSnapshot returns the snapshot value recorded for the (unwrapped)
// snapshot ID, and whether the register slot actually holds that
// snapshot (a slot is invalid when the epoch was skipped, never
// initiated, or already overwritten by a later lap).
func (u *Unit) RegSnapshot(id packet.SeqID) (uint64, bool) {
	s := u.slotOf(id)
	if !s.valid || s.id != id {
		return 0, false
	}
	return s.value, true
}

// CurrentSID returns the unit's unwrapped snapshot ID. Emulation-side
// observability only; hardware exposes just the wrapped register.
func (u *Unit) CurrentSID() packet.SeqID { return u.sid }

// LastSeenUnwrapped returns the unit's unwrapped last-seen entry.
// Emulation-side observability only.
func (u *Unit) LastSeenUnwrapped(ch int) packet.SeqID { return u.lastSeen[ch] }
