package core

// Test-only exports of the wraparound arithmetic and of a unit's
// completion point.

import "speedlight/internal/packet"

// WrapForTest exposes wrap.
func (u *Unit) WrapForTest(id packet.SeqID) packet.WireID { return u.wrap(id) }

// UnwrapForTest exposes unwrap.
func (u *Unit) UnwrapForTest(wire packet.WireID, ref packet.SeqID) packet.SeqID {
	return u.unwrap(wire, ref)
}

// MinLastSeen returns the smallest last-seen ID across channels,
// excluding the control plane pseudo-channel, which participates only in
// rollover detection (Section 6). Snapshots up to this ID are complete
// at this unit (Figure 3, line 12).
func (u *Unit) MinLastSeen() packet.SeqID {
	min := packet.SeqID(1<<63 - 1)
	found := false
	for ch, ls := range u.lastSeen {
		if ch == u.cfg.CPChannel {
			continue
		}
		found = true
		if ls < min {
			min = ls
		}
	}
	if !found {
		return u.sid
	}
	return min
}
