package counters

import (
	"speedlight/internal/core"
	"speedlight/internal/packet"
)

// HighWater is a gauge that also tracks the maximum value it has held
// since the last reset. Snapshotting the high-water mark of queue depth
// catches microbursts that an instantaneous gauge would miss between
// snapshots — the O(10 µs) bursts the paper's Section 2.1 cites as the
// reason asynchronous measurement fails.
type HighWater struct {
	cur uint64
	max uint64
}

var _ core.Metric = (*HighWater)(nil)

// Set updates the current value, raising the high-water mark if needed.
func (h *HighWater) Set(v uint64) {
	h.cur = v
	if v > h.max {
		h.max = v
	}
}

// Reset clears the high-water mark down to the current value, e.g.
// after a snapshot epoch has been read out.
func (h *HighWater) Reset() { h.max = h.cur }

// Read implements core.Metric: the snapshotted value is the high-water
// mark.
func (h *HighWater) Read() uint64 { return h.max }

// Update implements core.Metric; packet arrival does not by itself move
// an externally maintained gauge.
func (h *HighWater) Update(*packet.Packet) {}

// Absorb implements core.Metric: a maximum has no meaningful channel
// state.
func (h *HighWater) Absorb(snapVal uint64, _ *packet.Packet) uint64 { return snapVal }
