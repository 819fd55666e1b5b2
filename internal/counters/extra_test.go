package counters

import (
	"testing"

	"speedlight/internal/packet"
)

func TestHighWater(t *testing.T) {
	var h HighWater
	h.Set(3)
	h.Set(9)
	h.Set(2)
	if h.Read() != 9 {
		t.Errorf("high water = %d, want 9", h.Read())
	}
	h.Reset()
	if h.Read() != 2 {
		t.Errorf("after reset = %d, want 2", h.Read())
	}
	h.Update(&packet.Packet{})
	if h.Read() != 2 {
		t.Error("Update changed high water")
	}
	if h.Absorb(7, &packet.Packet{}) != 7 {
		t.Error("Absorb should be identity")
	}
}
