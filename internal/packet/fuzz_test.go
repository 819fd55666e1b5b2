package packet

import (
	"bytes"
	"testing"
)

// FuzzSnapshotHeaderDecode checks that arbitrary bytes never panic the
// header decoder, and that anything accepted re-encodes to the same
// bytes (the codec is canonical).
func FuzzSnapshotHeaderDecode(f *testing.F) {
	seed := SnapshotHeader{Type: TypeInitiation, ID: 77, Channel: 3}.AppendBinary(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xA5})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h SnapshotHeader
		if err := h.UnmarshalBinary(data); err != nil {
			return
		}
		out := h.AppendBinary(nil)
		if !bytes.Equal(out, data[:HeaderLen]) {
			t.Fatalf("codec not canonical: %x -> %+v -> %x", data[:HeaderLen], h, out)
		}
	})
}

// FuzzPacketDecode checks the full-packet decoder: no panics, and
// accepted inputs survive a decode/encode/decode round trip.
func FuzzPacketDecode(f *testing.F) {
	p := Packet{SrcHost: 1, DstHost: 2, SrcPort: 3, DstPort: 4, Proto: 6,
		Size: 1500, Seq: 9, CoS: 2, HasSnap: true,
		Snap: SnapshotHeader{Type: TypeData, ID: 5, Channel: 1}}
	seed := p.AppendBinary(nil)
	f.Add(seed)
	f.Add(seed[:PacketBaseLen])
	f.Add([]byte{0xA6, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Packet
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		out := got.AppendBinary(nil)
		var again Packet
		if err := again.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if again != got {
			t.Fatalf("round trip diverged: %+v vs %+v", got, again)
		}
	})
}
