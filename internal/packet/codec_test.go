package packet

import (
	"testing"
	"testing/quick"
)

func TestPacketRoundTripWithSnapshot(t *testing.T) {
	p := Packet{
		SrcHost: 1, DstHost: 2, SrcPort: 3, DstPort: 4, Proto: 6,
		Size: 1500, Seq: 42, CoS: 5,
		HasSnap: true,
		Snap:    SnapshotHeader{Type: TypeInitiation, ID: 0xabcdef, Channel: 9},
	}
	data := p.AppendBinary(nil)
	if len(data) != PacketMaxLen {
		t.Fatalf("encoded length %d", len(data))
	}
	var got Packet
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: got %+v, want %+v", got, p)
	}
}

func TestPacketRoundTripWithoutSnapshot(t *testing.T) {
	p := Packet{SrcHost: 9, DstHost: 8, Proto: 17, Size: 64, Seq: 1}
	data := p.AppendBinary(nil)
	if len(data) != PacketBaseLen {
		t.Fatalf("encoded length %d", len(data))
	}
	var got Packet
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: got %+v, want %+v", got, p)
	}
}

// Property: any packet round-trips exactly.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(src, dst, size uint32, sport, dport uint16, proto, cos uint8,
		seq uint64, hasSnap bool, snapType uint8, snapID uint32, snapCh uint16) bool {
		p := Packet{
			SrcHost: src, DstHost: dst, SrcPort: sport, DstPort: dport,
			Proto: proto, Size: size, Seq: seq, CoS: cos & 0x0f, HasSnap: hasSnap,
		}
		if hasSnap {
			p.Snap = SnapshotHeader{Type: Type(snapType & 0x0f), ID: WireIDFromRaw(snapID), Channel: snapCh}
		}
		data := p.AppendBinary(nil)
		var got Packet
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketUnmarshalErrors(t *testing.T) {
	var p Packet
	if err := p.UnmarshalBinary(make([]byte, 10)); err != ErrPacketShort {
		t.Errorf("short: %v", err)
	}
	good := (&Packet{HasSnap: true}).AppendBinary(nil)

	bad := append([]byte(nil), good...)
	bad[0] = 0
	if err := p.UnmarshalBinary(bad); err != ErrPacketBadMagic {
		t.Errorf("magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[1] = 99
	if err := p.UnmarshalBinary(bad); err == nil {
		t.Error("version accepted")
	}

	// Truncated snapshot header.
	if err := p.UnmarshalBinary(good[:PacketBaseLen+2]); err != ErrPacketShort {
		t.Errorf("truncated snap: %v", err)
	}
}

// Fuzz-style: random byte soup never panics and either errors or
// produces a re-encodable packet.
func TestPacketDecodeGarbage(t *testing.T) {
	f := func(data []byte) bool {
		var p Packet
		if err := p.UnmarshalBinary(data); err != nil {
			return true
		}
		return len(p.AppendBinary(nil)) >= PacketBaseLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
