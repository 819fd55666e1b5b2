package packet

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPacketFitsThe48ByteClass pins the field order: every runtime that
// decodes packets off a wire allocates one per delivery, and a Packet
// over 48 bytes rounds up to the 64-byte class.
func TestPacketFitsThe48ByteClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 40 {
		t.Errorf("Packet is %d bytes, want <= 40: keep the one-byte fields together and Seq last", n)
	}
}

func TestTypeString(t *testing.T) {
	if TypeData.String() != "data" {
		t.Error("TypeData string")
	}
	if TypeInitiation.String() != "initiation" {
		t.Error("TypeInitiation string")
	}
	if Type(9).String() != "type(9)" {
		t.Error("unknown type string")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := SnapshotHeader{Type: TypeInitiation, ID: 0xdeadbeef, Channel: 513}
	data := h.AppendBinary(nil)
	if len(data) != HeaderLen {
		t.Fatalf("encoded length %d", len(data))
	}
	var got SnapshotHeader
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
}

// TestHeaderCodecAllocs gates the snapshot header's wire codec: with
// room in the buffer, an encode and a decode allocate nothing.
//
//speedlight:allocgate packet.SnapshotHeader.AppendBinary
func TestHeaderCodecAllocs(t *testing.T) {
	h := SnapshotHeader{Type: TypeData, ID: 123456, Channel: 17}
	buf := make([]byte, 0, HeaderLen)
	var out SnapshotHeader
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = h.AppendBinary(buf[:0])
		if err := out.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("header encode and decode allocate %.1f/op, want 0", allocs)
	}
	if out != h {
		t.Fatalf("round trip: got %+v, want %+v", out, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(typ uint8, id uint32, ch uint16) bool {
		h := SnapshotHeader{Type: Type(typ & 0x0f), ID: WireIDFromRaw(id), Channel: ch}
		data := h.AppendBinary(nil)
		var got SnapshotHeader
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var h SnapshotHeader
	if err := h.UnmarshalBinary(make([]byte, 3)); err != ErrShortBuffer {
		t.Errorf("short buffer: %v", err)
	}
	bad := make([]byte, HeaderLen)
	bad[0] = 0x00
	if err := h.UnmarshalBinary(bad); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	good := SnapshotHeader{}.AppendBinary(nil)
	good[1] = 0x2<<4 | 0 // future version
	if err := h.UnmarshalBinary(good); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
}

func TestFlowHashStable(t *testing.T) {
	p := Packet{SrcHost: 1, DstHost: 2, SrcPort: 1000, DstPort: 80, Proto: 6}
	q := p
	if p.FlowHash() != q.FlowHash() {
		t.Error("identical tuples must hash equal")
	}
}

func TestFlowHashDiscriminates(t *testing.T) {
	base := Packet{SrcHost: 1, DstHost: 2, SrcPort: 1000, DstPort: 80, Proto: 6}
	perturbations := []Packet{
		{SrcHost: 2, DstHost: 2, SrcPort: 1000, DstPort: 80, Proto: 6},
		{SrcHost: 1, DstHost: 3, SrcPort: 1000, DstPort: 80, Proto: 6},
		{SrcHost: 1, DstHost: 2, SrcPort: 1001, DstPort: 80, Proto: 6},
		{SrcHost: 1, DstHost: 2, SrcPort: 1000, DstPort: 81, Proto: 6},
		{SrcHost: 1, DstHost: 2, SrcPort: 1000, DstPort: 80, Proto: 17},
	}
	h := base.FlowHash()
	for i := range perturbations {
		if perturbations[i].FlowHash() == h {
			t.Errorf("perturbation %d collided with base", i)
		}
	}
}

func TestFlowHashIgnoresNonTupleFields(t *testing.T) {
	a := Packet{SrcHost: 1, DstHost: 2, SrcPort: 3, DstPort: 4, Proto: 5, Size: 100, Seq: 7}
	b := a
	b.Size = 9000
	b.Seq = 99
	b.HasSnap = true
	b.Snap = SnapshotHeader{ID: 42}
	if a.FlowHash() != b.FlowHash() {
		t.Error("hash must depend only on the 5-tuple")
	}
}

func TestClone(t *testing.T) {
	p := &Packet{SrcHost: 1, HasSnap: true, Snap: SnapshotHeader{ID: 7}}
	q := p.Clone()
	if q == p {
		t.Fatal("Clone returned same pointer")
	}
	q.Snap.ID = 8
	if p.Snap.ID != 7 {
		t.Error("mutating clone affected original")
	}
}

func TestWireBytesLayout(t *testing.T) {
	h := SnapshotHeader{Type: TypeData, ID: 0x01020304, Channel: 0x0506}
	data := h.AppendBinary(nil)
	want := []byte{0xA5, 0x10, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
	if !bytes.Equal(data, want) {
		t.Errorf("wire bytes = %x, want %x", data, want)
	}
}
