package wire

import (
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// FuzzWireMessages feeds arbitrary datagrams to the one walker and every
// per-type decoder behind it. Contract: no input panics; every step of
// the walk consumes at least one byte and the steps tile a prefix of the
// datagram; the walk stops only at the end or at a head frameLen
// refuses; and any frame that decodes survives an encode/decode round
// trip unchanged, the re-encoding as long as the frame walked (the
// encoders and frameLen agree on where a frame ends), even when decoded
// into a dirty reused packet.
func FuzzWireMessages(f *testing.F) {
	// One well-formed seed per message type, plus pathological shapes.
	pkt := &packet.Packet{
		SrcHost: 1,
		DstHost: 2,
		SrcPort: 1000,
		DstPort: 2000,
		Proto:   17,
		Size:    1500,
		Seq:     99,
		CoS:     1,
	}
	f.Add(appendData(nil, 3, pkt))
	f.Add(appendHostDeliver(nil, topology.HostID(12), pkt))
	f.Add(appendInitiate(nil, packet.SeqID(41)))
	f.Add(pollMsg[:])
	res := control.Result{
		Unit:       dataplane.UnitID{Node: 2, Port: 5, Dir: dataplane.Egress},
		SnapshotID: 17,
		Value:      123456,
		Consistent: true,
		ReadAt:     999,
	}
	f.Add(appendResult(nil, res))
	f.Add([]byte{})
	f.Add([]byte{msgData})
	f.Add([]byte{msgResult, 0xff})
	f.Add([]byte{0x7f, 0x00, 0x01})
	// Trains: mixed, with a snapshot header mid-train, and a garbage tail.
	snap := *pkt
	snap.HasSnap, snap.Snap = true, packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 3}
	train := appendData(appendInitiate(append(appendResult(nil, res), msgPoll), 41), 3, &snap)
	f.Add(appendHostDeliver(train, topology.HostID(12), pkt))
	f.Add(append(appendData(appendData(appendData(nil, 1, pkt), 2, &snap), 3, pkt), 0xEE, 0x01, 0x02))

	f.Fuzz(func(t *testing.T, data []byte) {
		handled := 0
		for frame, rest := next(data); frame != nil; frame, rest = next(rest) {
			if len(frame) == 0 || handled+len(frame)+len(rest) != len(data) {
				t.Fatalf("step at %d of %d: frame %d bytes, rest %d", handled, len(data), len(frame), len(rest))
			}
			handled += len(frame)
			roundTrip(t, frame)
		}
		if handled < len(data) {
			if n, err := frameLen(data[handled:]); err == nil {
				t.Fatalf("walk stopped at %d of %d before a whole %d-byte frame", handled, len(data), n)
			}
		}
	})
}

// roundTrip decodes one walked frame, re-encodes it and decodes that.
func roundTrip(t *testing.T, frame []byte) {
	var enc []byte
	switch frame[0] {
	case msgData:
		p, p2 := &packet.Packet{}, &packet.Packet{Seq: 1, HasSnap: true} // reused: decodeData zeroes
		port, err := decodeData(frame, p)
		if err != nil {
			return // the walker sizes frames; it does not vouch for their contents
		}
		enc = appendData(nil, port, p)
		port2, err := decodeData(enc, p2)
		if err != nil {
			t.Fatalf("re-encoded data message does not decode: %v", err)
		}
		if port2 != port || *p2 != *p {
			t.Fatalf("data round trip: (%d, %+v) -> (%d, %+v)", port, p, port2, p2)
		}
	case msgHostDeliver:
		p, p2 := &packet.Packet{}, &packet.Packet{Seq: 1, HasSnap: true}
		host, err := decodeHostDeliver(frame, p)
		if err != nil {
			return
		}
		enc = appendHostDeliver(nil, host, p)
		host2, err := decodeHostDeliver(enc, p2)
		if err != nil {
			t.Fatalf("re-encoded host-deliver does not decode: %v", err)
		}
		if host2 != host || *p2 != *p {
			t.Fatalf("host-deliver round trip: (%d, %+v) -> (%d, %+v)", host, p, host2, p2)
		}
	case msgInitiate:
		id, err := decodeInitiate(frame)
		if err != nil {
			t.Fatalf("a walked initiate frame does not decode: %v", err)
		}
		enc = appendInitiate(nil, id)
		if id2, err := decodeInitiate(enc); err != nil || id2 != id {
			t.Fatalf("initiate round trip: %d -> %d (%v)", id, id2, err)
		}
	case msgResult:
		r, err := decodeResult(frame)
		if err != nil {
			t.Fatalf("a walked result frame does not decode: %v", err)
		}
		enc = appendResult(nil, r)
		if r2, err := decodeResult(enc); err != nil || r2 != r {
			t.Fatalf("result round trip: %+v -> %+v (%v)", r, r2, err)
		}
	case msgPoll:
		enc = pollMsg[:]
	default:
		t.Fatalf("walker handed out a frame of unknown type 0x%02x", frame[0])
	}
	if len(enc) != len(frame) {
		t.Fatalf("type 0x%02x: walked %d bytes, the encoder writes %d", frame[0], len(frame), len(enc))
	}
}
