package wire

import (
	"bytes"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// FuzzWireMessages feeds arbitrary datagrams through the full wire
// codec surface: type dispatch plus every per-type decoder. Contract:
// no input panics, and any message that decodes successfully must
// survive an encode/decode round trip unchanged (the datagram a node
// would forward is the datagram it understood).
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
	f.Add(appendResult(nil, control.Result{
		Unit:       dataplane.UnitID{Node: 2, Port: 5, Dir: dataplane.Egress},
		SnapshotID: 17,
		Value:      123456,
		Consistent: true,
		ReadAt:     999,
	}))
	f.Add([]byte{})
	f.Add([]byte{msgData})
	f.Add([]byte{msgResult, 0xff})
	f.Add([]byte{0x7f, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := msgTypeOf(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		switch typ {
		case msgData:
			p, p2 := &packet.Packet{}, &packet.Packet{Seq: 1, HasSnap: true} // reused: decodeData zeroes
			port, err := decodeData(data, p)
			if err != nil {
				return
			}
			enc := appendData(nil, port, p)
			port2, err := decodeData(enc, p2)
			if err != nil {
				t.Fatalf("re-encoded data message does not decode: %v", err)
			}
			if port2 != port || *p2 != *p {
				t.Fatalf("data round trip: (%d, %+v) -> (%d, %+v)", port, p, port2, p2)
			}
		case msgHostDeliver:
			host, p, err := decodeHostDeliver(data)
			if err != nil {
				return
			}
			enc := appendHostDeliver(nil, host, p)
			host2, p2, err := decodeHostDeliver(enc)
			if err != nil {
				t.Fatalf("re-encoded host-deliver does not decode: %v", err)
			}
			if host2 != host || *p2 != *p {
				t.Fatalf("host-deliver round trip: (%d, %+v) -> (%d, %+v)", host, p, host2, p2)
			}
		case msgInitiate:
			id, err := decodeInitiate(data)
			if err != nil {
				return
			}
			id2, err := decodeInitiate(appendInitiate(nil, id))
			if err != nil || id2 != id {
				t.Fatalf("initiate round trip: %d -> %d (%v)", id, id2, err)
			}
		case msgResult:
			r, err := decodeResult(data)
			if err != nil {
				return
			}
			r2, err := decodeResult(appendResult(nil, r))
			if err != nil || r2 != r {
				t.Fatalf("result round trip: %+v -> %+v (%v)", r, r2, err)
			}
		case msgPoll:
			if !bytes.Equal(pollMsg[:], []byte{msgPoll}) {
				t.Fatal("poll encoding changed shape")
			}
		}
	})
}
