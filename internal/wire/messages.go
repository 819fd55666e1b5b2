// Package wire deploys Speedlight over real UDP sockets: every switch
// is a socket-owning node exchanging encoded packets with its neighbors,
// control planes ship results to an observer node over the same
// network, and snapshot initiations arrive as datagrams — the shape of
// an actual deployment, with the same protocol state machines the
// simulator drives.
//
// The package exists for two reasons: it exercises the binary codecs
// end-to-end through the kernel's loopback, and it demonstrates that
// nothing in the protocol implementation depends on the simulator. UDP
// may drop or reorder under load; the protocol's recovery machinery
// (re-initiation, register polls) is expected to cope, exactly as it
// must on a lossy ASIC-to-CPU path.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// Message types on the wire.
const (
	// msgData carries an emulated packet between switches (or from a
	// host into an edge port).
	msgData = 0x01
	// msgHostDeliver carries a packet from an edge switch to a host.
	msgHostDeliver = 0x02
	// msgInitiate asks a switch control plane to initiate a snapshot.
	msgInitiate = 0x03
	// msgResult ships one finished unit result to the observer.
	msgResult = 0x04
	// msgPoll asks a switch control plane to poll its registers.
	msgPoll = 0x05
)

// Codec errors.
var (
	ErrMsgShort   = errors.New("wire: message too short")
	ErrMsgUnknown = errors.New("wire: unknown message type")
)

// The encoders are append-into-caller-buffer APIs: each appends one
// framed message to dst and returns the extended slice, so a caller
// that reuses a scratch buffer (appendX(scratch[:0], ...)) encodes
// without allocating. Every send context in this package owns its
// scratch exclusively: a switch node's goroutine is the only writer of
// its connection (results included — OnResult fires on the switch
// goroutine), and the retry loop keeps its own.

// maxMsgLen bounds every framed message this package produces, sizing
// scratch buffers so steady state never grows them.
const maxMsgLen = 5 + packet.PacketMaxLen

// appendData appends a framed packet arriving at a switch ingress port.
//
//speedlight:hotpath
func appendData(dst []byte, port int, p *packet.Packet) []byte {
	dst = append(dst, msgData, byte(port>>8), byte(port))
	return p.AppendBinary(dst)
}

// decodeData parses a msgData payload (after the type byte check) into
// p, zeroed first so that a reused packet carries nothing over.
//
//speedlight:hotpath
func decodeData(data []byte, p *packet.Packet) (port int, err error) {
	if len(data) < 3 {
		return 0, ErrMsgShort
	}
	*p = packet.Packet{}
	return int(binary.BigEndian.Uint16(data[1:3])), p.UnmarshalBinary(data[3:])
}

// appendHostDeliver appends a framed packet delivered to a host.
//
//speedlight:hotpath
func appendHostDeliver(dst []byte, host topology.HostID, p *packet.Packet) []byte {
	h := uint32(host)
	dst = append(dst, msgHostDeliver, byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
	return p.AppendBinary(dst)
}

func decodeHostDeliver(data []byte) (topology.HostID, *packet.Packet, error) {
	if len(data) < 5 {
		return 0, nil, ErrMsgShort
	}
	host := topology.HostID(binary.BigEndian.Uint32(data[1:5]))
	p := &packet.Packet{}
	if err := p.UnmarshalBinary(data[5:]); err != nil {
		return 0, nil, err
	}
	return host, p, nil
}

// appendInitiate appends a framed snapshot initiation command.
func appendInitiate(dst []byte, id packet.SeqID) []byte {
	v := uint64(id)
	return append(dst, msgInitiate,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func decodeInitiate(data []byte) (packet.SeqID, error) {
	if len(data) < 9 {
		return 0, ErrMsgShort
	}
	return packet.SeqID(binary.BigEndian.Uint64(data[1:9])), nil
}

// pollMsg is the (static, immutable) register-poll command frame.
var pollMsg = [1]byte{msgPoll}

// resultLen is the encoded size of a control.Result.
const resultLen = 1 + 4 + 2 + 1 + 8 + 8 + 1 + 8

// appendResult appends one framed unit snapshot for the observer.
//
//speedlight:hotpath
func appendResult(dst []byte, r control.Result) []byte {
	var dir byte
	if r.Unit.Dir == dataplane.Egress {
		dir = 1
	}
	var consistent byte
	if r.Consistent {
		consistent = 1
	}
	node := uint32(r.Unit.Node)
	port := uint16(r.Unit.Port)
	sid := uint64(r.SnapshotID)
	readAt := uint64(r.ReadAt)
	return append(dst, msgResult,
		byte(node>>24), byte(node>>16), byte(node>>8), byte(node),
		byte(port>>8), byte(port),
		dir,
		byte(sid>>56), byte(sid>>48), byte(sid>>40), byte(sid>>32),
		byte(sid>>24), byte(sid>>16), byte(sid>>8), byte(sid),
		byte(r.Value>>56), byte(r.Value>>48), byte(r.Value>>40), byte(r.Value>>32),
		byte(r.Value>>24), byte(r.Value>>16), byte(r.Value>>8), byte(r.Value),
		consistent,
		byte(readAt>>56), byte(readAt>>48), byte(readAt>>40), byte(readAt>>32),
		byte(readAt>>24), byte(readAt>>16), byte(readAt>>8), byte(readAt))
}

func decodeResult(data []byte) (control.Result, error) {
	if len(data) < resultLen {
		return control.Result{}, ErrMsgShort
	}
	dir := dataplane.Ingress
	if data[7] == 1 {
		dir = dataplane.Egress
	}
	return control.Result{
		Unit: dataplane.UnitID{
			Node: topology.NodeID(binary.BigEndian.Uint32(data[1:5])),
			Port: int(binary.BigEndian.Uint16(data[5:7])),
			Dir:  dir,
		},
		SnapshotID: packet.SeqID(binary.BigEndian.Uint64(data[8:16])),
		Value:      binary.BigEndian.Uint64(data[16:24]),
		Consistent: data[24] == 1,
		ReadAt:     sim.Time(binary.BigEndian.Uint64(data[25:33])),
	}, nil
}

// msgTypeOf returns the message type byte, validating length.
func msgTypeOf(data []byte) (byte, error) {
	if len(data) < 1 {
		return 0, ErrMsgShort
	}
	switch data[0] {
	case msgData, msgHostDeliver, msgInitiate, msgResult, msgPoll:
		return data[0], nil
	default:
		return 0, fmt.Errorf("%w: 0x%02x", ErrMsgUnknown, data[0])
	}
}
