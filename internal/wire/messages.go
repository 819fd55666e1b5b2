// Package wire deploys Speedlight over real UDP sockets: every switch
// is a socket-owning node exchanging encoded packets with its neighbors,
// control planes ship results to an observer node over the same
// network, and snapshot initiations arrive as datagrams — the shape of
// an actual deployment, with the same protocol state machines the
// simulator drives.
//
// A datagram is a train: one or more frames laid back to back. A switch
// takes its socket's backlog a burst at a time and answers with one
// datagram per neighbour socket, so a loaded network pays a kernel round
// trip per burst, not per frame, and an idle one sends trains of one —
// byte for byte the single-message datagrams the observer sends (see
// switchNode.Burst). Hosts send trains too: Inject only queues its frame,
// and one host-transmit goroutine writes each switch's queue out as
// trains, so a loaded host pays a kernel round trip per train and an
// idle one still sends one datagram per packet (see hostTx).
//
// The deployment and its host loop — routes, completion gates, one
// node.Switch per topology node, the observer and its timers, the switch
// goroutines, the recovery check and relay, TakeSnapshot and the clock —
// are a live.Runtime, the same one package live runs over mailboxes.
// What is written here is what a UDP transport adds: the sockets, the
// frame codec, the trains, the hosts' transmit queue, the host sink's
// socket and the observer host, which reads its socket's backlog before
// it runs the Runtime's recovery check (Deployment.runObserver).
//
// The package exists for two reasons: it exercises the binary codecs
// end-to-end through the kernel's loopback, and it demonstrates that
// nothing in the protocol implementation depends on the simulator. UDP
// may drop under load, and the protocol's recovery machinery
// (re-initiation, register polls) recovers loss, as it must on a lossy
// ASIC-to-CPU path. It recovers nothing else: channel state needs each
// channel in FIFO order, and the deployment relies on loopback keeping
// one sender's datagrams in order (see switchNode). Nothing here
// enforces that order yet: ROADMAP item 22 is open to make it so.
package wire

import (
	"encoding/binary"
	"errors"

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
// frame to dst and returns the extended slice, so appending to a buffer
// that already holds frames extends the train, and a caller that reuses
// its buffer encodes without allocating. Every send context in this
// package owns its buffers exclusively: a switch node's goroutine is
// the only writer of its staging buffers (results included — OnResult
// fires on the switch goroutine), the host-transmit goroutine of its
// trains, a host send encodes into its switch's queue under the hosts'
// lock, and a control send into a buffer of its own.
//
// Frames carry no length prefix: a frame's length follows from its own
// first bytes — the type byte, and for the two packet-carrying types
// the packet's snapshot-header flag — so a train of one frame is the
// datagram this package always sent, and nothing on the wire says
// "train".

// maxMsgLen bounds every frame this package produces: a staging buffer
// with this much room takes whatever comes next.
const maxMsgLen = 5 + packet.PacketMaxLen

// frameLen returns the length of the frame at the head of data, which
// must hold all of it: a short, unknown or overrunning head is an
// error, and what a truncated datagram means.
//
//speedlight:hotpath
func frameLen(data []byte) (int, error) {
	if len(data) == 0 {
		return 0, ErrMsgShort
	}
	n, pkt := 0, 0 // the fixed part's length; where the frame's packet starts, if it carries one
	switch data[0] {
	case msgData:
		n, pkt = 3+packet.PacketBaseLen, 3
	case msgHostDeliver:
		n, pkt = 5+packet.PacketBaseLen, 5
	case msgInitiate:
		n = 9
	case msgResult:
		n = resultLen
	case msgPoll:
		n = 1
	default:
		return 0, ErrMsgUnknown
	}
	// Byte 2 of an encoded packet is its flags, bit 0 of them the
	// snapshot header's presence (internal/packet/codec.go).
	if pkt > 0 && len(data) >= n && data[pkt+2]&1 != 0 {
		n += packet.HeaderLen
	}
	if len(data) < n {
		return 0, ErrMsgShort
	}
	return n, nil
}

// next splits the frame at the head of a train from the rest of it:
// the one walker of datagrams, for the switch, the observer and the
// sink alike. A nil frame ends the walk — at the end of the train, or
// at a head frameLen refuses, with the frames before it already
// handled.
//
//speedlight:hotpath
func next(train []byte) (frame, rest []byte) {
	n, err := frameLen(train)
	if err != nil {
		return nil, nil
	}
	return train[:n], train[n:]
}

// appendData appends a framed packet arriving at a switch ingress port.
//
//speedlight:hotpath
func appendData(dst []byte, port int, p *packet.Packet) []byte {
	dst = append(dst, msgData, byte(port>>8), byte(port))
	return p.AppendBinary(dst)
}

// decodeData parses a msgData frame into p, zeroed first so that a
// reused packet carries nothing over.
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

// decodeHostDeliver parses a msgHostDeliver frame into p, as decodeData
// does.
func decodeHostDeliver(data []byte, p *packet.Packet) (topology.HostID, error) {
	if len(data) < 5 {
		return 0, ErrMsgShort
	}
	*p = packet.Packet{}
	return topology.HostID(binary.BigEndian.Uint32(data[1:5])), p.UnmarshalBinary(data[5:])
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
