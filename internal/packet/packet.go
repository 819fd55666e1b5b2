// Package packet defines the packet model shared by Speedlight's data
// plane, routing, and workload generators, together with the snapshot
// header that the protocol piggybacks on every packet (Section 5.1 of
// the paper).
//
// Speedlight does not require host cooperation: the header is added by
// the first snapshot-enabled device on a packet's path and stripped
// before delivery to a host. Within the emulated network the header is a
// struct field; a binary wire codec is also provided for transports that
// carry packets as bytes and for tests of partial-deployment stripping.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type distinguishes regular traffic from snapshot control messages.
type Type uint8

const (
	// TypeData marks ordinary forwarded traffic.
	TypeData Type = iota
	// TypeInitiation marks a control-plane snapshot initiation message.
	// Initiations traverse CPU -> ingress -> egress of each port and are
	// then dropped; they are never counted as in-flight channel state
	// (Section 6).
	TypeInitiation
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeInitiation:
		return "initiation"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// WireID is a wrapped snapshot ID as it appears on the wire and in
// data-plane registers: an epoch number reduced modulo the deployment's
// maximum snapshot ID (Section 5.3). WireIDs are ambiguous across
// rollover, so ordered comparisons and arithmetic on them are
// meaningless — two WireIDs may only be tested for equality. To order
// or difference snapshot epochs, first recover the unwrapped SeqID with
// core.Unwrap against a rollover reference. The wrappedcmp analyzer in
// internal/lint enforces this at compile time.
type WireID uint32

// Raw exposes the register-width representation for wire codecs and
// journal encoders. It does not bless arithmetic on the result.
func (w WireID) Raw() uint32 { return uint32(w) }

// WireIDFromRaw builds a WireID from its register-width representation,
// for wire codecs and journal decoders.
func WireIDFromRaw(v uint32) WireID { return WireID(v) }

// SeqID is an unwrapped (unbounded) snapshot sequence number: the
// monotonically increasing epoch counter kept by the control plane and
// observer. Unlike WireID it is totally ordered, so comparisons and
// arithmetic are safe. Converting a SeqID to a register-width integer
// truncates it into ambiguity; that is core.Wrap's job alone.
type SeqID uint64

// SnapshotHeader is the per-packet state of the snapshot protocol.
//
// ID is the wrapped snapshot ID: the epoch in which the packet was most
// recently sent, modulo the deployment's maximum snapshot ID. Channel
// identifies the upstream neighbor to the receiving processing unit; for
// an ingress unit there is a single external upstream (channel 0), while
// for an egress unit the ingress units of the same device are the
// upstreams and Channel carries the ingress port number.
type SnapshotHeader struct {
	Type    Type
	ID      WireID
	Channel uint16
}

// Packet is a unit of traffic in the emulated network.
//
// The addressing model is deliberately simple: hosts are identified by
// integer IDs and flows by the classic 5-tuple. Size is the full frame
// size in bytes and drives byte counters and serialization delays.
//
// The one-byte fields sit together beside Proto and Seq comes last so
// that the struct packs into 40 bytes (the 48-byte allocation class):
// every runtime that decodes packets off a wire allocates one per
// delivery.
type Packet struct {
	// 5-tuple.
	SrcHost uint32
	DstHost uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8

	// CoS is the packet's class of service (0 = best effort; higher
	// classes get strict priority). Each class is its own FIFO logical
	// channel in the snapshot model (Section 4.1): classes may
	// interleave with each other, but within a class order holds.
	CoS uint8
	// HasSnap reports whether the snapshot header (Snap) is present.
	// Packets from hosts arrive without one; the first snapshot-enabled
	// device adds it (partial deployment, Section 10).
	HasSnap bool
	// pstate is the pool lifecycle state (see pool.go). Zero for
	// packets built directly by callers, which pools never manage.
	pstate uint8

	// Size is the frame size in bytes.
	Size uint32
	Snap SnapshotHeader
	// Seq is a per-flow sequence number assigned by the generator.
	Seq uint64
}

// FlowHash returns a stable hash of the packet's 5-tuple, used by ECMP
// and flowlet load balancing. It is FNV-1a over the tuple fields with a
// final xor-fold: FNV's low-order bits disperse poorly, and consumers
// reduce the hash modulo small ECMP group sizes.
func (p *Packet) FlowHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	var buf [13]byte
	binary.BigEndian.PutUint32(buf[0:4], p.SrcHost)
	binary.BigEndian.PutUint32(buf[4:8], p.DstHost)
	binary.BigEndian.PutUint16(buf[8:10], p.SrcPort)
	binary.BigEndian.PutUint16(buf[10:12], p.DstPort)
	buf[12] = p.Proto
	for _, b := range buf {
		mix(b)
	}
	return h ^ (h >> 32)
}

// Clone returns a copy of the packet. Data plane hops mutate the
// snapshot header, so emulations that fan a packet out to multiple
// queues must clone it per copy. A clone is always external (never
// pool-managed), whatever the original's lifecycle; Pool.Clone is the
// pooled form.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pstate = pkExternal
	return &q
}

// StripSnap removes the snapshot header: what an edge port does before
// a packet leaves the snapshot-enabled network toward a host.
func (p *Packet) StripSnap() {
	p.HasSnap = false
	p.Snap = SnapshotHeader{}
}

// Wire format of the snapshot header:
//
//	byte 0:   magic (0xA5)
//	byte 1:   version (1) << 4 | type
//	bytes 2-5: snapshot ID, big endian
//	bytes 6-7: channel ID, big endian
const (
	wireMagic   = 0xA5
	wireVersion = 1
	// HeaderLen is the encoded size of a SnapshotHeader in bytes.
	HeaderLen = 8
)

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("packet: buffer too short for snapshot header")
	ErrBadMagic    = errors.New("packet: bad snapshot header magic")
	ErrBadVersion  = errors.New("packet: unsupported snapshot header version")
)

// AppendBinary appends the 8-byte encoding of the header to dst and
// returns the extended slice. With capacity in dst it allocates
// nothing.
//
//speedlight:hotpath
func (h SnapshotHeader) AppendBinary(dst []byte) []byte {
	return append(dst,
		wireMagic,
		wireVersion<<4|uint8(h.Type)&0x0f,
		byte(h.ID.Raw()>>24), byte(h.ID.Raw()>>16), byte(h.ID.Raw()>>8), byte(h.ID.Raw()),
		byte(h.Channel>>8), byte(h.Channel),
	)
}

// UnmarshalBinary decodes the header from data.
func (h *SnapshotHeader) UnmarshalBinary(data []byte) error {
	if len(data) < HeaderLen {
		return ErrShortBuffer
	}
	if data[0] != wireMagic {
		return ErrBadMagic
	}
	if data[1]>>4 != wireVersion {
		return ErrBadVersion
	}
	h.Type = Type(data[1] & 0x0f)
	h.ID = WireIDFromRaw(binary.BigEndian.Uint32(data[2:6]))
	h.Channel = binary.BigEndian.Uint16(data[6:8])
	return nil
}
