package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Full-packet wire format, used by transports that carry emulated
// packets as bytes (internal/wire's UDP data plane):
//
//	byte  0:     magic (0xA6)
//	byte  1:     version (1)
//	byte  2:     flags (bit 0: snapshot header present;
//	             bits 4-7: class of service)
//	byte  3:     protocol
//	bytes 4-7:   source host
//	bytes 8-11:  destination host
//	bytes 12-13: source port
//	bytes 14-15: destination port
//	bytes 16-19: frame size
//	bytes 20-27: sequence number
//	bytes 28-35: snapshot header (iff flag bit 0), own codec
//
// The frame size field carries the emulated frame length; the encoded
// message itself is fixed-size (no payload bytes are shipped).
const (
	pktMagic   = 0xA6
	pktVersion = 1

	flagHasSnap = 1 << 0

	// PacketBaseLen is the encoded size without the snapshot header.
	PacketBaseLen = 28
	// PacketMaxLen is the encoded size with the snapshot header.
	PacketMaxLen = PacketBaseLen + HeaderLen
)

// Codec errors for full packets.
var (
	ErrPacketShort      = errors.New("packet: buffer too short for packet")
	ErrPacketBadMagic   = errors.New("packet: bad packet magic")
	ErrPacketBadVersion = errors.New("packet: unsupported packet version")
)

// AppendBinary appends the packet's encoding to dst and returns the
// extended slice. With at least PacketMaxLen of spare capacity in dst
// it allocates nothing.
//
//speedlight:hotpath
func (p *Packet) AppendBinary(dst []byte) []byte {
	flags := (p.CoS & 0x0f) << 4
	if p.HasSnap {
		flags |= flagHasSnap
	}
	dst = append(dst,
		pktMagic,
		pktVersion,
		flags,
		p.Proto,
		byte(p.SrcHost>>24), byte(p.SrcHost>>16), byte(p.SrcHost>>8), byte(p.SrcHost),
		byte(p.DstHost>>24), byte(p.DstHost>>16), byte(p.DstHost>>8), byte(p.DstHost),
		byte(p.SrcPort>>8), byte(p.SrcPort),
		byte(p.DstPort>>8), byte(p.DstPort),
		byte(p.Size>>24), byte(p.Size>>16), byte(p.Size>>8), byte(p.Size),
		byte(p.Seq>>56), byte(p.Seq>>48), byte(p.Seq>>40), byte(p.Seq>>32),
		byte(p.Seq>>24), byte(p.Seq>>16), byte(p.Seq>>8), byte(p.Seq),
	)
	if p.HasSnap {
		dst = p.Snap.AppendBinary(dst)
	}
	return dst
}

// UnmarshalBinary decodes a packet.
func (p *Packet) UnmarshalBinary(data []byte) error {
	if len(data) < PacketBaseLen {
		return ErrPacketShort
	}
	if data[0] != pktMagic {
		return ErrPacketBadMagic
	}
	if data[1] != pktVersion {
		return fmt.Errorf("%w: %d", ErrPacketBadVersion, data[1])
	}
	p.Proto = data[3]
	p.SrcHost = binary.BigEndian.Uint32(data[4:8])
	p.DstHost = binary.BigEndian.Uint32(data[8:12])
	p.SrcPort = binary.BigEndian.Uint16(data[12:14])
	p.DstPort = binary.BigEndian.Uint16(data[14:16])
	p.Size = binary.BigEndian.Uint32(data[16:20])
	p.Seq = binary.BigEndian.Uint64(data[20:28])
	p.CoS = data[2] >> 4
	p.HasSnap = data[2]&flagHasSnap != 0
	if p.HasSnap {
		if len(data) < PacketMaxLen {
			return ErrPacketShort
		}
		return p.Snap.UnmarshalBinary(data[PacketBaseLen:PacketMaxLen])
	}
	p.Snap = SnapshotHeader{}
	return nil
}
