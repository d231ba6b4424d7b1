package flip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"amoeba/internal/bufpool"
	"amoeba/internal/netw"
)

// HeaderSize is the encoded FLIP header size in bytes, matching the 40-byte
// FLIP header the paper counts in its 116 bytes of per-packet protocol
// overhead.
const HeaderSize = 40

// MaxFragmentPayload is the largest FLIP payload carried in one link frame.
const MaxFragmentPayload = netw.MTU - HeaderSize

// MaxMessageSize bounds a single FLIP message (fragment count is a uint16).
const MaxMessageSize = MaxFragmentPayload * 1024

// packetType discriminates FLIP packets.
type packetType uint8

const (
	ptData   packetType = iota + 1 // unicast or multicast data fragment
	ptLocate                       // broadcast "who owns this address?"
	ptHere                         // unicast answer to a locate
)

const headerVersion = 1

// header is the wire header of every FLIP packet.
//
// Layout (40 bytes):
//
//	off size field
//	0   1    version
//	1   1    type
//	2   2    reserved flags
//	4   8    src address
//	12  8    dst address
//	20  4    message id (per-sender, for reassembly)
//	24  2    fragment index
//	26  2    fragment count
//	28  4    total message length
//	32  4    CRC32 over header (checksum field zeroed) + payload
//	36  4    reserved
type header struct {
	typ       packetType
	src, dst  Address
	msgID     uint32
	fragIndex uint16
	fragCount uint16
	totalLen  uint32
}

// Errors surfaced by packet decoding.
var (
	errShortPacket  = errors.New("flip: packet shorter than header")
	errBadVersion   = errors.New("flip: unknown header version")
	errBadChecksum  = errors.New("flip: checksum mismatch (garbled packet)")
	errBadFragment  = errors.New("flip: inconsistent fragment fields")
	errTooLarge     = errors.New("flip: message exceeds maximum size")
	errZeroAddress  = errors.New("flip: zero address")
	errStackClosed  = errors.New("flip: stack closed")
	errUnregistered = errors.New("flip: source address not registered")
)

// encodePacket renders a header and payload into a pooled frame buffer, which
// the caller puts back once the link-layer send it was encoded for returns
// (netw.Station.Send only borrows its payload).
func encodePacket(h header, payload []byte) []byte {
	buf := bufpool.Get(HeaderSize + len(payload))
	// Every header byte is written: a pooled buffer arrives dirty.
	buf[0] = headerVersion
	buf[1] = byte(h.typ)
	buf[2], buf[3] = 0, 0
	binary.BigEndian.PutUint64(buf[4:], uint64(h.src))
	binary.BigEndian.PutUint64(buf[12:], uint64(h.dst))
	binary.BigEndian.PutUint32(buf[20:], h.msgID)
	binary.BigEndian.PutUint16(buf[24:], h.fragIndex)
	binary.BigEndian.PutUint16(buf[26:], h.fragCount)
	binary.BigEndian.PutUint32(buf[28:], h.totalLen)
	binary.BigEndian.PutUint64(buf[32:], 0) // checksum (filled in below) and reserved
	copy(buf[HeaderSize:], payload)
	// Checksum with the checksum field zeroed.
	sum := crc32.ChecksumIEEE(buf)
	binary.BigEndian.PutUint32(buf[32:], sum)
	return buf
}

// decodePacket parses and validates a frame buffer. The returned payload
// aliases buf.
func decodePacket(buf []byte) (header, []byte, error) {
	if len(buf) < HeaderSize {
		return header{}, nil, errShortPacket
	}
	if buf[0] != headerVersion {
		return header{}, nil, fmt.Errorf("%w: %d", errBadVersion, buf[0])
	}
	sum := binary.BigEndian.Uint32(buf[32:])
	binary.BigEndian.PutUint32(buf[32:], 0)
	actual := crc32.ChecksumIEEE(buf)
	binary.BigEndian.PutUint32(buf[32:], sum)
	if actual != sum {
		return header{}, nil, errBadChecksum
	}
	h := header{
		typ:       packetType(buf[1]),
		src:       Address(binary.BigEndian.Uint64(buf[4:])),
		dst:       Address(binary.BigEndian.Uint64(buf[12:])),
		msgID:     binary.BigEndian.Uint32(buf[20:]),
		fragIndex: binary.BigEndian.Uint16(buf[24:]),
		fragCount: binary.BigEndian.Uint16(buf[26:]),
		totalLen:  binary.BigEndian.Uint32(buf[28:]),
	}
	if h.fragCount == 0 || h.fragIndex >= h.fragCount {
		return header{}, nil, errBadFragment
	}
	return h, buf[HeaderSize:], nil
}
