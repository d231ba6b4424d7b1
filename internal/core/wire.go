package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"amoeba/internal/bufpool"
	"amoeba/internal/flip"
)

// GroupHeaderSize is the encoded group-protocol header, matching the 28-byte
// group header the paper counts in its 116 bytes of per-packet overhead.
const GroupHeaderSize = 28

// MemberID numbers a member within a group. The sequencer is not always
// member 0 (after recovery any member may sequence), so the sequencer is
// named explicitly in the view.
type MemberID uint16

// noMember marks an invalid or unassigned member id.
const noMember MemberID = 0xffff

// pktType discriminates group-protocol packets.
type pktType uint8

const (
	// Data path.
	ptReq       pktType = iota + 1 // member → sequencer: order this message (PB)
	ptBcast                        // sequencer → group: ordered message
	ptBBData                       // member → group: unordered payload (BB)
	ptAccept                       // sequencer → group: assign seqno to a BB message, or finalise a tentative
	ptTentative                    // sequencer → group: ordered but unaccepted (resilience)
	ptAck                          // member → sequencer: stored tentative seqno
	ptNak                          // member → sequencer: retransmit [seq, aux]
	ptRetrans                      // sequencer → member: retransmitted ordered message
	ptSync                         // sequencer → group: seqno watermark + history floor
	ptLost                         // sequencer → member: seqno unrecoverable after failure (r=0 loss)
	ptStatusReq                    // sequencer → member: report your state
	ptStatus                       // member → sequencer: lastRecv report
	// Membership.
	ptJoinReq  // prospective member → group: request to join
	ptJoinAck  // sequencer → joiner: view snapshot
	ptLeaveReq // member → sequencer: request to leave
	ptStale    // sequencer → sender: your view/membership is stale
	ptHandoff  // departing sequencer → group: new sequencer may take over
	// Recovery (ResetGroup).
	ptResetInvite // coordinator → all: join recovery epoch
	ptResetVote   // member → coordinator: state report
	ptResetFetch  // coordinator → member: send me stored range
	ptResetResult // coordinator → all survivors: new view
	ptResetAck    // member → coordinator: installed new view
)

// MsgKind labels deliveries handed to the application.
type MsgKind uint8

// Delivery kinds. Data carries application payload; the others are
// membership events, totally ordered in the same stream as data (the paper's
// guarantee that joins, leaves, and recoveries are observed in the same order
// by all members).
const (
	KindData MsgKind = iota + 1
	KindJoin
	KindLeave
	KindReset
	KindExpelled // local endpoint was removed from the group
	// KindLost is internal: a sequence number whose message was lost to a
	// processor failure in a resilience-0 group. Never delivered to the
	// application; the stream silently skips it (paper §2.1: with r=0,
	// messages may be lost when processors fail).
	KindLost
	// KindBatch is internal: several KindData messages from one sender
	// coalesced into a single wire request / history entry / multicast. The
	// entry occupies a contiguous seqno range and is delivered to the
	// application as its constituent KindData messages, one per seqno, so
	// batching is invisible above the protocol. The batch body is
	// self-describing (see encodeBatchBody), which keeps the group header
	// at its paper-faithful 28 bytes.
	KindBatch
)

func (k MsgKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindReset:
		return "reset"
	case KindExpelled:
		return "expelled"
	case KindLost:
		return "lost"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// packet is the decoded group-protocol header plus payload.
//
// Field use varies by type; the invariant layout is:
//
//	off size field
//	0   1    type
//	1   1    kind (delivery kind for data-bearing packets)
//	2   2    sender member id
//	4   4    view incarnation
//	8   4    seqno
//	12  4    localID (sender-local message id, for dedup and BB matching)
//	16  4    lastRecv (piggybacked acknowledgement state)
//	20  4    aux   (nak range end, history floor, resilience degree, new seq id)
//	24  4    aux2  (BB sender id for accepts, handoff seq, …)
type packet struct {
	typ      pktType
	kind     MsgKind
	sender   MemberID
	view     uint32
	seq      uint32
	localID  uint32
	lastRecv uint32
	aux      uint32
	aux2     uint32
	payload  []byte
}

var errShortGroupPacket = errors.New("core: packet shorter than group header")

// stampsSender reports whether the transmitting member's id goes in the
// sender field. Relayed packet types (broadcasts, tentatives,
// retransmissions) instead carry the ORIGINATING member there, set by the
// sequencer when it constructs them.
func stampsSender(t pktType) bool {
	switch t {
	case ptBcast, ptTentative, ptRetrans, ptJoinAck, ptStale,
		ptResetFetch, ptResetResult, ptStatusReq, ptLost:
		return false
	default:
		return true
	}
}

// carriesPiggyback reports whether the lastRecv field of an inbound packet is
// a member's acknowledgement report the sequencer may consume. Only
// member→sequencer packet types qualify; on relayed packets the field is the
// relayer's own state.
func carriesPiggyback(t pktType) bool {
	switch t {
	case ptReq, ptAck, ptNak, ptStatus, ptBBData, ptLeaveReq:
		return true
	default:
		return false
	}
}

// encode renders the packet for the wire into a pooled buffer, which the
// caller puts back once the transport send it was encoded for returns
// (Transport only borrows its payload). Every header byte is written: a
// pooled buffer arrives dirty.
func (p packet) encode() []byte {
	buf := bufpool.Get(GroupHeaderSize + len(p.payload))
	buf[0] = byte(p.typ)
	buf[1] = byte(p.kind)
	binary.BigEndian.PutUint16(buf[2:], uint16(p.sender))
	binary.BigEndian.PutUint32(buf[4:], p.view)
	binary.BigEndian.PutUint32(buf[8:], p.seq)
	binary.BigEndian.PutUint32(buf[12:], p.localID)
	binary.BigEndian.PutUint32(buf[16:], p.lastRecv)
	binary.BigEndian.PutUint32(buf[20:], p.aux)
	binary.BigEndian.PutUint32(buf[24:], p.aux2)
	copy(buf[GroupHeaderSize:], p.payload)
	return buf
}

// decodePacket parses a group packet. The payload aliases buf.
func decodePacket(buf []byte) (packet, error) {
	if len(buf) < GroupHeaderSize {
		return packet{}, errShortGroupPacket
	}
	return packet{
		typ:      pktType(buf[0]),
		kind:     MsgKind(buf[1]),
		sender:   MemberID(binary.BigEndian.Uint16(buf[2:])),
		view:     binary.BigEndian.Uint32(buf[4:]),
		seq:      binary.BigEndian.Uint32(buf[8:]),
		localID:  binary.BigEndian.Uint32(buf[12:]),
		lastRecv: binary.BigEndian.Uint32(buf[16:]),
		aux:      binary.BigEndian.Uint32(buf[20:]),
		aux2:     binary.BigEndian.Uint32(buf[24:]),
		payload:  buf[GroupHeaderSize:],
	}, nil
}

// --- Batch bodies ------------------------------------------------------------
//
// A KindBatch packet or entry carries several application payloads in one
// body: uvarint payload count, then each payload as uvarint length + bytes.
// The count lives in the body rather than the header so every packet type
// that can relay ordered messages (request, broadcast, tentative,
// retransmission) carries batches without new header fields.

// maxBatchWire bounds the payload count a decoder accepts; far above any
// configured MaxBatch, it only rejects garbage.
const maxBatchWire = 1 << 12

var errBadBatch = errors.New("core: malformed batch body")

// encodeBatchBody serialises a multi-payload batch.
func encodeBatchBody(payloads [][]byte) []byte {
	n := binary.MaxVarintLen32
	for _, p := range payloads {
		n += binary.MaxVarintLen32 + len(p)
	}
	buf := make([]byte, 0, n)
	buf = binary.AppendUvarint(buf, uint64(len(payloads)))
	for _, p := range payloads {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// splitBatchBody checks a batch body and splits it into its payload count
// and the payloads' bytes, which nextBatchPart reads one at a time. It
// allocates nothing. A payload takes at least its length byte, so the count
// is believed only up to the bytes left.
func splitBatchBody(body []byte) (count int, parts []byte, err error) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n == 0 || n > maxBatchWire || n > uint64(len(body)-w) {
		return 0, nil, errBadBatch
	}
	parts = body[w:]
	rest := parts
	for i := uint64(0); i < n; i++ {
		l, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < l {
			return 0, nil, errBadBatch
		}
		rest = rest[w+int(l):]
	}
	if len(rest) != 0 {
		return 0, nil, errBadBatch
	}
	return int(n), parts, nil
}

// nextBatchPart splits the first payload off the payload bytes of a batch
// body that splitBatchBody accepted.
func nextBatchPart(parts []byte) (part, rest []byte) {
	n, w := binary.Uvarint(parts)
	end := w + int(n)
	return parts[w:end:end], parts[end:]
}

// Member describes one group member in a view.
type Member struct {
	// ID is the member's number within the group.
	ID MemberID
	// Addr is the member's FLIP process address.
	Addr flip.Address
}

// view is the group composition as known to an endpoint.
type view struct {
	// incarnation increments on every recovery (ResetGroup); ordinary
	// joins and leaves mutate the member list in-stream without bumping
	// it.
	incarnation uint32
	members     []Member // sorted by ID
	sequencer   MemberID
}

func (v *view) clone() view {
	out := *v
	out.members = make([]Member, len(v.members))
	copy(out.members, v.members)
	return out
}

func (v *view) find(id MemberID) (Member, bool) {
	for _, m := range v.members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

func (v *view) findAddr(a flip.Address) (Member, bool) {
	for _, m := range v.members {
		if m.Addr == a {
			return m, true
		}
	}
	return Member{}, false
}

func (v *view) sequencerAddr() flip.Address {
	if m, ok := v.find(v.sequencer); ok {
		return m.Addr
	}
	return 0
}

// add inserts a member keeping the list sorted by ID.
func (v *view) add(m Member) {
	for i, e := range v.members {
		if e.ID == m.ID {
			v.members[i] = m
			return
		}
		if e.ID > m.ID {
			v.members = append(v.members[:i], append([]Member{m}, v.members[i:]...)...)
			return
		}
	}
	v.members = append(v.members, m)
}

// remove deletes a member by id.
func (v *view) remove(id MemberID) {
	for i, e := range v.members {
		if e.ID == id {
			v.members = append(v.members[:i], v.members[i+1:]...)
			return
		}
	}
}

// nextID returns the lowest unused member id.
func (v *view) nextID() MemberID {
	var id MemberID
	for _, m := range v.members {
		if m.ID == id {
			id++
			continue
		}
		if m.ID > id {
			break
		}
	}
	return id
}

// lowestOther returns the lowest member id that is not exclude, or noMember.
func (v *view) lowestOther(exclude MemberID) MemberID {
	for _, m := range v.members {
		if m.ID != exclude {
			return m.ID
		}
	}
	return noMember
}

// encodeView serialises a view plus a starting sequence number, used in join
// acks and reset results.
func encodeView(v view, startSeq uint32) []byte {
	buf := make([]byte, 4+4+2+2+len(v.members)*10)
	binary.BigEndian.PutUint32(buf[0:], v.incarnation)
	binary.BigEndian.PutUint32(buf[4:], startSeq)
	binary.BigEndian.PutUint16(buf[8:], uint16(v.sequencer))
	binary.BigEndian.PutUint16(buf[10:], uint16(len(v.members)))
	off := 12
	for _, m := range v.members {
		binary.BigEndian.PutUint16(buf[off:], uint16(m.ID))
		binary.BigEndian.PutUint64(buf[off+2:], uint64(m.Addr))
		off += 10
	}
	return buf
}

var errBadView = errors.New("core: malformed view encoding")

// decodeView parses an encoded view.
func decodeView(buf []byte) (view, uint32, error) {
	if len(buf) < 12 {
		return view{}, 0, errBadView
	}
	v := view{
		incarnation: binary.BigEndian.Uint32(buf[0:]),
		sequencer:   MemberID(binary.BigEndian.Uint16(buf[8:])),
	}
	startSeq := binary.BigEndian.Uint32(buf[4:])
	n := int(binary.BigEndian.Uint16(buf[10:]))
	if len(buf) < 12+n*10 {
		return view{}, 0, errBadView
	}
	off := 12
	for i := 0; i < n; i++ {
		v.members = append(v.members, Member{
			ID:   MemberID(binary.BigEndian.Uint16(buf[off:])),
			Addr: flip.Address(binary.BigEndian.Uint64(buf[off+2:])),
		})
		off += 10
	}
	return v, startSeq, nil
}
