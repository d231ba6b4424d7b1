// Package cm implements the Chang–Maxemchuk reliable broadcast protocol
// (ACM TOCS 1984), the baseline the paper compares its sequencer protocol
// against (§6).
//
// Like Amoeba's protocol, CM orders messages through a central point — the
// token site — but differs in the ways the paper calls out:
//
//   - Every message is broadcast, including the ordering acknowledgements,
//     so each broadcast interrupts every machine twice: 2(n−1) interrupts
//     versus n for Amoeba's PB method.
//   - The token site moves to another member on every acknowledgement. If
//     the incoming token site is missing messages it must recover them
//     before acknowledging, costing an extra control message — hence 2 to 3
//     messages per broadcast versus Amoeba's 2.
//
// This implementation covers the failure-free ordering core used by the
// comparison experiments: rotating token site, broadcast data and
// acknowledgements, negative-acknowledgement recovery, and total-order
// delivery. The CM reformation (membership/failure) phase is out of scope —
// the paper's comparison is about the failure-free fast path.
package cm

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/flip"
	"amoeba/internal/sim"
)

// HeaderSize is the CM packet header size.
const HeaderSize = 24

type pktType uint8

const (
	ptData    pktType = iota + 1 // sender → group: payload, unordered
	ptAck                        // token site → group: seq assignment + token pass
	ptNak                        // member → member: retransmit request
	ptRetrans                    // holder → member: data + its seq
)

// packet layout (24 bytes + payload):
//
//	off size field
//	0   1    type
//	1   1    reserved
//	2   2    origin member (data sender)
//	4   4    localID (origin's message counter)
//	8   4    seq (acks, retrans)
//	12  2    next token holder (acks)
//	14  2    reserved
//	16  4    nak range end
//	20  4    reserved
type packet struct {
	typ     pktType
	origin  uint16
	localID uint32
	seq     uint32
	next    uint16
	nakHi   uint32
	payload []byte
}

func (p packet) encode() []byte {
	buf := make([]byte, HeaderSize+len(p.payload))
	buf[0] = byte(p.typ)
	binary.BigEndian.PutUint16(buf[2:], p.origin)
	binary.BigEndian.PutUint32(buf[4:], p.localID)
	binary.BigEndian.PutUint32(buf[8:], p.seq)
	binary.BigEndian.PutUint16(buf[12:], p.next)
	binary.BigEndian.PutUint32(buf[16:], p.nakHi)
	copy(buf[HeaderSize:], p.payload)
	return buf
}

var errShort = errors.New("cm: packet shorter than header")

func decode(buf []byte) (packet, error) {
	if len(buf) < HeaderSize {
		return packet{}, errShort
	}
	return packet{
		typ:     pktType(buf[0]),
		origin:  binary.BigEndian.Uint16(buf[2:]),
		localID: binary.BigEndian.Uint32(buf[4:]),
		seq:     binary.BigEndian.Uint32(buf[8:]),
		next:    binary.BigEndian.Uint16(buf[12:]),
		nakHi:   binary.BigEndian.Uint32(buf[16:]),
		payload: buf[HeaderSize:],
	}, nil
}

// Delivery is one totally-ordered message.
type Delivery struct {
	Seq     uint32
	Origin  int // member index of the sender
	Payload []byte
}

// Config assembles an Endpoint.
type Config struct {
	// Group is the broadcast address shared by all members.
	Group flip.Address
	// Self is this member's process address.
	Self flip.Address
	// Members lists every member's process address; index = member id.
	// The token starts at member 0.
	Members []flip.Address
	// Stack is the FLIP stack. Required.
	Stack *flip.Stack
	// Clock drives retransmission timers. Required.
	Clock sim.Clock
	// Meter accounts processing; nil disables.
	Meter cost.Meter
	// RetryInterval spaces sender retries (default 50 ms).
	RetryInterval time.Duration
	// NakDelay delays gap recovery (default 2 ms).
	NakDelay time.Duration
	// OnDeliver receives ordered messages.
	OnDeliver func(Delivery)
}

// Stats counts protocol events.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Acked     uint64 // acks this member broadcast as token site
	NaksSent  uint64
	Retrans   uint64
}

type msgKey struct {
	origin  uint16
	localID uint32
}

type entry struct {
	origin  uint16
	localID uint32
	payload []byte
}

// Endpoint is one CM group member.
type Endpoint struct {
	cfg  Config
	self uint16

	mu       sync.Mutex
	closed   bool
	stats    Stats
	actions  []func()
	draining bool

	// Data store: everything broadcast, keyed by origin message id.
	data map[msgKey]*entry
	// Ordering: seq → msgKey, as announced by acks.
	order map[uint32]msgKey
	// acked tracks which messages have a seq (dedup for token duty).
	acked map[msgKey]uint32
	// unacked data in arrival order, awaiting token duty.
	backlog []msgKey
	lastSeq uint32 // highest seq whose assignment we hold
	// maxKnown is the highest seq anyone has mentioned (piggybacked on
	// data packets); maxKnown > lastSeq means we missed an ack — possibly
	// one that named us token holder.
	maxKnown uint32
	holder   uint16 // who we believe holds the token
	deliver  uint32 // next seq to deliver (1-based)

	// Sending.
	nextLocal uint32
	pending   map[uint32]*sendOp // by localID

	nakTimer   sim.Timer
	nakAttempt int
}

type sendOp struct {
	localID uint32
	payload []byte
	done    func(error)
	timer   sim.Timer
}

// New builds and registers a CM endpoint. Call Start to begin.
func New(cfg Config) (*Endpoint, error) {
	if cfg.Stack == nil || cfg.Clock == nil || cfg.Group == 0 || cfg.Self == 0 {
		return nil, errors.New("cm: Group, Self, Stack, and Clock are required")
	}
	if cfg.Meter == nil {
		cfg.Meter = cost.NopMeter{}
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 50 * time.Millisecond
	}
	if cfg.NakDelay <= 0 {
		cfg.NakDelay = 2 * time.Millisecond
	}
	self := -1
	for i, a := range cfg.Members {
		if a == cfg.Self {
			self = i
		}
	}
	if self < 0 {
		return nil, errors.New("cm: Self not in Members")
	}
	ep := &Endpoint{
		cfg:     cfg,
		self:    uint16(self),
		data:    make(map[msgKey]*entry),
		order:   make(map[uint32]msgKey),
		acked:   make(map[msgKey]uint32),
		pending: make(map[uint32]*sendOp),
		deliver: 1,
	}
	cfg.Stack.Register(cfg.Self, ep.onMessage)
	cfg.Stack.JoinGroup(cfg.Group, ep.onMessage)
	return ep, nil
}

// Send broadcasts payload; done fires when the message has been ordered.
func (ep *Endpoint) Send(payload []byte, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	ep.cfg.Meter.Charge(cost.UserSend, len(payload))
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		done(errors.New("cm: endpoint closed"))
		return
	}
	ep.nextLocal++
	op := &sendOp{localID: ep.nextLocal, done: done}
	op.payload = make([]byte, len(payload))
	copy(op.payload, payload)
	ep.pending[op.localID] = op
	ep.transmitLocked(op)
	ep.mu.Unlock()
	ep.drain()
}

func (ep *Endpoint) transmitLocked(op *sendOp) {
	ep.cfg.Meter.Charge(cost.GroupOut, 0)
	// Piggyback our ordering high-water mark: a receiver that missed an
	// acknowledgement (possibly the one passing it the token) detects the
	// gap from it.
	pkt := packet{typ: ptData, origin: ep.self, localID: op.localID, seq: ep.lastSeq, payload: op.payload}.encode()
	ep.enqueue(func() { _ = ep.cfg.Stack.Multicast(ep.cfg.Self, ep.cfg.Group, pkt) })
	op.timer = ep.after(ep.cfg.RetryInterval, func() {
		if o, ok := ep.pending[op.localID]; ok {
			ep.transmitLocked(o)
		}
	})
}

// --- locking/action plumbing (same discipline as internal/core) -------------

func (ep *Endpoint) enqueue(f func()) { ep.actions = append(ep.actions, f) }

func (ep *Endpoint) drain() {
	ep.mu.Lock()
	for {
		if ep.draining || len(ep.actions) == 0 {
			ep.mu.Unlock()
			return
		}
		ep.draining = true
		acts := ep.actions
		ep.actions = nil
		ep.mu.Unlock()
		for _, a := range acts {
			a()
		}
		ep.mu.Lock()
		ep.draining = false
	}
}

func (ep *Endpoint) after(d time.Duration, fn func()) sim.Timer {
	return ep.cfg.Clock.AfterFunc(d, func() {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		fn()
		ep.mu.Unlock()
		ep.drain()
	})
}

// --- receive path ------------------------------------------------------------

func (ep *Endpoint) onMessage(m flip.Message) {
	p, err := decode(m.Payload)
	if err != nil {
		return
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	switch p.typ {
	case ptData:
		ep.cfg.Meter.Charge(cost.GroupIn, 0)
		ep.handleData(p)
	case ptAck:
		ep.cfg.Meter.Charge(cost.CtrlIn, 0)
		ep.handleAck(p)
	case ptNak:
		ep.cfg.Meter.Charge(cost.CtrlIn, 0)
		ep.handleNak(p, m.Src)
	case ptRetrans:
		ep.cfg.Meter.Charge(cost.GroupIn, 0)
		ep.handleRetrans(p)
	}
	ep.mu.Unlock()
	ep.drain()
}

func (ep *Endpoint) handleData(p packet) {
	key := msgKey{origin: p.origin, localID: p.localID}
	if p.seq > ep.maxKnown {
		ep.maxKnown = p.seq
	}
	if ep.hasGapLocked() {
		ep.armNakLocked()
	}
	if _, ok := ep.data[key]; !ok {
		pl := make([]byte, len(p.payload))
		copy(pl, p.payload)
		ep.data[key] = &entry{origin: p.origin, localID: p.localID, payload: pl}
	}
	seq, ordered := ep.acked[key]
	if !ordered {
		ep.noteBacklogLocked(key)
		ep.tokenDutyLocked()
		return
	}
	// Duplicate data for an ordered message means the origin missed the
	// acknowledgement. Whoever believes it holds the token — plus the
	// origin's deterministic successor as a backup — re-sends the
	// assignment point-to-point.
	successor := int(p.origin+1) % len(ep.cfg.Members)
	if ep.holder == ep.self || int(ep.self) == successor {
		if e, ok := ep.data[key]; ok {
			ep.stats.Retrans++
			pkt := packet{
				typ: ptRetrans, origin: e.origin, localID: e.localID,
				seq: seq, next: ep.holder, payload: e.payload,
			}.encode()
			origin := ep.cfg.Members[int(p.origin)]
			ep.enqueue(func() { _ = ep.cfg.Stack.Send(ep.cfg.Self, origin, pkt) })
		}
	}
	ep.tokenDutyLocked()
}

// noteBacklogLocked queues an unacked message for token duty, once.
func (ep *Endpoint) noteBacklogLocked(key msgKey) {
	for _, k := range ep.backlog {
		if k == key {
			return
		}
	}
	ep.backlog = append(ep.backlog, key)
}

// tokenDutyLocked performs the token site's job: assign the next sequence
// number to the oldest unacked message and pass the token along.
func (ep *Endpoint) tokenDutyLocked() {
	if ep.holder != ep.self {
		return
	}
	// Token duty requires a complete prefix: if we have gaps we must
	// recover them before acknowledging (the protocol's occasional third
	// message).
	if ep.hasGapLocked() {
		ep.armNakLocked()
		return
	}
	for len(ep.backlog) > 0 {
		key := ep.backlog[0]
		if _, done := ep.acked[key]; done {
			ep.backlog = ep.backlog[1:]
			continue
		}
		e, ok := ep.data[key]
		if !ok {
			ep.backlog = ep.backlog[1:]
			continue
		}
		_ = e
		seq := ep.lastSeq + 1
		next := uint16((int(ep.self) + 1) % len(ep.cfg.Members))
		ep.stats.Acked++
		ep.cfg.Meter.Charge(cost.GroupOut, 0)
		pkt := packet{typ: ptAck, origin: key.origin, localID: key.localID, seq: seq, next: next}.encode()
		ep.enqueue(func() { _ = ep.cfg.Stack.Multicast(ep.cfg.Self, ep.cfg.Group, pkt) })
		ep.applyAckLocked(key, seq, next)
		return // token passed; the next site acks the next message
	}
}

func (ep *Endpoint) handleAck(p packet) {
	key := msgKey{origin: p.origin, localID: p.localID}
	ep.applyAckLocked(key, p.seq, p.next)
	ep.tokenDutyLocked()
}

// applyAckLocked folds one sequence assignment into local state.
func (ep *Endpoint) applyAckLocked(key msgKey, seq uint32, next uint16) {
	if old, ok := ep.acked[key]; ok && old != seq {
		return // conflicting duplicate; first assignment wins
	}
	ep.acked[key] = seq
	ep.order[seq] = key
	// Only the newest assignment moves the token; a stale retransmission
	// must not regress our belief about who holds it.
	if seq > ep.lastSeq {
		ep.lastSeq = seq
		ep.holder = next
	}
	// The origin's pending send completes at ordering time.
	if key.origin == ep.self {
		if op, ok := ep.pending[key.localID]; ok {
			delete(ep.pending, key.localID)
			if op.timer != nil {
				op.timer.Stop()
			}
			ep.stats.Sent++
			op := op
			ep.enqueue(func() { op.done(nil) })
		}
	}
	ep.deliverReadyLocked()
	if ep.hasGapLocked() {
		ep.armNakLocked()
	}
}

func (ep *Endpoint) deliverReadyLocked() {
	for {
		key, ok := ep.order[ep.deliver]
		if !ok {
			return
		}
		e, ok := ep.data[key]
		if !ok {
			return // ordered but data missing: NAK will fetch it
		}
		seq := ep.deliver
		ep.deliver++
		ep.stats.Delivered++
		ep.cfg.Meter.Charge(cost.UserDeliver, len(e.payload))
		if ep.cfg.OnDeliver != nil {
			h := ep.cfg.OnDeliver
			pl := make([]byte, len(e.payload))
			copy(pl, e.payload)
			d := Delivery{Seq: seq, Origin: int(e.origin), Payload: pl}
			ep.enqueue(func() { h(d) })
		}
	}
}

// hasGapLocked reports an incomplete prefix: a seq up to the highest known
// assignment whose seq→message mapping or data we lack.
func (ep *Endpoint) hasGapLocked() bool {
	hi := ep.lastSeq
	if ep.maxKnown > hi {
		hi = ep.maxKnown
	}
	for s := ep.deliver; s <= hi; s++ {
		key, ok := ep.order[s]
		if !ok {
			return true
		}
		if _, ok := ep.data[key]; !ok {
			return true
		}
	}
	return false
}

func (ep *Endpoint) armNakLocked() {
	if ep.nakTimer != nil {
		return
	}
	ep.nakTimer = ep.after(ep.cfg.NakDelay, func() {
		ep.nakTimer = nil
		if !ep.hasGapLocked() {
			return
		}
		lo := ep.deliver
		hi := ep.lastSeq
		if ep.maxKnown > hi {
			hi = ep.maxKnown
		}
		ep.stats.NaksSent++
		// Start with the believed token site, then rotate through the
		// membership on each retry — the belief may be wrong, or may
		// even point at ourselves when we missed an earlier ack.
		n := len(ep.cfg.Members)
		idx := (int(ep.holder) + ep.nakAttempt) % n
		if idx == int(ep.self) {
			idx = (idx + 1) % n
		}
		ep.nakAttempt++
		target := ep.cfg.Members[idx]
		pkt := packet{typ: ptNak, seq: lo, nakHi: hi}.encode()
		ep.enqueue(func() { _ = ep.cfg.Stack.Send(ep.cfg.Self, target, pkt) })
		ep.armNakLocked() // keep trying until the gap closes
	})
}

func (ep *Endpoint) handleNak(p packet, from flip.Address) {
	for s := p.seq; s <= p.nakHi && s-p.seq < 64; s++ {
		key, ok := ep.order[s]
		if !ok {
			continue
		}
		e, ok := ep.data[key]
		if !ok {
			continue
		}
		ep.stats.Retrans++
		pkt := packet{
			typ: ptRetrans, origin: e.origin, localID: e.localID,
			seq: s, next: ep.holder, payload: e.payload,
		}.encode()
		ep.enqueue(func() { _ = ep.cfg.Stack.Send(ep.cfg.Self, from, pkt) })
	}
}

func (ep *Endpoint) handleRetrans(p packet) {
	key := msgKey{origin: p.origin, localID: p.localID}
	if _, ok := ep.data[key]; !ok {
		pl := make([]byte, len(p.payload))
		copy(pl, p.payload)
		ep.data[key] = &entry{origin: p.origin, localID: p.localID, payload: pl}
	}
	ep.applyAckLocked(key, p.seq, p.next)
	ep.tokenDutyLocked()
}
