package core

import "time"

// entry is one ordered message — or one ordered batch of messages — retained
// in a history buffer. A KindBatch entry covers the contiguous seqno range
// [seq, seq+count-1] and the contiguous localID range
// [localID, localID+count-1]; every other kind covers exactly one of each.
type entry struct {
	seq     uint32
	localID uint32
	sender  MemberID
	// count is the number of messages the entry covers; 0 and 1 both mean
	// a single message (zero value keeps single-message construction
	// unchanged).
	count uint16
	kind  MsgKind
	// tentative marks a resilience-degree message that has not yet been
	// accepted (sequencer side: still collecting acks; member side:
	// buffered awaiting the accept). Batches are accepted as a unit.
	tentative bool
	// payload is the wire body: the application payload for single
	// messages, the encoded batch body (see encodeBatchBody) for
	// KindBatch, checked at construction and read part by part at
	// delivery. The entry owns it: nothing writes it after it is stored.
	payload []byte
	// acked lists the members that acknowledged the entry (sequencer
	// only), to ignore duplicates; its length is the ack count. Its array
	// stays with the history slot and is reused by the slot's next entry.
	acked []MemberID
	// orderedAt is the clock reading when the sequencer ordered the entry,
	// recorded only when ack-completion latency is being observed (0
	// otherwise); cleared once the acceptance latency is recorded.
	orderedAt time.Duration
}

// span is the number of sequence numbers the entry covers.
func (e *entry) span() uint32 {
	if e.count > 1 {
		return uint32(e.count)
	}
	return 1
}

// lastSeq is the highest sequence number the entry covers.
func (e *entry) lastSeq() uint32 { return e.seq + e.span() - 1 }

// lastLocalID is the highest sender-local id the entry covers.
func (e *entry) lastLocalID() uint32 { return e.localID + e.span() - 1 }

// ackedBy reports whether member id has acknowledged the entry.
func (e *entry) ackedBy(id MemberID) bool {
	for _, a := range e.acked {
		if a == id {
			return true
		}
	}
	return false
}

// newBatchEntry builds a KindBatch entry over a wire body. The entry keeps
// body: a caller holding bytes it does not own (a received frame) copies
// them first. ok is false if the body is malformed (a corrupt packet that
// slipped past the FLIP checksum).
func newBatchEntry(seq uint32, sender MemberID, localID uint32, body []byte) (e entry, ok bool) {
	n, _, err := splitBatchBody(body)
	if err != nil {
		return entry{}, false
	}
	return entry{
		seq: seq, kind: KindBatch, sender: sender, localID: localID,
		count: uint16(n), payload: body,
	}, true
}

// history is the bounded buffer of recently ordered messages kept by the
// sequencer — and, in this implementation as in Amoeba's, by every member —
// to serve retransmissions and to survive recovery. The paper's experiments
// use a capacity of 128 messages.
//
// Entries are stored for a contiguous range (floor, top]: floor is the
// highest pruned seqno, top the highest stored. Capacity is counted in
// seqnos, so a 16-message batch consumes 16 slots and backpressure still
// bounds the number of outstanding messages, not requests. The sequencer
// prunes from acknowledgement state (piggybacked lastRecv values) and, in
// small groups, asks for it once the buffer is half full; a request that
// still finds the buffer full is not ordered yet but held at the sequencer,
// and the status round its refusal starts re-drives it (see sequencer.go:
// pruneAheadLocked, storeLocked, parkLocked).
//
// The buffer is a ring of slots indexed by seqno modulo its length, holding
// each entry by value: storing a message allocates nothing. An entry lives in
// the slot of its first seqno; each further seqno a batch covers is a
// continuation slot that names the first, so per-seqno lookups (gap
// detection, delivery, retransmission) need no range search. Whether an
// entry can be placed is judged against a ring of size slots, the least
// power of two at or above the capacity; the ring itself starts shorter and
// doubles toward size only as far as the seqnos it holds spread, so a
// history that stays short costs a short ring. forceAdd may raise size past
// that base to place a recovery anchor; once the buffer empties again size
// falls back to the base, and a ring grown past it is given up (settle), so
// one recovery does not judge and size the history at twice its ring for
// the endpoint's life. The contiguous top — the highest seqno up to which
// every seqno above the floor is held — is kept as entries are placed,
// dropped and pruned (contig), so reading it costs a field, not a walk from
// the floor. A pointer from get or add
// stays valid until the entry leaves the buffer — every seqno it covers
// pruned, or the entry truncated — or the ring grows (add, forceAdd). A
// batch straddling the floor keeps its first slot (unreachable by get) until
// its last seqno is pruned. Slots are zeroed as entries leave, so the buffer
// holds no payload it no longer serves.
type history struct {
	cap   int
	floor uint32 // everything ≤ floor has been pruned
	n     int    // retained seqno slots, those above floor
	slots []slot // slots[s&mask] holds seqno s
	mask  uint32
	size  int // the ring length placement is judged against (see above); forceAdd may raise it
	base  int // size as the capacity sets it: the power of two at or above cap
	// contig is the contiguous top: every seqno in (floor, contig] is held,
	// and contig+1 is not. place raises it, drop lowers it, pruneTo lifts it
	// to the new floor.
	contig uint32
}

// slot is one seqno's place in the ring.
type slot struct {
	seq  uint32 // the seqno held here; 0 when empty (seqnos start at 1)
	head uint32 // the first seqno of the covering entry; seq in its own slot
	e    entry  // the covering entry, in its first seqno's slot only
}

// firstRing is the ring's length before it first grows.
const firstRing = 8

func newHistory(capacity int) *history {
	h := &history{cap: capacity, size: 1}
	for h.size < capacity {
		h.size <<= 1
	}
	h.base = h.size
	h.resize(min(h.size, firstRing))
	return h
}

// resize re-places every occupied slot into a ring of n slots; n must be a
// multiple of the ring's length, which keeps stored seqnos apart.
func (h *history) resize(n int) {
	old := h.slots
	h.slots, h.mask = make([]slot, n), uint32(n-1)
	for i := range old {
		if old[i].seq != 0 {
			h.slots[old[i].seq&h.mask] = old[i]
		}
	}
}

// at returns the slot seqno s maps to.
func (h *history) at(s uint32) *slot { return &h.slots[s&h.mask] }

// hasRoom reports whether n more seqno slots fit.
func (h *history) hasRoom(n int) bool { return h.n+n <= h.cap }

// roomAt reports whether add would store an entry of n seqnos from seq: it
// lies above the floor, the buffer has room for n more, and the ring can place
// them.
func (h *history) roomAt(seq uint32, n int) bool {
	return seq > h.floor && h.hasRoom(n) && h.fits(seq, seq+uint32(n)-1)
}

// full reports whether the buffer cannot accept another single-message entry.
func (h *history) full() bool { return !h.hasRoom(1) }

// len reports the number of retained seqno slots.
func (h *history) len() int { return h.n }

// add stores e under every seqno it covers and returns the stored entry. It
// refuses the entry when the buffer lacks room for its full span, when it
// lies at or below the floor, or when the ring cannot place it — a slot it
// needs is held, which in a correct stream means the entry lies a whole ring
// beyond the oldest one retained. A refused message is fetched again by NAK
// once room frees.
func (h *history) add(e entry) (*entry, bool) {
	if !h.roomAt(e.seq, int(e.span())) {
		return nil, false
	}
	return h.place(e), true
}

// forceAdd stores an entry even when the buffer is full, growing the ring if
// it must and displacing any entry that held one of its seqnos. Recovery uses
// it for the KindReset entry that anchors a new epoch: the cap exists to
// backpressure data traffic, but dropping the reset entry would leave its
// holder unable to ever deliver past startSeq — a full history must not be
// able to wedge a recovery. e must lie above the floor.
func (h *history) forceAdd(e entry) *entry {
	for s := e.seq; s <= e.lastSeq(); s++ {
		if held, ok := h.get(s); ok {
			h.drop(held)
		}
	}
	for !h.fits(e.seq, e.lastSeq()) {
		if h.size < maxRingGrowth*h.cap || int(e.lastSeq()-e.seq) >= h.size {
			h.size *= 2
			continue
		}
		// A seqno this far from the rest cannot come from a correct
		// recovery: evict what aliases the anchor rather than grow.
		for s := e.seq; s <= e.lastSeq(); s++ {
			if sl := h.at(s); h.aliases(sl.seq, s) {
				h.drop(&h.at(sl.head).e)
			}
		}
	}
	return h.place(e)
}

// maxRingGrowth bounds how far forceAdd grows the ring, in multiples of the
// capacity.
const maxRingGrowth = 8

// fits reports whether seqnos [lo, hi] can be placed: in a ring of size
// slots, no stored seqno would share a slot with them.
func (h *history) fits(lo, hi uint32) bool {
	if int(hi-lo) >= h.size {
		return false
	}
	for s := lo; s <= hi; s++ {
		if h.aliases(h.at(s).seq, s) {
			return false
		}
	}
	return true
}

// aliases reports whether stored seqno t would take seqno s's slot in a ring
// of size slots. Such a t can only sit in s's slot of the shorter ring, whose
// length divides size, so that one slot is all a caller need look at.
func (h *history) aliases(t, s uint32) bool {
	return t != 0 && (t-s)&uint32(h.size-1) == 0
}

// place stores e, which fits, growing the ring until its slots are empty.
// It reuses the first slot's ack array.
func (h *history) place(e entry) *entry {
	for !h.vacant(e.seq, e.lastSeq()) {
		h.resize(2 * len(h.slots))
	}
	for s := e.seq + 1; s <= e.lastSeq(); s++ {
		sl := h.at(s)
		sl.seq, sl.head = s, e.seq
	}
	sl := h.at(e.seq)
	acked := sl.e.acked[:0]
	sl.seq, sl.head, sl.e = e.seq, e.seq, e
	sl.e.acked = acked
	h.n += int(e.span())
	if e.seq == h.contig+1 {
		h.extend(e.lastSeq())
	}
	return &sl.e
}

// extend sets the contiguous top to top, which is held, or past it through
// the entries that follow without a gap (those stored while e's seqnos were
// missing).
func (h *history) extend(top uint32) {
	for {
		e, ok := h.get(top + 1)
		if !ok {
			h.contig = top
			return
		}
		top = e.lastSeq()
	}
}

// vacant reports whether the ring's slots for seqnos [lo, hi] are empty.
func (h *history) vacant(lo, hi uint32) bool {
	if int(hi-lo) >= len(h.slots) {
		return false
	}
	for s := lo; s <= hi; s++ {
		if h.at(s).seq != 0 {
			return false
		}
	}
	return true
}

// get returns the entry covering seq, if retained.
func (h *history) get(seq uint32) (*entry, bool) {
	sl := h.at(seq)
	if sl.seq != seq || seq <= h.floor {
		return nil, false
	}
	if sl.head != seq {
		sl = h.at(sl.head)
	}
	return &sl.e, true
}

// pruneTo discards entries with seq ≤ upTo, raising the floor. A batch entry
// straddling upTo keeps its higher seqnos indexed; only the covered slots are
// released.
func (h *history) pruneTo(upTo uint32) {
	if upTo <= h.floor {
		return
	}
	// Walk whichever is smaller: the seq range or the ring (a joiner
	// raising its floor by millions must not spin).
	if int(upTo-h.floor) <= len(h.slots) {
		for s := h.floor + 1; s <= upTo; {
			e, ok := h.get(s)
			if !ok {
				s++
				continue
			}
			s = e.lastSeq() + 1
			h.release(e, upTo)
		}
	} else {
		for i := range h.slots {
			if sl := &h.slots[i]; sl.seq != 0 && sl.seq == sl.head {
				h.release(&sl.e, upTo)
			}
		}
	}
	h.floor = upTo
	if h.contig < upTo {
		h.extend(upTo)
	}
	h.settle()
}

// settle undoes forceAdd's growth once the buffer is empty: size returns to
// the base, and a ring longer than the base is replaced by one of the base's
// length. Every slot is empty then — a straddling batch gives up its first
// slot with its last seqno — so nothing needs re-placing.
func (h *history) settle() {
	if h.n != 0 || h.size == h.base {
		return
	}
	h.size = h.base
	if len(h.slots) > h.base {
		h.slots, h.mask = make([]slot, h.base), uint32(h.base-1)
	}
}

// release frees e's seqnos in (floor, upTo], and e's own slot once none of
// its seqnos is left above upTo.
func (h *history) release(e *entry, upTo uint32) {
	lo, hi := max(e.seq, h.floor+1), min(e.lastSeq(), upTo)
	if hi < lo {
		return
	}
	for s := max(lo, e.seq+1); s <= hi; s++ {
		h.clear(h.at(s))
	}
	h.n -= int(hi - lo + 1)
	if e.lastSeq() <= upTo {
		h.clear(h.at(e.seq))
	}
}

// drop removes e whole: every slot it holds above the floor, and its own. The
// contiguous top falls to below the first seqno it frees.
func (h *history) drop(e *entry) {
	if lo := max(e.seq, h.floor+1); lo <= h.contig {
		h.contig = lo - 1
	}
	h.release(e, e.lastSeq())
}

// clear empties a slot, dropping its payload but keeping its ack array.
func (h *history) clear(sl *slot) { *sl = slot{e: entry{acked: sl.e.acked[:0]}} }

// truncateAbove discards entries with seq > top. Recovery uses it to drop
// messages ordered by a deposed sequencer beyond the new view's starting
// point. The truncation point always falls on an entry boundary: entries are
// stored atomically (all seqnos or none), so every survivor's contiguous top
// — and therefore the recovery target, their maximum — ends exactly where an
// entry ends. An entry straddling top is discarded whole.
func (h *history) truncateAbove(top uint32) {
	for i := range h.slots {
		if sl := &h.slots[i]; sl.seq != 0 && sl.seq == sl.head && sl.e.lastSeq() > top {
			h.drop(&sl.e)
		}
	}
	h.settle()
}

// contiguousTop returns the highest seq such that every entry in
// (floor, seq] is present. Recovery votes report this value: it is the range
// the member can redistribute. A member acks an entry only at or below it,
// and a lease holder's read watermark is at least it.
func (h *history) contiguousTop() uint32 { return h.contig }
