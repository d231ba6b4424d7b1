package core

import "time"

// entry is one ordered message — or one ordered batch of messages — retained
// in a history buffer. A KindBatch entry covers the contiguous seqno range
// [seq, seq+count-1] and the contiguous localID range
// [localID, localID+count-1]; every other kind covers exactly one of each.
type entry struct {
	seq     uint32
	kind    MsgKind
	sender  MemberID
	localID uint32
	// count is the number of messages the entry covers; 0 and 1 both mean
	// a single message (zero value keeps single-message construction
	// unchanged).
	count uint16
	// payload is the wire body: the application payload for single
	// messages, the encoded batch body (see encodeBatchBody) for
	// KindBatch.
	payload []byte
	// parts are the decoded batch payloads (KindBatch only), aliasing
	// payload; decoded once at entry construction.
	parts [][]byte
	// tentative marks a resilience-degree message that has not yet been
	// accepted (sequencer side: still collecting acks; member side:
	// buffered awaiting the accept). Batches are accepted as a unit.
	tentative bool
	// acks counts resilience acknowledgements received (sequencer only).
	acks int
	// acked records which members acked, to ignore duplicates.
	acked map[MemberID]bool
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

// newBatchEntry builds a KindBatch entry from a wire body, copying the body
// and decoding the per-message payloads. It returns nil if the body is
// malformed (a corrupt packet that slipped past the FLIP checksum).
func newBatchEntry(seq uint32, sender MemberID, localID uint32, body []byte) *entry {
	pl := make([]byte, len(body))
	copy(pl, body)
	parts, err := decodeBatchBody(pl)
	if err != nil || len(parts) > maxBatchWire {
		return nil
	}
	return &entry{
		seq: seq, kind: KindBatch, sender: sender, localID: localID,
		count: uint16(len(parts)), payload: pl, parts: parts,
	}
}

// history is the bounded buffer of recently ordered messages kept by the
// sequencer — and, in this implementation as in Amoeba's, by every member —
// to serve retransmissions and to survive recovery. The paper's experiments
// use a capacity of 128 messages.
//
// Entries are stored for a contiguous range (floor, top]: floor is the
// highest pruned seqno, top the highest stored. A batch entry is indexed
// under every seqno it covers, so per-seqno lookups (gap detection, delivery,
// retransmission) need no range search; capacity is counted in seqnos, so a
// 16-message batch consumes 16 slots and backpressure still bounds the
// number of outstanding messages, not requests. The sequencer prunes from
// acknowledgement state (piggybacked lastRecv values) and, in small groups,
// asks for it once the buffer is half full; a request that still finds the
// buffer full is not ordered yet but held at the sequencer, and the status
// round its refusal starts re-drives it (see sequencer.go: pruneAheadLocked,
// makeRoomLocked, parkLocked).
type history struct {
	cap     int
	floor   uint32 // everything ≤ floor has been pruned
	entries map[uint32]*entry
}

func newHistory(capacity int) *history {
	return &history{cap: capacity, entries: make(map[uint32]*entry)}
}

// hasRoom reports whether n more seqno slots fit.
func (h *history) hasRoom(n int) bool { return len(h.entries)+n <= h.cap }

// add stores an entry under every seqno it covers. It reports false when the
// buffer lacks room for the entry's full span.
func (h *history) add(e *entry) bool {
	if !h.hasRoom(int(e.span())) {
		return false
	}
	for s := e.seq; s <= e.lastSeq(); s++ {
		h.entries[s] = e
	}
	return true
}

// forceAdd stores an entry even when the buffer is full. Recovery uses it
// for the KindReset entry that anchors a new epoch: the cap exists to
// backpressure data traffic, but dropping the reset entry would leave its
// holder unable to ever deliver past startSeq — a full history must not be
// able to wedge a recovery.
func (h *history) forceAdd(e *entry) {
	for s := e.seq; s <= e.lastSeq(); s++ {
		h.entries[s] = e
	}
}

// full reports whether the buffer cannot accept another single-message entry.
func (h *history) full() bool { return !h.hasRoom(1) }

// get returns the entry covering seq, if retained.
func (h *history) get(seq uint32) (*entry, bool) {
	e, ok := h.entries[seq]
	return e, ok
}

// pruneTo discards entries with seq ≤ upTo, raising the floor. A batch entry
// straddling upTo keeps its higher seqnos indexed; only the covered slots are
// released.
func (h *history) pruneTo(upTo uint32) {
	if upTo <= h.floor {
		return
	}
	// Iterate whichever is smaller: the seq range or the stored set (a
	// joiner raising its floor by millions must not spin).
	if int(upTo-h.floor) <= len(h.entries) {
		for s := h.floor + 1; s <= upTo; s++ {
			delete(h.entries, s)
		}
	} else {
		for s := range h.entries {
			if s <= upTo {
				delete(h.entries, s)
			}
		}
	}
	h.floor = upTo
}

// truncateAbove discards entries with seq > top. Recovery uses it to drop
// messages ordered by a deposed sequencer beyond the new view's starting
// point. The truncation point always falls on an entry boundary: entries are
// stored atomically (all seqnos or none), so every survivor's contiguous top
// — and therefore the recovery target, their maximum — ends exactly where an
// entry ends.
func (h *history) truncateAbove(top uint32) {
	for s := range h.entries {
		if s > top {
			delete(h.entries, s)
		}
	}
}

// contiguousTop returns the highest seq such that every entry in
// (floor, seq] is present. Recovery votes report this value: it is the range
// the member can redistribute.
func (h *history) contiguousTop() uint32 {
	top := h.floor
	for {
		if _, ok := h.entries[top+1]; !ok {
			return top
		}
		top++
	}
}

// len reports the number of retained seqno slots.
func (h *history) len() int { return len(h.entries) }
