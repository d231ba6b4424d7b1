package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// refHistory is the history's reference model: a plain map from every
// retained seqno to the entry covering it, with the ring's rules spelled out
// one by one. Where the ring can refuse an entry the map would hold — a slot
// it needs is taken by a seqno a whole ring away — the model keeps the ring
// length placement is judged against (size, history.size), the one fact of
// the layout the rules depend on: base, the power of two at or above the
// capacity, until forceAdd raises it, and base again once nothing is held.
type refHistory struct {
	cap   int
	floor uint32
	held  map[uint32]*refEntry
	size  int
	base  int
}

func newRefHistory(capacity int) *refHistory {
	m := &refHistory{cap: capacity, held: make(map[uint32]*refEntry), size: 1}
	for m.size < capacity {
		m.size <<= 1
	}
	m.base = m.size
	return m
}

// settle is the rule that undoes forceAdd's growth: an empty history is
// judged against its base size again.
func (m *refHistory) settle() {
	if len(m.held) == 0 {
		m.size = m.base
	}
}

type refEntry struct {
	seq, last uint32
	payload   []byte
}

func (m *refHistory) entries() map[*refEntry]bool {
	out := make(map[*refEntry]bool)
	for _, e := range m.held {
		out[e] = true
	}
	return out
}

// occupied lists the seqnos whose ring slots are taken: every retained
// seqno, and the first seqno of every retained entry (a batch straddling the
// floor keeps its first slot).
func (m *refHistory) occupied() []uint32 {
	var out []uint32
	for s := range m.held {
		out = append(out, s)
	}
	for e := range m.entries() {
		if e.seq <= m.floor {
			out = append(out, e.seq)
		}
	}
	return out
}

func (m *refHistory) placeable(seq, last uint32) bool {
	size := m.size
	if int(last-seq) >= size {
		return false
	}
	occ := m.occupied()
	for s := seq; s <= last; s++ {
		for _, t := range occ {
			if s%uint32(size) == t%uint32(size) {
				return false
			}
		}
	}
	return true
}

func (m *refHistory) add(e *refEntry) bool {
	if e.seq <= m.floor || len(m.held)+int(e.last-e.seq+1) > m.cap || !m.placeable(e.seq, e.last) {
		return false
	}
	for s := e.seq; s <= e.last; s++ {
		m.held[s] = e
	}
	return true
}

// forceAdd drops what holds the entry's seqnos and stores it regardless of
// the cap. It doubles the size until the entry can be placed, up to
// maxRingGrowth times the capacity; past that it evicts the entries whose
// slots the new one needs.
func (m *refHistory) forceAdd(e *refEntry) {
	for s := e.seq; s <= e.last; s++ {
		if old, ok := m.held[s]; ok {
			m.dropEntry(old)
		}
	}
	for !m.placeable(e.seq, e.last) {
		size := m.size
		if size < maxRingGrowth*m.cap || int(e.last-e.seq) >= size {
			m.size *= 2
			continue
		}
		for old := range m.entries() {
			for s := e.seq; s <= e.last; s++ {
				for t := max(old.seq, m.floor+1); t <= old.last; t++ {
					if s%uint32(size) == t%uint32(size) || s%uint32(size) == old.seq%uint32(size) {
						m.dropEntry(old)
					}
				}
			}
		}
	}
	for s := e.seq; s <= e.last; s++ {
		m.held[s] = e
	}
}

func (m *refHistory) dropEntry(e *refEntry) {
	for s := e.seq; s <= e.last; s++ {
		if m.held[s] == e {
			delete(m.held, s)
		}
	}
}

func (m *refHistory) pruneTo(upTo uint32) {
	if upTo <= m.floor {
		return
	}
	for s := range m.held {
		if s <= upTo {
			delete(m.held, s)
		}
	}
	m.floor = upTo
	m.settle()
}

func (m *refHistory) truncateAbove(top uint32) {
	for e := range m.entries() {
		if e.last > top {
			m.dropEntry(e)
		}
	}
	m.settle()
}

func (m *refHistory) contiguousTop() uint32 {
	top := m.floor
	for m.held[top+1] != nil {
		top++
	}
	return top
}

func (m *refHistory) top() uint32 {
	top := m.floor
	for s := range m.held {
		top = max(top, s)
	}
	return top
}

// check compares the ring with the model: every lookup, the counts and the
// contiguous top, that a lookup of every seqno an entry covers finds the one
// stored entry, and that no slot keeps a payload the model no longer holds.
func (m *refHistory) check(t *testing.T, h *history, step string) {
	t.Helper()
	if h.floor != m.floor || h.len() != len(m.held) || h.size != m.size {
		t.Fatalf("%s: floor %d len %d size %d, model floor %d len %d size %d",
			step, h.floor, h.len(), h.size, m.floor, len(m.held), m.size)
	}
	m.checkTop(t, h, step)
	for _, k := range []int{1, 2, 5, m.cap} {
		if got, want := h.hasRoom(k), len(m.held)+k <= m.cap; got != want {
			t.Fatalf("%s: hasRoom(%d) = %v, model %v", step, k, got, want)
		}
	}
	if n := len(h.slots); n > h.size || n&(n-1) != 0 {
		t.Fatalf("%s: ring of %d slots, size %d", step, n, h.size)
	}
	if h.full() != (len(m.held) >= m.cap) {
		t.Fatalf("%s: full = %v with %d of %d held", step, h.full(), len(m.held), m.cap)
	}
	for _, k := range []int{1, 3} {
		next := m.top() + 1
		want := next > m.floor && len(m.held)+k <= m.cap && m.placeable(next, next+uint32(k)-1)
		if got := h.roomAt(next, k); got != want {
			t.Fatalf("%s: roomAt(%d, %d) = %v, model %v", step, next, k, got, want)
		}
	}
	lo := uint32(0)
	if m.floor > uint32(2*h.size) {
		lo = m.floor - uint32(2*h.size)
	}
	stored := make(map[*refEntry]*entry)
	hi := m.top() + uint32(2*h.size)
	for s := lo; s <= hi; s++ {
		got, ok := h.get(s)
		want := m.held[s]
		if ok != (want != nil) {
			t.Fatalf("%s: get(%d) found=%v, model holds %v", step, s, ok, want != nil)
		}
		if !ok {
			continue
		}
		if got.seq != want.seq || got.lastSeq() != want.last || &got.payload[0] != &want.payload[0] {
			t.Fatalf("%s: get(%d) = entry [%d,%d], model [%d,%d]", step, s, got.seq, got.lastSeq(), want.seq, want.last)
		}
		if p, seen := stored[want]; seen && p != got {
			t.Fatalf("%s: seqnos of one entry resolve to two places", step)
		}
		stored[want] = got
	}
	live := make(map[*byte]bool)
	for e := range m.entries() {
		live[&e.payload[0]] = true
	}
	for i := range h.slots {
		sl := &h.slots[i]
		if sl.e.payload == nil {
			continue
		}
		if sl.seq == 0 || sl.seq != sl.head || !live[&sl.e.payload[0]] {
			t.Fatalf("%s: slot %d (seq %d) keeps a payload the history no longer holds", step, i, sl.seq)
		}
	}
}

// checkTop compares the contiguous top the ring keeps with a walk of the ring
// and of the model from the floor.
func (m *refHistory) checkTop(t *testing.T, h *history, step string) {
	t.Helper()
	if got, walk, want := h.contiguousTop(), walkContiguousTop(h), m.contiguousTop(); got != want || walk != want {
		t.Fatalf("%s: kept contiguous top %d, walk of the ring %d, model %d", step, got, walk, want)
	}
}

// walkContiguousTop finds the contiguous top by walking up from the floor,
// entry by entry: the reference the top the ring keeps is checked against.
func walkContiguousTop(h *history) uint32 {
	top := h.floor
	for {
		e, ok := h.get(top + 1)
		if !ok {
			return top
		}
		top = e.lastSeq()
	}
}

// historyModelRuns counts TestHistoryMatchesModel's runs in this process, so
// that each run of a -count=N soak takes the next block of seeds.
var historyModelRuns int

// TestHistoryMatchesModel drives the ring and the map model with the same
// random operations — contiguous and batch adds, gaps left for a NAK to
// fill, prunes that land inside a batch, truncations, forceAdd into a full
// buffer, adds a whole ring ahead, floor jumps of 10⁷ and settles — and
// compares them after every step and every add within one, the contiguous top
// the ring keeps against a walk of the ring and of the model from the floor.
// A failing subtest names its seed; the k-th run of a -count soak takes seeds
// from k times the block size.
func TestHistoryMatchesModel(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 20
	}
	first := historyModelRuns * seeds
	historyModelRuns++
	for seed := first; seed < first+seeds; seed++ {
		capacity := []int{4, 6, 16, 128}[seed%4]
		t.Run(fmt.Sprintf("seed=%d/cap=%d", seed, capacity), func(t *testing.T) {
			runHistoryModel(t, rand.New(rand.NewSource(int64(seed))), capacity)
		})
	}
}

func runHistoryModel(t *testing.T, rng *rand.Rand, capacity int) {
	h := newHistory(capacity)
	m := newRefHistory(capacity)
	id := 0
	mk := func(seq uint32, span int) (entry, *refEntry) {
		id++
		payload := []byte(fmt.Sprintf("entry-%d", id))
		e := entry{seq: seq, kind: KindData, payload: payload}
		if span > 1 {
			e.kind, e.count = KindBatch, uint16(span)
		}
		return e, &refEntry{seq: seq, last: seq + uint32(span) - 1, payload: payload}
	}
	span := func() int {
		if rng.Intn(3) == 0 {
			return 2 + rng.Intn(4)
		}
		return 1
	}
	add := func(step string, seq uint32, n int) {
		e, r := mk(seq, n)
		want := m.add(r)
		got, ok := h.add(e)
		if ok != want {
			t.Fatalf("%s: add [%d,%d] = %v, model %v", step, r.seq, r.last, ok, want)
		}
		if ok && (got.seq != seq || &got.payload[0] != &r.payload[0]) {
			t.Fatalf("%s: add returned entry %d, not the one stored", step, got.seq)
		}
		m.checkTop(t, h, step+": after an add")
	}
	for i := 0; i < 400; i++ {
		top := m.top()
		var step string
		switch op := rng.Intn(100); {
		case op < 35:
			step = "add next"
			add(step, top+1, span())
		case op < 45:
			step = "add past a gap"
			add(step, top+2+uint32(rng.Intn(3)), span())
		case op < 55:
			step = "fill a gap"
			for s := m.floor + 1; s <= top; s++ {
				if m.held[s] == nil {
					add(step, s, 1)
					break
				}
			}
		case op < 58:
			step = "add a ring ahead"
			add(step, m.floor+uint32(h.size)+uint32(rng.Intn(4)), span())
		case op < 75:
			step = "prune"
			upTo := m.floor + uint32(rng.Intn(int(top-m.floor)+2))
			m.pruneTo(upTo)
			h.pruneTo(upTo)
		case op < 80:
			step = "truncate"
			cut := m.floor + uint32(rng.Intn(int(top-m.floor)+1))
			m.truncateAbove(cut)
			h.truncateAbove(cut)
		case op < 88:
			step = "fill then forceAdd"
			for s := top + 1; len(m.held) < capacity && s <= top+uint32(capacity); s++ {
				add(step, s, 1)
			}
			e, r := mk(m.top()+1+uint32(rng.Intn(2)), 1+rng.Intn(2))
			m.forceAdd(r)
			if got := h.forceAdd(e); got.seq != r.seq {
				t.Fatalf("%s: forceAdd returned entry %d, not %d", step, got.seq, r.seq)
			}
		case op < 90:
			step = "forceAdd over a held entry"
			if top > m.floor {
				e, r := mk(top, 1)
				m.forceAdd(r)
				h.forceAdd(e)
			}
		case op < 91:
			step = "floor jump"
			m.pruneTo(m.floor + 10_000_000)
			h.pruneTo(h.floor + 10_000_000)
		case op < 93:
			step = "settle"
			m.settle()
			h.settle()
		default:
			step = "get"
			s := m.floor + uint32(rng.Intn(int(top-m.floor)+3))
			e, ok := h.get(s)
			if want := m.held[s]; ok != (want != nil) || ok && e.seq != want.seq {
				t.Fatalf("get(%d) disagrees with the model", s)
			}
		}
		m.check(t, h, fmt.Sprintf("step %d (%s)", i, step))
	}
}

// TestHistoryShrinksAfterForcedGrowth: a recovery anchor forced in far ahead
// of a full buffer doubles the ring's size until it fits; once the entries
// that forced that growth and the anchor are pruned, the history is judged
// against, and sized to, the ring its capacity sets again.
func TestHistoryShrinksAfterForcedGrowth(t *testing.T) {
	h := newHistory(16)
	for s := uint32(1); s <= 16; s++ {
		if _, ok := h.add(entry{seq: s, payload: []byte{1}}); !ok {
			t.Fatalf("add %d refused", s)
		}
	}
	h.forceAdd(entry{seq: 65, kind: KindReset, payload: []byte{2}})
	if h.size != 128 || len(h.slots) != 128 {
		t.Fatalf("the anchor was placed in a ring of %d slots judged as %d; want 128 and 128", len(h.slots), h.size)
	}
	h.pruneTo(16)
	if h.size != 128 {
		t.Fatalf("size %d while the anchor is held; want 128", h.size)
	}
	h.pruneTo(65)
	if h.size != 16 || len(h.slots) != 16 {
		t.Fatalf("after the anchor was pruned: %d slots judged as %d; want 16 and 16", len(h.slots), h.size)
	}
	for s := uint32(66); s <= 81; s++ {
		if _, ok := h.add(entry{seq: s, payload: []byte{3}}); !ok {
			t.Fatalf("add %d refused after the ring shrank", s)
		}
	}
	if _, ok := h.add(entry{seq: 82}); ok {
		t.Fatal("a full buffer took a 17th entry")
	}
}

// TestHistoryStraddlingBatchReleasesItsSlot: a batch pruned part-way keeps
// its tail reachable and its payload, and gives both up with its last seqno;
// its slot is then free for the seqno a ring later.
func TestHistoryStraddlingBatchReleasesItsSlot(t *testing.T) {
	h := newHistory(4)
	e, _ := newBatchEntry(1, 0, 1, encodeBatchBody([][]byte{[]byte("a"), []byte("b"), []byte("c")}))
	if _, ok := h.add(e); !ok {
		t.Fatal("batch refused")
	}
	h.pruneTo(2)
	if got, ok := h.get(3); !ok || got.seq != 1 || got.payload == nil {
		t.Fatal("the batch's tail is unreachable after a prune inside it")
	}
	if _, ok := h.add(entry{seq: 5}); ok {
		t.Fatal("seq 5 took the slot the straddling batch still holds")
	}
	h.pruneTo(3)
	if h.slots[1].e.payload != nil || h.len() != 0 {
		t.Fatal("the batch's slot keeps its payload after its last seqno was pruned")
	}
	if _, ok := h.add(entry{seq: 5}); !ok {
		t.Fatal("the freed slot refused seq 5")
	}
}

// TestHistoryReusesAckRecords: an entry's ack list keeps its array for the
// slot's next entry, so a resilient or leased send allocates no ack record
// once the ring has turned over.
func TestHistoryReusesAckRecords(t *testing.T) {
	h := newHistory(8)
	seq := uint32(0)
	round := func() {
		seq++
		e, _ := h.add(entry{seq: seq})
		e.acked = append(e.acked, 1, 2)
		h.pruneTo(seq)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("an acknowledged entry costs %v allocations once the ring has turned", n)
	}
}
