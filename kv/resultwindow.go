package kv

// resultWindow is the shard's bounded FIFO of command results — the dedup
// window: the newest `window` results by first insertion, looked up by command
// id. It is one ring of slots plus one id→slot index. The ring grows by append
// until it holds `window` entries and only then wraps, overwriting the oldest
// slot in place: it is never pre-allocated, because the default window is
// 65 536 entries and most shards never see that many commands. Under steady
// churn an insert therefore allocates nothing, where a FIFO slice advanced by
// order = order[1:] beside two maps kept reallocating and held about 2.6× the
// live heap.
//
// sum is the audit digest of the window, maintained incrementally: per-entry
// folds (resultSum in audit.go) combined with a wrapping sum, added on insert
// and subtracted on eviction, so digesting the window is O(1) instead of a
// 64Ki-entry walk per audit.
type resultWindow struct {
	slots  []resultSlot
	head   int              // oldest slot, once the ring has wrapped
	index  map[uint64]int32 // command id -> slot
	window int
	sum    uint64
}

type resultSlot struct {
	id  uint64
	res result
	sum uint64 // resultSum(id, res), remembered so eviction need not refold
}

// newResultWindow returns an empty window of the given size with room for n
// results (no more than the window holds).
func newResultWindow(window, n int) resultWindow {
	n = min(n, window)
	return resultWindow{slots: make([]resultSlot, 0, n), index: make(map[uint64]int32, n), window: window}
}

// lookup returns the result recorded for a command id, if the window still
// holds it.
func (w *resultWindow) lookup(id uint64) (result, bool) {
	i, ok := w.index[id]
	if !ok {
		return result{}, false
	}
	return w.slots[i].res, true
}

// len is the number of results held.
func (w *resultWindow) len() int { return len(w.slots) }

// set records a command's result. A repeated id is overwritten in place and
// keeps its age; a new id evicts the oldest entry once the window is full.
func (w *resultWindow) set(id uint64, r result) {
	s := resultSlot{id: id, res: r, sum: resultSum(id, r)}
	if i, ok := w.index[id]; ok {
		w.sum += s.sum - w.slots[i].sum
		w.slots[i] = s
		return
	}
	w.sum += s.sum
	if len(w.slots) < w.window {
		w.index[id] = int32(len(w.slots))
		w.slots = append(w.slots, s)
		return
	}
	old := &w.slots[w.head]
	w.sum -= old.sum
	delete(w.index, old.id)
	*old = s
	w.index[id] = int32(w.head)
	w.head = (w.head + 1) % len(w.slots)
}

// fifo returns the held results oldest first, as the two runs of the ring.
func (w *resultWindow) fifo() [2][]resultSlot {
	return [2][]resultSlot{w.slots[w.head:], w.slots[:w.head]}
}
