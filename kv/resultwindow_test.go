package kv

import (
	"fmt"
	"math/rand"
	"testing"
)

// refWindow is the result window in the form the ring replaced — two maps and
// a FIFO slice of ids — kept here, verbatim, as the oracle the ring is
// compared against.
type refWindow struct {
	results    map[uint64]result
	order      []uint64
	window     int
	resultSums map[uint64]uint64
	dedupSum   uint64
}

func newRefWindow(window int) *refWindow {
	return &refWindow{results: make(map[uint64]result), resultSums: make(map[uint64]uint64), window: window}
}

func (s *refWindow) set(id uint64, r result) {
	if _, dup := s.results[id]; !dup {
		s.order = append(s.order, id)
	} else {
		s.dedupSum -= s.resultSums[id]
	}
	s.results[id] = r
	h := resultSum(id, r)
	s.resultSums[id] = h
	s.dedupSum += h
	for len(s.order) > s.window {
		old := s.order[0]
		s.dedupSum -= s.resultSums[old]
		delete(s.resultSums, old)
		delete(s.results, old)
		s.order = s.order[1:]
	}
}

// TestResultWindowMatchesOldForm drives the ring and the old two-maps-and-a-
// slice window with the same 10 000-command random trace — ids repeat both
// while still held (overwritten in place, age kept) and after eviction
// (re-inserted as new) — and requires, all along: the same audit-digest
// ingredients (entry count and wrapping sum), the same lookup answers, the
// same migration export order, and a Snapshot that restores to the old form's
// FIFO, window and sum and to the same StateDigest. Half way, the state is
// snapshotted and restored into a machine configured with a different window,
// which must adopt the snapshot's.
func TestResultWindowMatchesOldForm(t *testing.T) {
	const (
		window = 257
		steps  = 10000
		idSpan = 700 // ids drawn from [1, idSpan]: ~37% of draws are still held
	)
	rt := Routing{Shards: 1, VNodes: 8}
	next := Routing{Epoch: 1, Shards: 2, VNodes: 8}.ring("ring")
	sm := newMapSM("ring", 0, rt, window, nil)
	ref := newRefWindow(window)
	rng := rand.New(rand.NewSource(17))

	check := func(step int) {
		t.Helper()
		if sm.results.len() != len(ref.order) || sm.results.sum != ref.dedupSum {
			t.Fatalf("step %d: digest ingredients (len, sum) = (%d, %x), old form (%d, %x)",
				step, sm.results.len(), sm.results.sum, len(ref.order), ref.dedupSum)
		}
		snap, err := sm.Snapshot()
		if err != nil {
			t.Fatalf("step %d: Snapshot: %v", step, err)
		}
		restored := newMapSM("ring", 0, rt, 1, nil)
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("step %d: Restore: %v", step, err)
		}
		var fifo []uint64
		for _, run := range restored.results.fifo() {
			for _, slot := range run {
				fifo = append(fifo, slot.id)
			}
		}
		if fmt.Sprint(fifo) != fmt.Sprint(ref.order) || restored.results.window != ref.window || restored.results.sum != ref.dedupSum {
			t.Fatalf("step %d: the snapshot restores to FIFO %v, window %d, sum %x; old form %v, %d, %x",
				step, fifo, restored.results.window, restored.results.sum, ref.order, ref.window, ref.dedupSum)
		}
		if restored.StateDigest() != sm.StateDigest() {
			t.Fatalf("step %d: StateDigest %x restored, %x snapshotted", step, restored.StateDigest(), sm.StateDigest())
		}
		for id := uint64(1); id <= idSpan; id++ {
			g, gok := sm.results.lookup(id)
			w, wok := ref.results[id]
			if gok != wok || g.OK != w.OK || g.Key != w.Key || g.Conflict != w.Conflict {
				t.Fatalf("step %d: lookup(%d) = %+v %v, old form %+v %v", step, id, g, gok, w, wok)
			}
		}
		var exported, wantExported []uint64
		for _, ch := range sm.exportChunks(next, 1<<20)[1] {
			for _, r := range ch.Results {
				exported = append(exported, r.ID)
			}
		}
		for _, id := range ref.order {
			if k := ref.results[id].Key; k != "" && next.shard(k) == 1 {
				wantExported = append(wantExported, id)
			}
		}
		if fmt.Sprint(exported) != fmt.Sprint(wantExported) {
			t.Fatalf("step %d: migration export order %v, old form %v", step, exported, wantExported)
		}
	}

	for step := 1; step <= steps; step++ {
		id := uint64(1 + rng.Intn(idSpan))
		r := result{OK: rng.Intn(2) == 0}
		switch rng.Intn(4) {
		case 0: // a prepare's captured reads: no key, stays behind in a migration
			r.Values, r.Found = [][]byte{[]byte("v")}, []bool{true}
		case 1: // a prepare that lost its keys: no key either
			r = result{Conflict: true}
		default:
			r.Key = fmt.Sprintf("key-%d", rng.Intn(64))
		}
		sm.setResult(id, r)
		ref.set(id, r)
		if step%250 == 0 || step < 2*window {
			check(step)
		}
		if step == steps/2 {
			snap, err := sm.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			// The restoring machine was configured with another window
			// (smaller here; the larger case follows at the end).
			sm = newMapSM("ring", 0, rt, 64, nil)
			if err := sm.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			check(step)
		}
	}

	snap, err := sm.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	big := newMapSM("ring", 0, rt, 4096, nil)
	if err := big.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	sm = big
	check(steps)
	if sm.results.window != window {
		t.Fatalf("restored window = %d, want the snapshot's %d", sm.results.window, window)
	}
	// Restore(nil) resets to empty and keeps working.
	if err := sm.Restore(nil); err != nil {
		t.Fatalf("Restore(nil): %v", err)
	}
	*ref = *newRefWindow(ref.window)
	sm.setResult(1, result{OK: true, Key: "key-1"})
	ref.set(1, result{OK: true, Key: "key-1"})
	check(steps + 1)
}
