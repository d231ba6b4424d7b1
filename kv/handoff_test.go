package kv

import (
	"testing"
)

// TestAnswerHandoff holds the one place a command is answered to its contract,
// on a bare state machine: what is handed to the local waiter, what is
// recorded for a retry, and what a waiter counts.
func TestAnswerHandoff(t *testing.T) {
	expect := func(sm *mapSM, ids ...uint64) *answerWaiter {
		w := &answerWaiter{done: make(chan struct{}, 1)}
		sm.expect(w, ids)
		return w
	}
	woken := func(w *answerWaiter) bool {
		select {
		case <-w.done:
			return true
		default:
			return false
		}
	}
	recorded := func(sm *mapSM, id uint64) bool {
		_, ok := sm.results.lookup(id)
		return ok
	}
	// lock takes a prepare lock on key for transaction 77; unlock commits it.
	lock := func(sm *mapSM, id uint64, key string) {
		sm.Apply(encodeTxnPrepare(id, 77, key, []string{key}, nil, []TxnWrite{{Key: key, Val: []byte("txn")}}, nil))
	}
	unlock := func(sm *mapSM, id uint64, key string) {
		sm.Apply(encodeTxnResolve(id, 77, true, key, []string{key}))
	}

	rows := []struct {
		name string
		run  func(t *testing.T, sm *mapSM)
	}{
		{"an executed mutation is handed and recorded", func(t *testing.T, sm *mapSM) {
			w := expect(sm, 1)
			sm.Apply(encodeCAS(1, "k", false, nil, []byte("v")))
			if !woken(w) || !w.first.OK || w.moved || w.first.Key != "k" {
				t.Fatalf("waiter after the CAS applied: first %+v moved %v", w.first, w.moved)
			}
			if !recorded(sm, 1) {
				t.Fatal("the CAS's result was not recorded: its retry would execute again")
			}
		}},
		{"a refusal is handed, not recorded, and the retry is answered by its own application", func(t *testing.T, sm *mapSM) {
			lock(sm, 100, "k")
			w := expect(sm, 2)
			sm.Apply(encodePut(2, "k", []byte("v")))
			if !woken(w) || !w.moved {
				t.Fatalf("waiter after a Put on a locked key: woken with moved=%v", w.moved)
			}
			if recorded(sm, 2) {
				t.Fatal("the refusal was recorded")
			}
			if v := sm.items["k"]; v != nil {
				t.Fatalf("the refused Put executed: k = %q", v)
			}
			unlock(sm, 101, "k")
			w = expect(sm, 2)
			sm.Apply(encodePut(2, "k", []byte("v")))
			if !woken(w) || w.moved || !w.first.OK {
				t.Fatalf("waiter after the re-driven Put: first %+v moved %v", w.first, w.moved)
			}
			if v := sm.items["k"]; string(v) != "v" || !recorded(sm, 2) {
				t.Fatalf("the re-driven Put: k = %q, recorded %v", v, recorded(sm, 2))
			}
		}},
		{"a sequenced read is handed, not recorded, and is nothing where nobody waits", func(t *testing.T, sm *mapSM) {
			sm.Apply(encodePut(10, "k", []byte("v")))
			held, digest := sm.results.len(), sm.StateDigest()
			w := expect(sm, 3)
			sm.Apply(encodeGet(3, []string{"k", "absent"}))
			if !woken(w) || w.moved || len(w.first.Values) != 2 || string(w.first.Values[0]) != "v" ||
				!w.first.Found[0] || w.first.Found[1] {
				t.Fatalf("waiter after the read applied: first %+v moved %v", w.first, w.moved)
			}
			sm.Apply(encodeGet(4, []string{"k"})) // nobody waits for this one
			if recorded(sm, 3) || recorded(sm, 4) || sm.results.len() != held || sm.StateDigest() != digest {
				t.Fatalf("reads changed replicated state: %d results (was %d), digest %x (was %x)",
					sm.results.len(), held, sm.StateDigest(), digest)
			}
			lock(sm, 100, "k")
			w = expect(sm, 5)
			sm.Apply(encodeGet(5, []string{"k"}))
			if !woken(w) || !w.moved || recorded(sm, 5) {
				t.Fatalf("a read of a locked key: woken with moved=%v, recorded %v", w.moved, recorded(sm, 5))
			}
		}},
		{"a dedup hit hands the recorded result to a new waiter", func(t *testing.T, sm *mapSM) {
			sm.Apply(encodePut(20, "k", []byte("v")))
			sm.Apply(encodeDelete(6, "k"))
			w := expect(sm, 6)
			sm.Apply(encodeDelete(6, "k")) // the retry: k is gone, a second execution would answer false
			if !woken(w) || !w.first.OK || w.moved {
				t.Fatalf("waiter after the retried Delete: first %+v moved %v", w.first, w.moved)
			}
		}},
		{"an n-id waiter wakes on its nth distinct id, and a duplicate delivery does not count", func(t *testing.T, sm *mapSM) {
			w := expect(sm, 30, 31, 32)
			sm.Apply(encodeBatchPut([]uint64{30, 31}, []Pair{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("2")}}))
			sm.Apply(encodeBatchPut([]uint64{30, 31}, []Pair{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("2")}}))
			sm.Apply(encodePut(31, "b", []byte("2")))
			if woken(w) || w.pending != 1 {
				t.Fatalf("two of three ids answered, some of them twice: pending %d", w.pending)
			}
			sm.Apply(encodePut(32, "c", []byte("3")))
			if !woken(w) || w.moved || w.first.Key != "a" {
				t.Fatalf("waiter after its third id: first %+v moved %v", w.first, w.moved)
			}
			if len(sm.waiters) != 0 {
				t.Fatalf("%d claims left registered", len(sm.waiters))
			}
		}},
		{"two callers on one id are both answered, and one leaving does not take the other along", func(t *testing.T, sm *mapSM) {
			a, b, c := expect(sm, 40), expect(sm, 40, 41), expect(sm, 40)
			sm.forget(b)
			sm.Apply(encodePut(40, "k", []byte("v")))
			if !woken(a) || !woken(c) || woken(b) {
				t.Fatal("the callers that stayed were not both answered, or the one that left was")
			}
			if len(sm.waiters) != 0 {
				t.Fatalf("%d claims left registered", len(sm.waiters))
			}
		}},
		{"cancel leaves the registry empty", func(t *testing.T, sm *mapSM) {
			w := expect(sm, 50, 51, 50)
			sm.Apply(encodePut(51, "k", []byte("v")))
			sm.forget(w)
			if len(sm.waiters) != 0 {
				t.Fatalf("%d claims left registered after forget", len(sm.waiters))
			}
			sm.Apply(encodePut(50, "k", []byte("w")))
			if woken(w) {
				t.Fatal("a withdrawn waiter was woken")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.run(t, newMapSM("handoff", 0, Routing{Shards: 1, VNodes: 8}, 64, nil))
		})
	}
}
