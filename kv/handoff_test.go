package kv

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"amoeba"
	"amoeba/shared"
)

// TestAnswerHandoff holds the one place a command is answered to its contract,
// on a bare state machine: what is handed to the local waiter, what is
// recorded for a retry, and what a waiter counts.
func TestAnswerHandoff(t *testing.T) {
	// expect registers a waiter for testSession's commands at seqs.
	expect := func(sm *mapSM, seqs ...uint64) *answerWaiter {
		w := &answerWaiter{done: make(chan struct{}, 1)}
		ids := make([]uint64, len(seqs))
		for i, seq := range seqs {
			ids[i] = cmdID(testSession, seq)
		}
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
	recorded := func(sm *mapSM, seq uint64) bool {
		st := sm.sessions[testSession]
		if st == nil {
			return false
		}
		_, ok := st.outcome(seq)
		return ok
	}
	outcomes := func(sm *mapSM) int {
		if st := sm.sessions[testSession]; st != nil {
			return len(st.outcomes)
		}
		return 0
	}
	// lock takes a prepare lock on key for transaction 77; unlock commits it.
	lock := func(t *testing.T, sm *mapSM, id uint64, key string) {
		applyChecked(t, sm, encodeTxnPrepare(at(77), 0, key, []string{key}, nil, []TxnWrite{{Key: key, Val: []byte("txn")}}, nil))
	}
	unlock := func(t *testing.T, sm *mapSM, id uint64, key string) {
		applyChecked(t, sm, encodeTxnResolve(at(77), 0, true, key, []string{key}))
	}

	rows := []struct {
		name string
		run  func(t *testing.T, sm *mapSM)
	}{
		{"an executed mutation is handed and recorded", func(t *testing.T, sm *mapSM) {
			w := expect(sm, 1)
			applyChecked(t, sm, encodeCAS(at(1), "k", false, nil, []byte("v")))
			if !woken(w) || !w.first.OK || w.moved || w.first.Key != "k" {
				t.Fatalf("waiter after the CAS applied: first %+v moved %v", w.first, w.moved)
			}
			if !recorded(sm, 1) {
				t.Fatal("the CAS's result was not recorded: its retry would execute again")
			}
		}},
		{"a refusal is handed, not recorded, and the retry is answered by its own application", func(t *testing.T, sm *mapSM) {
			lock(t, sm, 100, "k")
			w := expect(sm, 2)
			applyChecked(t, sm, encodePut(at(2), "k", []byte("v")))
			if !woken(w) || !w.moved {
				t.Fatalf("waiter after a Put on a locked key: woken with moved=%v", w.moved)
			}
			if recorded(sm, 2) {
				t.Fatal("the refusal was recorded")
			}
			if v := sm.items["k"]; v != nil {
				t.Fatalf("the refused Put executed: k = %q", v)
			}
			unlock(t, sm, 101, "k")
			w = expect(sm, 2)
			applyChecked(t, sm, encodePut(at(2), "k", []byte("v")))
			if !woken(w) || w.moved || !w.first.OK {
				t.Fatalf("waiter after the re-driven Put: first %+v moved %v", w.first, w.moved)
			}
			if v := sm.items["k"]; string(v) != "v" || !recorded(sm, 2) {
				t.Fatalf("the re-driven Put: k = %q, recorded %v", v, recorded(sm, 2))
			}
		}},
		{"a sequenced read is handed, not recorded, and is nothing where nobody waits", func(t *testing.T, sm *mapSM) {
			applyChecked(t, sm, encodePut(at(10), "k", []byte("v")))
			held, digest := outcomes(sm), sm.StateDigest()
			w := expect(sm, 3)
			applyChecked(t, sm, encodeGet(at(3), []string{"k", "absent"}))
			if !woken(w) || w.moved || len(w.first.Values) != 2 || string(w.first.Values[0]) != "v" ||
				!w.first.Found[0] || w.first.Found[1] {
				t.Fatalf("waiter after the read applied: first %+v moved %v", w.first, w.moved)
			}
			applyChecked(t, sm, encodeGet(at(4), []string{"k"})) // nobody waits for this one
			if recorded(sm, 3) || recorded(sm, 4) || outcomes(sm) != held || sm.StateDigest() != digest {
				t.Fatalf("reads changed replicated state: %d outcomes (was %d), digest %x (was %x)",
					outcomes(sm), held, sm.StateDigest(), digest)
			}
			lock(t, sm, 100, "k")
			w = expect(sm, 5)
			applyChecked(t, sm, encodeGet(at(5), []string{"k"}))
			if !woken(w) || !w.moved || recorded(sm, 5) {
				t.Fatalf("a read of a locked key: woken with moved=%v, recorded %v", w.moved, recorded(sm, 5))
			}
		}},
		{"a dedup hit hands the recorded result to a new waiter", func(t *testing.T, sm *mapSM) {
			applyChecked(t, sm, encodePut(at(20), "k", []byte("v")))
			applyChecked(t, sm, encodeDelete(at(6), "k"))
			w := expect(sm, 6)
			applyChecked(t, sm, encodeDelete(at(6), "k")) // the retry: k is gone, a second execution would answer false
			if !woken(w) || !w.first.OK || w.moved {
				t.Fatalf("waiter after the retried Delete: first %+v moved %v", w.first, w.moved)
			}
		}},
		{"a late duplicate below its session's ack is handed stale and does not execute", func(t *testing.T, sm *mapSM) {
			applyChecked(t, sm, encodePut(at(7), "k", []byte("first")))
			applyChecked(t, sm, encodePut(header{session: testSession, seq: 8, ack: 8}, "k", []byte("second")))
			if recorded(sm, 7) {
				t.Fatal("an acknowledged outcome is still held")
			}
			w := expect(sm, 7)
			applyChecked(t, sm, encodePut(at(7), "k", []byte("first")))
			if !woken(w) || !w.stale || w.moved || string(sm.items["k"]) != "second" {
				t.Fatalf("the late duplicate: stale %v moved %v, k = %q", w.stale, w.moved, sm.items["k"])
			}
		}},
		{"an n-id waiter wakes on its nth distinct id, and a duplicate delivery does not count", func(t *testing.T, sm *mapSM) {
			w := expect(sm, 30, 31, 32)
			applyChecked(t, sm, encodeBatchPut(at(0), []uint64{30, 31}, []Pair{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("2")}}))
			applyChecked(t, sm, encodeBatchPut(at(0), []uint64{30, 31}, []Pair{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("2")}}))
			applyChecked(t, sm, encodePut(at(31), "b", []byte("2")))
			if woken(w) || w.pending != 1 {
				t.Fatalf("two of three ids answered, some of them twice: pending %d", w.pending)
			}
			applyChecked(t, sm, encodePut(at(32), "c", []byte("3")))
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
			applyChecked(t, sm, encodePut(at(40), "k", []byte("v")))
			if !woken(a) || !woken(c) || woken(b) {
				t.Fatal("the callers that stayed were not both answered, or the one that left was")
			}
			if len(sm.waiters) != 0 {
				t.Fatalf("%d claims left registered", len(sm.waiters))
			}
		}},
		{"cancel leaves the registry empty", func(t *testing.T, sm *mapSM) {
			w := expect(sm, 50, 51, 50)
			applyChecked(t, sm, encodePut(at(51), "k", []byte("v")))
			sm.forget(w)
			if len(sm.waiters) != 0 {
				t.Fatalf("%d claims left registered after forget", len(sm.waiters))
			}
			applyChecked(t, sm, encodePut(at(50), "k", []byte("w")))
			if woken(w) {
				t.Fatal("a withdrawn waiter was woken")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.run(t, newMapSM("handoff", 0, Routing{Shards: 1, VNodes: 8}, nil))
		})
	}
}

// TestSplitPhaseFailures holds the split-phase local path — every shard's part
// of a BatchPut begun on the caller's goroutine before any is waited for — to
// its failure contract on a three-node store, from node 1. To keep parts
// waiting, node 1 is cut off the network: a part whose shard another node
// sequences cannot be ordered until the cable is back.
func TestSplitPhaseFailures(t *testing.T) {
	base := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, base, net, "split", 3, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	node := stores[1]
	cl := node.NewClient()
	defer cl.Close()
	claims := func(shard int) int {
		n := 0
		node.Replica(shard).Read(func(sm shared.StateMachine) { n = len(sm.(*mapSM).waiters) })
		return n
	}
	allClaims := func() int {
		n := 0
		for i := 0; i < 4; i++ {
			n += claims(i)
		}
		return n
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// pairs is one pair per shard, in shard order, under a fresh tag.
	pairs := func(tag string) []Pair {
		out := make([]Pair, 4)
		for i := range out {
			out[i] = Pair{Key: keyOnShard(node, i, tag), Val: []byte(tag)}
		}
		return out
	}
	// remote is a shard node 1 does not sequence: its part waits while node 1
	// is cut off.
	remote := -1
	for i := 0; i < 4 && remote < 0; i++ {
		if !node.Replica(i).Info().IsSequencer {
			remote = i
		}
	}
	if remote < 0 {
		t.Fatal("node 1 sequences every shard")
	}
	// batchPutCut starts a BatchPut of ps with node 1 cut off and returns, the
	// cable still out, once the remote shard's part is waiting.
	batchPutCut := func(ctx context.Context, ps []Pair) <-chan error {
		cutOff(net, node, stores)
		done := make(chan error, 1)
		go func() { done <- cl.BatchPut(ctx, ps) }()
		waitFor("the remote shard's part to wait", func() bool { return claims(remote) > 0 })
		return done
	}

	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"a cancelled wait withdraws every shard's claims", func(t *testing.T) {
			ps := pairs("cancel")
			ctx, cancel := context.WithCancel(base)
			done := batchPutCut(ctx, ps)
			cancel()
			err := <-done
			net.Heal()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("BatchPut cancelled mid-wait: %v", err)
			}
			if n := allClaims(); n != 0 {
				t.Fatalf("%d claims left registered after the cancelled BatchPut", n)
			}
			// The abandoned parts still land; a repeat returns once they have.
			if err := cl.BatchPut(base, ps); err != nil {
				t.Fatalf("BatchPut after reconnecting: %v", err)
			}
		}},
		{"a part whose replica stops mid-wait is re-driven on the replacement, and only that part", func(t *testing.T) {
			ps := pairs("swap")
			applied := make([]uint32, 4)
			for i := range applied {
				applied[i] = node.Replica(i).Applied()
			}
			done := batchPutCut(base, ps)
			old := node.Replica(remote)
			old.Close()
			net.Heal()
			if err := <-done; err != nil {
				t.Fatalf("BatchPut across the replica swap: %v", err)
			}
			if node.Replica(remote) == old {
				t.Fatal("BatchPut returned on the stopped replica")
			}
			for _, p := range ps {
				if v, ok := cl.LocalGet(p.Key); !ok || string(v) != "swap" {
					t.Fatalf("LocalGet %s = %q %v after the BatchPut returned", p.Key, v, ok)
				}
			}
			// Every other part was ordered and applied once: kept, not re-driven.
			for i := range applied {
				if got := node.Replica(i).Applied() - applied[i]; i != remote && got != 1 {
					t.Fatalf("shard %d applied %d commands for a one-command part", i, got)
				}
			}
			if n := allClaims(); n != 0 {
				t.Fatalf("%d claims left registered", n)
			}
		}},
		{"a failed submission returns at once", func(t *testing.T) {
			ps := pairs("big")
			ps[remote].Val = make([]byte, 70<<10) // over the group's 64 KiB message limit
			ctx, cancel := context.WithTimeout(base, 20*time.Second)
			defer cancel()
			t0 := time.Now()
			err := cl.BatchPut(ctx, ps)
			if err == nil || !strings.Contains(err.Error(), "exceeds maximum size") {
				t.Fatalf("BatchPut with an oversized pair: %v", err)
			}
			if took := time.Since(t0); took > 5*time.Second {
				t.Fatalf("the refused submission took %v to report", took)
			}
			if n := allClaims(); n != 0 {
				t.Fatalf("%d claims left registered", n)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}
