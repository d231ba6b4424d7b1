package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"amoeba"
	"amoeba/internal/bufpool"
)

// TestAllocBudgetClientPut holds a replicated write to its allocation budget:
// the heap objects the whole process allocates per Client.Do(Put) on a
// three-node in-memory store (four shards, every node a replica of each) — the
// kv codec, one ordered send, three applies and the hand-off of the local
// one's answer — in steady state. Before buffers had one owner each this read
// about 64.
func TestAllocBudgetClientPut(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "budget", 3, Options{Shards: 4, ResultWindow: 256})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[1].NewClient()
	defer cl.Close()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	val := make([]byte, 64)
	n := 0
	put := func() {
		n++
		resp, err := cl.Do(ctx, &Request{Op: ReqPut, Key: keys[n%len(keys)], Val: val})
		if err != nil || !resp.OK {
			t.Errorf("Put: %+v, %v", resp, err)
		}
	}
	for i := 0; i < 1000; i++ {
		put() // fill the pools and the result windows, pass the first history prunes
	}
	const budget = 15 // measured 14, plus a tenth
	if got := testing.AllocsPerRun(3000, put); got > budget {
		t.Fatalf("a replicated Put costs %.0f heap objects process-wide, budget %d", got, budget)
	}
}

// TestAllocBudgetClientBatchPut is the same budget per pair of a 16-pair
// Client.Do(BatchPut) on the same store: four pairs a shard, so one command,
// one ordered send and three applies carry four keys. With a command per pair
// this read about 23, and 12.2 with a goroutine per shard's part.
func TestAllocBudgetClientBatchPut(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "batchbudget", 3, Options{Shards: 4, ResultWindow: 256})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[1].NewClient()
	defer cl.Close()
	// Sixteen keys, four on each shard, rewritten by every call.
	const perCall = 16
	pairs := make([]Pair, 0, perCall)
	val := make([]byte, 64)
	for shard := 0; shard < 4; shard++ {
		for i := 0; i < perCall/4; i++ {
			pairs = append(pairs, Pair{Key: keyOnShard(stores[1], shard, fmt.Sprintf("key-%d", i)), Val: val})
		}
	}
	put := func() {
		resp, err := cl.Do(ctx, &Request{Op: ReqBatchPut, Pairs: pairs})
		if err != nil || !resp.OK {
			t.Errorf("BatchPut: %+v, %v", resp, err)
		}
	}
	for i := 0; i < 200; i++ {
		put() // fill the pools and the result windows, pass the first history prunes
	}
	const budget = 13.0 // measured 11.8 (189 a call), plus a tenth
	if got := testing.AllocsPerRun(1000, put) / perCall; got > budget {
		t.Fatalf("a replicated BatchPut costs %.1f heap objects per pair process-wide, budget %.1f", got, budget)
	}
}

// TestAllocBudgetTxnTombstones holds what a resolved transaction leaves behind
// on its shard: the heap one state machine retains per tombstone, after a
// collection, once it has resolved a full window of four-key transactions —
// half committed with two 64-byte reads and two writes, half read-only (an
// MGet) and aborted with four reads, the mix a transactional workload leaves.
// While a tombstone was the resolved *txnPortion itself, with its decoded key
// strings and value copies, this read 742 B (amd64, Go 1.24); the bound is
// half that. As one byte record each, committed ones alone keeping their reads,
// it reads 243 B.
func TestAllocBudgetTxnTombstones(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("heap figures are for plain, full runs")
	}
	sm := newMapSM("tombs", 0, Routing{Shards: 1, VNodes: 8}, 64, nil)
	val := bytes.Repeat([]byte{'v'}, 64)
	const keys = 256
	key := func(i int) string { return fmt.Sprintf("key-%05d", i%keys) }
	for i := 0; i < keys; i++ {
		sm.Apply(encodePut(uint64(i+1), key(i), val))
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	id := uint64(1 << 32)
	for n := 0; n < txnTombstoneWindow; n++ {
		ks := []string{key(4 * n), key(4*n + 1), key(4*n + 2), key(4*n + 3)}
		txnID, commit := uint64(n+1), n%2 == 0
		if commit {
			sm.Apply(encodeTxnPrepare(id, txnID, ks[0], ks, ks[:2], []TxnWrite{{Key: ks[2], Val: val}, {Key: ks[3], Val: val}}, nil))
		} else {
			sm.Apply(encodeTxnPrepare(id, txnID, ks[0], ks, ks, nil, nil))
		}
		sm.Apply(encodeTxnResolve(id+1, txnID, commit, ks[0], ks))
		id += 2
	}
	after := heap()
	if got := len(sm.txnOrder); got != txnTombstoneWindow {
		t.Fatalf("%d tombstones queued, want %d", got, txnTombstoneWindow)
	}
	const budget = 371 // half the figure above
	if per := float64(after-before) / txnTombstoneWindow; per > budget {
		t.Fatalf("a tombstone retains %.0f B of heap, budget %d", per, budget)
	}
	runtime.KeepAlive(sm)
}
