package kv

import (
	"fmt"
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
