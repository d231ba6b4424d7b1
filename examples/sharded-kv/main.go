// Sharded key-value store: the multi-group scaling layer on top of the
// paper's primitives.
//
// The keyspace is consistent-hashed across four shard groups, each an
// independently sequenced replicated state machine hosted on all three
// nodes. Writes to different shards order through different sequencers, so
// the single-sequencer bottleneck of a one-group store (paper Figure 4) is
// multiplied away (Figure 6).
//
// The demo loads data through clients on different nodes, crashes a node
// mid-workload (taking its replica of every shard and the sequencer of the
// shards it led), keeps writing while the groups auto-recover, re-admits a
// replacement node with atomic state transfer on every shard, and proves
// the replacement converged to the identical replicated state.
//
//	go run ./examples/sharded-kv
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"amoeba"
	"amoeba/kv"
	"amoeba/shared"
)

const (
	shards = 4
	nodes  = 3
	keys   = 120
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	network := amoeba.NewMemoryNetwork()
	defer network.Close()

	// Bootstrap: 3 nodes, each hosting a replica of all 4 shards. Shard
	// sequencers land round-robin: node 0 leads shards 0 and 3, node 1
	// leads shard 1, node 2 leads shard 2.
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := network.NewKernel(fmt.Sprintf("node-%d", i))
		if err != nil {
			log.Fatalf("kernel: %v", err)
		}
		kernels[i] = k
	}
	opts := kv.Options{Shards: shards, Group: amoeba.GroupOptions{
		Resilience:   1,
		AutoReset:    true,
		MinSurvivors: 2,
	}}
	stores, err := kv.Bootstrap(ctx, kernels, "demo", opts)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	fmt.Printf("bootstrapped %q: %d shards × %d nodes, resilience 1\n", "demo", shards, nodes)

	// Load data through clients on different nodes; the ring routes each
	// key to its shard regardless of which node the client talks to.
	for i := 0; i < keys; i++ {
		cl := stores[i%nodes].NewClient()
		if err := cl.Put(ctx, key(i), []byte(val(i, "v1"))); err != nil {
			log.Fatalf("put %s: %v", key(i), err)
		}
	}
	perShard := make([]int, shards)
	for i := 0; i < keys; i++ {
		perShard[stores[0].ShardFor(key(i))]++
	}
	fmt.Printf("loaded %d keys, spread across shards: %v\n", keys, perShard)

	// Linearizable read through a different node than the writer used.
	if v, ok, err := stores[2].NewClient().Get(ctx, key(7)); err != nil || !ok {
		log.Fatalf("sequenced read: %q %v %v", v, ok, err)
	} else {
		fmt.Printf("sequenced read of %s via node 2: %s\n", key(7), v)
	}

	// Crash node 2: its replicas of all four shards die, including the
	// sequencer of shard 2. AutoReset rebuilds each group with the two
	// survivors while the workload keeps writing.
	fmt.Println("crashing node 2 mid-workload…")
	stores[2].Close()
	for i := 0; i < keys; i++ {
		cl := stores[i%2].NewClient()
		if err := putRetry(ctx, cl, key(i), []byte(val(i, "v2"))); err != nil {
			log.Fatalf("put during recovery %s: %v", key(i), err)
		}
	}
	fmt.Println("all keys overwritten to v2 while the groups recovered")

	// Re-admit a replacement node: every shard joins with atomic state
	// transfer, so the new node arrives holding the full keyspace.
	fmt.Println("joining replacement node…")
	kNew, err := network.NewKernel("node-2-reborn")
	if err != nil {
		log.Fatalf("replacement kernel: %v", err)
	}
	joinCtx, cancelJoin := context.WithTimeout(ctx, 45*time.Second)
	replacement, err := kv.Join(joinCtx, kNew, "demo", opts)
	cancelJoin()
	if err != nil {
		log.Fatalf("join: %v", err)
	}
	defer replacement.Close()

	// Verify: the replacement answers every key locally with the v2 value.
	cl := replacement.NewClient()
	for i := 0; i < keys; i++ {
		want := val(i, "v2")
		deadline := time.Now().Add(10 * time.Second)
		for {
			if v, ok := cl.LocalGet(key(i)); ok && string(v) == want {
				break
			}
			if time.Now().After(deadline) {
				v, ok := cl.LocalGet(key(i))
				log.Fatalf("replacement missing %s: %q %v (want %s)", key(i), v, ok, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	fmt.Printf("replacement node serves all %d keys locally after state transfer\n", keys)

	// And the copies are identical, shard by shard.
	nodesNow := []*kv.Store{stores[0], stores[1], replacement}
	for i := 0; i < shards; i++ {
		waitSync(nodesNow, i)
		d0 := digest(nodesNow[0], i)
		for n := 1; n < len(nodesNow); n++ {
			if d := digest(nodesNow[n], i); d != d0 {
				log.Fatalf("shard %d diverged: node 0 %s vs node %d %s", i, d0, n, d)
			}
		}
		fmt.Printf("shard %d converged on all nodes: digest %s\n", i, d0)
	}
	stores[0].Close()
	stores[1].Close()
}

func key(i int) string             { return fmt.Sprintf("user-%04d", i) }
func val(i int, gen string) string { return fmt.Sprintf("%s-of-user-%04d", gen, i) }

// putRetry retries a Put across recovery windows (a shard mid-reset rejects
// or delays writes briefly).
func putRetry(ctx context.Context, cl *kv.Client, k string, v []byte) error {
	for attempt := 0; ; attempt++ {
		opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := cl.Put(opCtx, k, v)
		cancel()
		if err == nil {
			return nil
		}
		if attempt > 200 || ctx.Err() != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitSync blocks until every node applied shard i to the same watermark.
func waitSync(stores []*kv.Store, i int) {
	for deadline := time.Now().Add(15 * time.Second); ; {
		var hi uint32
		for _, s := range stores {
			if a := s.Replica(i).Applied(); a > hi {
				hi = a
			}
		}
		synced := true
		for _, s := range stores {
			if s.Replica(i).Applied() < hi {
				synced = false
			}
		}
		if synced || time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// digest summarises one node's copy of shard i by its state digest — the
// fold the audits and WAL checkpoints compare, over the items and the
// replicated result window alike.
func digest(s *kv.Store, i int) string {
	var d uint64
	s.Replica(i).Read(func(sm shared.StateMachine) {
		d = sm.(shared.Digester).StateDigest()
	})
	return fmt.Sprintf("%016x", d)
}
