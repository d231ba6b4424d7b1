package kv

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/shared"
)

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// newCluster bootstraps a store over fresh kernels and arranges cleanup.
func newCluster(t *testing.T, ctx context.Context, net *amoeba.MemoryNetwork, name string, nodes int, opts Options) []*Store {
	t.Helper()
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("%s-node-%d", name, i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		kernels[i] = k
	}
	stores, err := Bootstrap(ctx, kernels, name, opts)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return stores
}

// cutOff pulls node's cable: it partitions node's kernel from every other
// node of stores. net.Heal puts the cable back.
func cutOff(net *amoeba.MemoryNetwork, node *Store, stores []*Store) {
	for _, s := range stores {
		if s != node {
			net.Partition(node.kernel, s.kernel)
		}
	}
}

func TestBasicOps(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "basic", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()

	// Put / sequenced Get.
	if err := cl.Put(ctx, "alpha", []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := cl.Get(ctx, "alpha")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get alpha = %q %v %v", v, ok, err)
	}
	// Read-your-writes holds even on the local fast path, because Put
	// waits for the local apply.
	if v, ok := cl.LocalGet("alpha"); !ok || string(v) != "1" {
		t.Fatalf("LocalGet alpha = %q %v", v, ok)
	}
	if _, ok, _ := cl.Get(ctx, "missing"); ok {
		t.Fatal("Get of missing key reported found")
	}
	if _, ok := cl.LocalGet("missing"); ok {
		t.Fatal("LocalGet of missing key reported found")
	}

	// Delete reports prior existence.
	if existed, err := cl.Delete(ctx, "alpha"); err != nil || !existed {
		t.Fatalf("Delete alpha = %v %v", existed, err)
	}
	if existed, err := cl.Delete(ctx, "alpha"); err != nil || existed {
		t.Fatalf("second Delete alpha = %v %v", existed, err)
	}

	// CAS: create-if-absent, replace-if-equal, fail-if-different.
	if ok, err := cl.CAS(ctx, "cas", nil, []byte("first")); err != nil || !ok {
		t.Fatalf("CAS create = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, "cas", nil, []byte("again")); err != nil || ok {
		t.Fatalf("CAS create over existing = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, "cas", []byte("wrong"), []byte("x")); err != nil || ok {
		t.Fatalf("CAS wrong expect = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, "cas", []byte("first"), []byte("second")); err != nil || !ok {
		t.Fatalf("CAS replace = %v %v", ok, err)
	}
	if v, _, _ := cl.Get(ctx, "cas"); string(v) != "second" {
		t.Fatalf("cas = %q after swap", v)
	}
}

// groupCounters sums every hosted replica's group counters per shard.
func groupCounters(stores []*Store) (ordered, batches map[int]uint64) {
	ordered, batches = map[int]uint64{}, map[int]uint64{}
	for _, s := range stores {
		for i := 0; i < s.Shards(); i++ {
			if r := s.Replica(i); r != nil {
				st := r.Stats()
				ordered[i] += st.Ordered
				batches[i] += st.OrderedBatches
			}
		}
	}
	return ordered, batches
}

// TestBatchPutCoalescesAcrossShards bulk-loads through the batch command:
// pairs scatter to their owning shards, each shard's pairs travel as ONE
// ordered message however many they are, and every write must be readable
// afterwards — from another node too. Only a shard's pairs beyond the
// per-command byte bound take several commands, and those ride the group
// layer's batch requests (kv's one test on core's batch path).
func TestBatchPutCoalescesAcrossShards(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	// Method PB: left to itself the group layer broadcasts a payload of a
	// kilobyte or more itself (BB), and only PB requests coalesce.
	stores := newCluster(t, ctx, net, "batchput", 2, Options{Shards: 2,
		Group: amoeba.GroupOptions{Method: amoeba.MethodPB}})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	// Issue the batch from the node that does NOT sequence every shard, so
	// at least one shard's command crosses the wire.
	cl := stores[1].NewClient()
	other := stores[0].NewClient()
	const n = 64
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: fmt.Sprintf("bulk-%03d", i), Val: []byte(fmt.Sprintf("v%d", i))}
	}
	before, _ := groupCounters(stores)
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("BatchPut: %v", err)
	}
	after, batches := groupCounters(stores)
	for shard := 0; shard < 2; shard++ {
		if got := after[shard] - before[shard]; got != 1 {
			t.Errorf("shard %d ordered %d messages for its share of one BatchPut, want 1", shard, got)
		}
		if batches[shard] != 0 {
			t.Errorf("shard %d ordered %d batch requests: one command needs none", shard, batches[shard])
		}
	}
	// Read-your-writes locally on the issuing node...
	for _, p := range pairs {
		if v, ok := cl.LocalGet(p.Key); !ok || !bytes.Equal(v, p.Val) {
			t.Fatalf("LocalGet %s = %q %v after BatchPut", p.Key, v, ok)
		}
	}
	// ...and sequenced reads from the other node agree.
	got, err := other.MGet(ctx, "bulk-000", "bulk-031", "bulk-063")
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for k, want := range map[string]string{"bulk-000": "v0", "bulk-031": "v31", "bulk-063": "v63"} {
		if string(got[k]) != want {
			t.Fatalf("MGet %s = %q, want %q", k, got[k], want)
		}
	}

	// Twelve 8 KiB values on one shard are four commands of three (a fourth
	// pair would pass the bound): they go through one Replica.Start, the
	// sequencer orders them as batch requests of two (three would pass the
	// group layer's message limit), and every pair lands on both nodes.
	big := make([]Pair, 12)
	for i := range big {
		big[i] = Pair{Key: keyOnShard(stores[0], 0, fmt.Sprintf("big-%02d", i)), Val: bytes.Repeat([]byte{byte('a' + i)}, 8<<10)}
	}
	before, _ = groupCounters(stores)
	if err := cl.BatchPut(ctx, big); err != nil {
		t.Fatalf("BatchPut of %d KiB on one shard: %v", len(big)*8, err)
	}
	after, batches = groupCounters(stores)
	if got := after[0] - before[0]; got != 4 {
		t.Errorf("shard 0 ordered %d messages for 96 KiB of pairs, want 4 commands under the %d KiB bound", got, maxCommandBytes>>10)
	}
	if batches[0] == 0 {
		t.Error("several commands for one shard produced no batch ordering request")
	}
	for _, p := range big {
		v, ok, err := other.Get(ctx, p.Key)
		if err != nil || !ok || !bytes.Equal(v, p.Val) {
			t.Fatalf("Get %s from the other node: %d bytes, found %v, err %v", p.Key, len(v), ok, err)
		}
	}
}

// TestBatchPutIsExactlyOnceUnderRetry checks the dedup contract the BatchPut
// retry loop depends on: re-submitting an already-committed batch under its
// (session, seqs) must not re-execute it, and a batch command that mixes
// applied seqs with new ones — what a re-split after an epoch flip sends —
// executes only the new.
func TestBatchPutIsExactlyOnceUnderRetry(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "batchonce", 1, Options{Shards: 1})
	defer stores[0].Close()

	cl := stores[0].NewClient()
	session := newSessionID(time.Now())
	putBatch := func(seqs []uint64, pairs []Pair) error {
		_, err := cl.Do(ctx, &Request{Op: ReqBatchPut, Session: session, IDs: seqs, Pairs: pairs})
		return err
	}
	ids := []uint64{1, 2}
	pairs := []Pair{{Key: "k", Val: []byte("first")}, {Key: "k", Val: []byte("second")}}
	if err := putBatch(ids, pairs); err != nil {
		t.Fatalf("putBatch: %v", err)
	}
	if v, ok := cl.LocalGet("k"); !ok || string(v) != "second" {
		t.Fatalf("k = %q %v: a batch's pairs must apply in slice order", v, ok)
	}
	if err := cl.Put(ctx, "k", []byte("third")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Replaying the original batch (a retry after a presumed-lost reply)
	// must be a no-op: the pairs' seqs already have outcomes.
	if err := putBatch(ids, pairs); err != nil {
		t.Fatalf("putBatch replay: %v", err)
	}
	if v, ok := cl.LocalGet("k"); !ok || string(v) != "third" {
		t.Fatalf("k = %q %v: replayed batch re-executed", v, ok)
	}
	// The mixed case: one applied seq (leading the command, so a dedup keyed
	// on the command rather than the pair would swallow both) and one new.
	mixedIDs := []uint64{ids[1], 3}
	mixed := []Pair{{Key: "k", Val: []byte("second")}, {Key: "fresh", Val: []byte("new")}}
	if err := putBatch(mixedIDs, mixed); err != nil {
		t.Fatalf("putBatch mixed: %v", err)
	}
	if v, ok := cl.LocalGet("k"); !ok || string(v) != "third" {
		t.Fatalf("k = %q %v: the applied pair of a mixed batch re-executed", v, ok)
	}
	if v, ok := cl.LocalGet("fresh"); !ok || string(v) != "new" {
		t.Fatalf("fresh = %q %v: the new pair of a mixed batch did not execute", v, ok)
	}
}

// TestBatchPutLargerThanResultWindow writes 64 pairs to one shard in one
// call — four times what the 16-entry result window of earlier builds held,
// where looking the answers up after the batch applied waited forever. Each
// pair's answer is handed to the caller as the pair applies, whatever the
// shard keeps of it afterwards.
func TestBatchPutLargerThanResultWindow(t *testing.T) {
	ctx := ctxT(t, 10*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "batchwindow", 1, Options{Shards: 1})
	defer stores[0].Close()

	cl := stores[0].NewClient()
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{Key: fmt.Sprintf("wide-%02d", i), Val: []byte{byte(i)}}
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("BatchPut of %d pairs: %v", len(pairs), err)
	}
	for _, p := range pairs {
		if v, ok := cl.LocalGet(p.Key); !ok || !bytes.Equal(v, p.Val) {
			t.Fatalf("LocalGet %s = %v %v", p.Key, v, ok)
		}
	}
}

// TestConcurrentBatchPutThroughSmallWindow has four clients write 64-pair
// batches to one shard at once — the crowd that, through the 16-entry result
// window of earlier builds, evicted every caller's results before it came
// back for them. Every call must return — a caller is handed its answers as
// its pairs apply, and each session's outcomes are freed by that session's
// own acks, never by the other callers' traffic — and every key must read
// back its caller's last round.
func TestConcurrentBatchPutThroughSmallWindow(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "batchcrowd", 1, Options{Shards: 1})
	defer stores[0].Close()

	const clients, rounds, width = 4, 50, 64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := stores[0].NewClient()
			defer cl.Close()
			pairs := make([]Pair, width)
			for round := 0; round < rounds; round++ {
				for i := range pairs {
					pairs[i] = Pair{Key: fmt.Sprintf("crowd-%d-%02d", c, i), Val: []byte{byte(round)}}
				}
				callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
				err := cl.BatchPut(callCtx, pairs)
				cancel()
				if err != nil {
					t.Errorf("client %d round %d: BatchPut of %d pairs: %v", c, round, width, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cl := stores[0].NewClient()
	defer cl.Close()
	for c := 0; c < clients; c++ {
		for i := 0; i < width; i++ {
			key := fmt.Sprintf("crowd-%d-%02d", c, i)
			if v, ok := cl.LocalGet(key); !ok || !bytes.Equal(v, []byte{rounds - 1}) {
				t.Fatalf("LocalGet %s = %v %v, want its caller's last round %d", key, v, ok, rounds-1)
			}
		}
	}
}

func TestOperationsSpreadAcrossShards(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "spread", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	hit := make(map[int]bool)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("spread-%d", i)
		hit[stores[0].ShardFor(key)] = true
		if err := cl.Put(ctx, key, []byte{byte(i)}); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	if len(hit) != 4 {
		t.Fatalf("64 keys hit only %d of 4 shards", len(hit))
	}
	// Each shard group really carries only its own keys: per-shard applied
	// watermarks are all well below the total operation count.
	for i := 0; i < stores[0].Shards(); i++ {
		if a := stores[0].Replica(i).Applied(); a >= 64 {
			t.Fatalf("shard %d applied %d commands; sharding not partitioning load", i, a)
		}
	}
}

func TestSequencedReadSeesOtherNodesWrite(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "seqread", 3, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	writer := stores[0].NewClient()
	reader := stores[2].NewClient()
	for i := 0; i < 20; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		if err := writer.Put(ctx, "shared-key", want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// The write completed before this Get began, so a linearizable
		// read through another node MUST observe it.
		got, ok, err := reader.Get(ctx, "shared-key")
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: Get = %q %v %v, want %q", i, got, ok, err, want)
		}
	}
}

func TestMGetScatterGather(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "mget", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[1].NewClient()
	var keys []string
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("mget-%d", i)
		keys = append(keys, k)
		if err := cl.Put(ctx, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Ask for all written keys plus some absent ones.
	got, err := cl.MGet(ctx, append(keys, "nope-1", "nope-2")...)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if len(got) != len(keys) {
		t.Fatalf("MGet returned %d keys, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if string(got[k]) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("MGet[%s] = %q", k, got[k])
		}
	}
	if _, ok := got["nope-1"]; ok {
		t.Fatal("MGet invented a value for an absent key")
	}
}

func TestCASContention(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "cas", 3, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	// All nodes race to create the same key: the shard's total order must
	// admit exactly one winner.
	const racers = 6
	wins := make(chan int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		i := i
		cl := stores[i%len(stores)].NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := cl.CAS(ctx, "leader", nil, []byte(fmt.Sprintf("racer-%d", i)))
			if err != nil {
				t.Errorf("CAS racer %d: %v", i, err)
				return
			}
			if ok {
				wins <- i
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("CAS race produced %d winners (%v), want exactly 1", len(winners), winners)
	}
	// Every node agrees on who won.
	want := []byte(fmt.Sprintf("racer-%d", winners[0]))
	for n, s := range stores {
		v, ok, err := s.NewClient().Get(ctx, "leader")
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("node %d: leader = %q %v %v, want %q", n, v, ok, err, want)
		}
	}
}

// shardItems snapshots shard i's item map at node s.
func shardItems(s *Store, i int) map[string]string {
	out := make(map[string]string)
	s.Replica(i).Read(func(sm shared.StateMachine) {
		for k, v := range sm.(*mapSM).items {
			out[k] = string(v)
		}
	})
	return out
}

// waitShardSync blocks until every node has applied shard i through the
// highest watermark any node has seen.
func waitShardSync(t *testing.T, nodes []*Store, i int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var hi uint32
		for _, s := range nodes {
			if a := s.Replica(i).Applied(); a > hi {
				hi = a
			}
		}
		synced := true
		for _, s := range nodes {
			if s.Replica(i).Applied() < hi {
				synced = false
			}
		}
		if synced {
			return
		}
		if time.Now().After(deadline) {
			var states []string
			for n, s := range nodes {
				r := s.Replica(i)
				states = append(states, fmt.Sprintf("node%d applied=%d [%s]", n, r.Applied(), r.Debug()))
			}
			t.Fatalf("shard %d never synced: %v", i, states)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRejoinUnderLoad is the end-to-end scenario from the issue: a node
// crashes mid-load, the shard groups recover (AutoReset), clients keep
// writing throughout, the crashed node's replacement rejoins via state
// transfer while traffic continues, and afterwards every acknowledged write
// is present on every node and all replicas are byte-identical.
func TestCrashRejoinUnderLoad(t *testing.T) {
	ctx := ctxT(t, 90*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	opts := Options{
		Shards: 4,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 2,
		},
	}
	stores := newCluster(t, ctx, net, "scenario", 3, opts)
	closed := make([]bool, len(stores))
	defer func() {
		for i, s := range stores {
			if !closed[i] {
				s.Close()
			}
		}
	}()

	// Two writers on the surviving nodes hammer disjoint key ranges and
	// record every acknowledged write. A Put that errors (e.g. its shard
	// is mid-recovery) is retried with the same value.
	const writers = 2
	stop := make(chan struct{})
	acked := make([]map[string]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		acked[w] = make(map[string]string)
		cl := stores[w].NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-key-%d", w, n%40)
				val := fmt.Sprintf("w%d-val-%d", w, n)
				for {
					err := cl.Put(ctx, key, []byte(val))
					if err == nil {
						acked[w][key] = val // only the writer reads this until wg.Wait
						break
					}
					if ctx.Err() != nil {
						return
					}
					select {
					case <-stop:
						return
					case <-time.After(20 * time.Millisecond):
					}
				}
			}
		}()
	}

	// Let load build up, then crash node 2 — taking down its replica of
	// every shard AND the sequencer of the shards it was hosting.
	time.Sleep(300 * time.Millisecond)
	t.Log("crashing node 2")
	stores[2].Close()
	closed[2] = true

	// Writers keep going while the groups detect the failure and
	// AutoReset rebuilds each shard with the 2 survivors.
	time.Sleep(1 * time.Second)

	// A replacement node rejoins every shard via atomic state transfer —
	// with the writers still writing.
	t.Log("rejoining replacement node")
	k, err := net.NewKernel("scenario-node-2-reborn")
	if err != nil {
		t.Fatalf("replacement kernel: %v", err)
	}
	joinCtx, cancelJoin := context.WithTimeout(ctx, 30*time.Second)
	replacement, err := Join(joinCtx, k, "scenario", opts)
	cancelJoin()
	if err != nil {
		t.Fatalf("replacement never joined: %v", err)
	}
	defer replacement.Close()

	// Keep writing with the new node in place, then stop.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	nodes := []*Store{stores[0], stores[1], replacement}

	// Every shard must settle on exactly the 3 live nodes. Expelling the
	// crashed node from a shard that never needed recovery takes history
	// pressure (the dead member pins the sequencer's floor until a probe
	// declares it dead), so keep a trickle of writes flowing while the
	// memberships converge — as any production store would.
	settle := stores[0].NewClient()
	settleDeadline := time.Now().Add(30 * time.Second)
	for {
		allThree := true
		for i := 0; i < opts.Shards; i++ {
			if replacement.Members(i) != 3 || stores[0].Members(i) != 3 {
				allThree = false
			}
		}
		if allThree {
			break
		}
		if time.Now().After(settleDeadline) {
			for i := 0; i < opts.Shards; i++ {
				t.Logf("shard %d: members=%d [%s]", i, replacement.Members(i), replacement.Replica(i).Debug())
			}
			t.Fatal("shards never settled on 3 members")
		}
		for j := 0; j < 16; j++ {
			// Errors are fine: a shard mid-recovery rejects writes.
			putCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_ = settle.Put(putCtx, fmt.Sprintf("settle-%d", j), []byte("x"))
			cancel()
		}
		time.Sleep(20 * time.Millisecond)
	}

	for i := 0; i < opts.Shards; i++ {
		waitShardSync(t, nodes, i)
	}
	// All replicas byte-identical, shard by shard.
	for i := 0; i < opts.Shards; i++ {
		want := shardItems(nodes[0], i)
		for n := 1; n < len(nodes); n++ {
			got := shardItems(nodes[n], i)
			if len(got) != len(want) {
				t.Fatalf("shard %d: node %d has %d items, node 0 has %d", i, n, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("shard %d diverged at %q: node %d has %q, node 0 has %q", i, k, n, got[k], v)
				}
			}
		}
	}
	// Every acknowledged write survived the crash, the recovery, and the
	// rejoin — on every node, including the replacement (resilience 1:
	// one crash loses no completed Put).
	total := 0
	for w := 0; w < writers; w++ {
		total += len(acked[w])
		for key, val := range acked[w] {
			for n, s := range nodes {
				cl := s.NewClient()
				if got, ok := cl.LocalGet(key); !ok || string(got) != val {
					t.Fatalf("node %d lost acknowledged write %s=%s (has %q, found=%v)", n, key, val, got, ok)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("writers acknowledged nothing; scenario proved nothing")
	}
	t.Logf("verified %d acknowledged keys across 3 nodes and %d shards", total, opts.Shards)
}

// TestJoinGrowsCluster covers planned growth (no crash): a 4th node joins a
// loaded 3-node store and immediately serves consistent local reads.
func TestJoinGrowsCluster(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "grow", 3, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	for i := 0; i < 50; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("g-%d", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	k, err := net.NewKernel("grow-node-3")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	s4, err := Join(ctx, k, "grow", Options{Shards: 4})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer s4.Close()
	// All pre-join state must have arrived by transfer.
	cl4 := s4.NewClient()
	for i := 0; i < 50; i++ {
		if v, ok := cl4.LocalGet(fmt.Sprintf("g-%d", i)); !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("joiner missing g-%d (got %q, found=%v)", i, v, ok)
		}
	}
	// And post-join writes through the new node reach the old ones.
	if err := cl4.Put(ctx, "from-new-node", []byte("hi")); err != nil {
		t.Fatalf("Put via joiner: %v", err)
	}
	if v, ok, err := cl.Get(ctx, "from-new-node"); err != nil || !ok || string(v) != "hi" {
		t.Fatalf("old node Get = %q %v %v", v, ok, err)
	}
}

func TestBoundedReplicationPlacement(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const nodes, shards, repl = 4, 4, 2
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		kernels[i], _ = net.NewKernel(fmt.Sprintf("br-node-%d", i))
	}
	stores, err := Bootstrap(ctx, kernels, "bounded", Options{Shards: shards, Replication: repl})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	// Shard i must live on exactly nodes {i, i+1} mod 4, with 2 members.
	for i := 0; i < shards; i++ {
		for n := 0; n < nodes; n++ {
			want := n == i || n == (i+1)%nodes
			if got := stores[n].HostsShard(i); got != want {
				t.Errorf("node %d hosts shard %d = %v, want %v", n, i, got, want)
			}
		}
		host := stores[i%nodes]
		if m := host.Members(i); m != repl {
			t.Errorf("shard %d has %d members, want %d", i, m, repl)
		}
	}
	// A client on a hosting node serves the shard; on a non-hosting node
	// it fails with a clear error rather than hanging.
	var key0 string
	for i := 0; ; i++ {
		key0 = fmt.Sprintf("probe-%d", i)
		if stores[0].ShardFor(key0) == 0 {
			break
		}
	}
	if err := stores[0].NewClient().Put(ctx, key0, []byte("v")); err != nil {
		t.Fatalf("Put on hosting node: %v", err)
	}
	if v, ok := stores[1].NewClient().LocalGet(key0); !ok || string(v) != "v" {
		// Node 1 hosts shard 0 too ((1-0)%4 < 2) — replica must converge.
		waitShardSync(t, []*Store{stores[0], stores[1]}, 0)
		if v, ok := stores[1].NewClient().LocalGet(key0); !ok || string(v) != "v" {
			t.Fatalf("replica on second host missing write: %q %v", v, ok)
		}
	}
	// Without a kv.Service anywhere, a non-hosting node's client has no
	// proxy to reach shard 0 through: the write must fail when its
	// context expires instead of blocking forever (the proxying path
	// itself is exercised in service_test.go).
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := stores[2].NewClient().Put(shortCtx, key0, []byte("x")); err == nil {
		t.Fatal("Put on non-hosting node with no service succeeded, want error")
	}
	if _, ok := stores[2].NewClient().LocalGet(key0); ok {
		t.Fatal("LocalGet on non-hosting node reported found")
	}
}
