package kv

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/shared"
	"amoeba/wal"
)

// waitUntil polls cond until it holds, failing the test with what after d.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// TestExpelledReplicaRejoinsItself holds the self-heal the Store promises:
// node 2 is cut off until both shard groups have reset without it, and once
// the cable is back its replicas — expelled from groups that went on without
// them — rejoin with state transfer on their own, with no call from the test.
func TestExpelledReplicaRejoinsItself(t *testing.T) {
	ctx := ctxT(t, 90*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const shards = 2
	opts := Options{
		Shards: shards,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 2,
		},
	}
	stores := newCluster(t, ctx, net, "heal", 3, opts)
	defer closeAll(stores)
	victim := stores[2]

	// A writer on node 0 keeps every shard busy throughout. Its errors are
	// expected while a shard resets.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := stores[0].NewClient()
		defer cl.Close()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			putCtx, cancel := context.WithTimeout(ctx, time.Second)
			_ = cl.Put(putCtx, fmt.Sprintf("w-%d", n%64), []byte(fmt.Sprint(n)))
			cancel()
		}
	}()

	old := make([]*shared.Replica, shards)
	for i := range old {
		old[i] = victim.Replica(i)
	}
	cutOff(net, victim, stores)
	waitUntil(t, 30*time.Second, "both shards to reset without node 2", func() bool {
		for i := 0; i < shards; i++ {
			if stores[0].Members(i) != 2 || stores[1].Members(i) != 2 {
				return false
			}
		}
		return true
	})
	cl := stores[0].NewClient()
	defer cl.Close()
	if err := cl.Put(ctx, "written-while-cut-off", []byte("yes")); err != nil {
		t.Fatalf("Put during the isolation: %v", err)
	}
	net.Heal()

	waitUntil(t, 30*time.Second, "node 2 to rejoin every shard", func() bool {
		for i := 0; i < shards; i++ {
			r := victim.Replica(i)
			if r == old[i] || r.Members() != 3 {
				return false
			}
			for _, s := range stores {
				if s.Members(i) != 3 {
					return false
				}
			}
		}
		return true
	})
	close(stop)
	wg.Wait()

	for i := 0; i < shards; i++ {
		waitShardSync(t, stores, i)
		want := shardItems(stores[0], i)
		for n, s := range stores[1:] {
			if got := shardItems(s, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d: node %d holds %v, node 0 %v", i, n+1, got, want)
			}
		}
	}
	vcl := victim.NewClient()
	defer vcl.Close()
	if v, ok := vcl.LocalGet("written-while-cut-off"); !ok || string(v) != "yes" {
		t.Fatalf("node 2 LocalGet of the key written while it was cut off = %q %v", v, ok)
	}
}

// TestBootstrapPlacesSequencers pins the placement rule the benchmark places
// its callers by: after Bootstrap, shard i is sequenced by node i mod nodes,
// and exactly the slots hostsShard names host the shard.
func TestBootstrapPlacesSequencers(t *testing.T) {
	rows := []struct {
		name    string
		nodes   int
		opts    Options
		durable bool
	}{
		{"in-memory, 3 nodes x 4 shards", 3, Options{Shards: 4}, false},
		{"in-memory, 4 nodes, replication 2", 4, Options{Shards: 4, Replication: 2}, false},
		{"durable, fresh", 3, Options{Shards: 4}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			net := amoeba.NewMemoryNetwork()
			defer net.Close()
			var stores []*Store
			if row.durable {
				stores = bootDurable(t, net, "place", t.TempDir(), row.nodes, row.opts, 0)
			} else {
				stores = newCluster(t, ctxT(t, 30*time.Second), net, "place", row.nodes, row.opts)
			}
			defer closeAll(stores)
			for n, s := range stores {
				for i := 0; i <= row.opts.Shards; i++ {
					r := s.Replica(i)
					hosts := i < row.opts.Shards && hostsShard(i, n, row.nodes, row.opts.Replication)
					if (r != nil) != hosts {
						t.Fatalf("node %d hosts shard %d: %v, want %v", n, i, r != nil, hosts)
					}
					if r == nil {
						continue
					}
					if seq := r.Info().IsSequencer; seq != (n == i%row.nodes) {
						t.Fatalf("node %d sequences shard %d: %v, want %v", n, i, seq, n == i%row.nodes)
					}
				}
			}
		})
	}
}

// TestFailingSlotDelaysNoOtherSlot gives one node a slot whose open keeps
// failing — its log for the split's first new shard holds a checkpoint
// recovery refuses — and requires everything else that node does to go on
// without it: the split's other new shard opens there, and when a merge drops
// both again, that shard retires and the failing slot is given up.
func TestFailingSlotDelaysNoOtherSlot(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	dataDir := t.TempDir()
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := bootDurable(t, net, "stuck", dataDir, 3, Options{Shards: 2}, 0)
	defer closeAll(stores)
	node := stores[1]

	log, err := wal.Open(shardDataDir(dataDir, "stuck", 1, 2), wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := log.Checkpoint(5, 0, []byte(`{"items":{}}`)); err != nil {
		t.Fatalf("planting a JSON checkpoint: %v", err)
	}
	log.Close()

	if err := stores[0].Resharding(ctx, 4); err != nil {
		t.Fatalf("Resharding(4): %v", err)
	}
	waitUntil(t, 10*time.Second, "node 1 to open shard 3", func() bool { return node.Replica(3) != nil })
	if node.Replica(2) != nil {
		t.Fatal("node 1 opened shard 2 from a log recovery refuses")
	}

	if err := stores[0].Resharding(ctx, 2); err != nil {
		t.Fatalf("Resharding(2): %v", err)
	}
	waitUntil(t, 10*time.Second, "node 1 to retire shard 3, reclaim its log and give up shard 2", func() bool {
		if _, err := os.Stat(shardDataDir(dataDir, "stuck", 1, 3)); !os.IsNotExist(err) {
			return false
		}
		node.mu.RLock()
		defer node.mu.RUnlock()
		return len(node.owners) == 2 && node.shards[3] == nil
	})
}

// goroutineRE picks a goroutine's id out of its stack header.
var goroutineRE = regexp.MustCompile(`^goroutine (\d+) `)

// storeGoroutines returns, by id, the stack of every goroutine but the
// caller's that runs this module's code, except memnet's idle delivery
// loops: the network outlives the stores and owns those. A delivery loop
// inside a handler counts, since its innermost module frame is the handler.
func storeGoroutines() map[string]string {
	return goroutines(func(stack []byte) bool {
		i := bytes.Index(stack, []byte("\namoeba"))
		return i >= 0 && !bytes.HasPrefix(stack[i+1:], []byte("amoeba/internal/netw/memnet.(*station).deliverLoop"))
	})
}

// amoebaGoroutines returns, by id, the stack of every goroutine but the
// caller's that runs any of this module's code.
func amoebaGoroutines() map[string]string {
	return goroutines(func(stack []byte) bool { return bytes.Contains(stack, []byte("\namoeba")) })
}

// goroutines returns, by id, the stack of every goroutine but the caller's
// that match accepts.
func goroutines(match func(stack []byte) bool) map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for i, stack := range bytes.Split(buf, []byte("\n\n")) {
		m := goroutineRE.FindSubmatch(stack)
		if i == 0 || m == nil || !match(stack) {
			continue // the caller's own goroutine comes first
		}
		out[string(m[1])] = string(stack)
	}
	return out
}

// TestNoGoroutineOutlivesStore runs a store through everything that starts
// goroutines — boot, a split, a merge, a Join that fails and is abandoned, a
// Service on every node serving a ring-less client, Close and Leave — and
// then requires every one of them gone: kv's, the replicas' apply loops and
// transfers, core's timers and RPC workers alike.
// Goroutines of other tests that were already running are not counted.
func TestNoGoroutineOutlivesStore(t *testing.T) {
	before := storeGoroutines()
	ctx := ctxT(t, 90*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "leak", 3, Options{Shards: 2})
	cl := stores[0].NewClient()
	for i := 0; i < 32; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("leak-%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	cl.Close()
	if err := stores[1].Resharding(ctx, 4); err != nil {
		t.Fatalf("Resharding(4): %v", err)
	}
	waitUntil(t, 15*time.Second, "every node to host the new shards", func() bool {
		for _, s := range stores {
			if s.Replica(2) == nil || s.Replica(3) == nil {
				return false
			}
		}
		return true
	})
	var merged []*shared.Replica // every node's replicas of shards 2 and 3
	for _, s := range stores {
		merged = append(merged, s.Replica(2), s.Replica(3))
	}
	if err := stores[1].Resharding(ctx, 2); err != nil {
		t.Fatalf("Resharding(2): %v", err)
	}
	waitUntil(t, 15*time.Second, "the merged-away shards to retire", func() bool {
		for _, r := range merged {
			select {
			case <-r.Stopped():
			default:
				return false
			}
		}
		return true
	})

	// A joiner that expects a third shard joins shards 0 and 1, waits for
	// shard 2's group (gone with the merge) until its context expires, and
	// abandons the two it has.
	k, err := net.NewKernel("leak-joiner")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	joinCtx, cancel := context.WithTimeout(ctx, time.Second)
	joiner, err := Join(joinCtx, k, "leak", Options{Shards: 3})
	cancel()
	if err == nil {
		joiner.Close()
		t.Fatal("Join of a store without shard 2 succeeded")
	}

	// Requests through the Services start RPC workers, which must go with
	// the Services.
	var svcs []*Service
	for i, s := range stores {
		svc, err := NewService(s)
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		svcs = append(svcs, svc)
	}
	ck, err := net.NewKernel("leak-caller")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	dc, err := Dial(ck, "leak", DialOptions{Node: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("leak-svc-%d", i)
		if err := dc.Put(ctx, key, []byte("v")); err != nil {
			t.Fatalf("Put via service: %v", err)
		}
		if _, ok, err := dc.Get(ctx, key); err != nil || !ok {
			t.Fatalf("Get via service: %v %v", ok, err)
		}
	}
	dc.Close()
	for _, svc := range svcs {
		svc.Close()
	}

	for _, s := range stores[1:] {
		if err := s.Leave(ctx); err != nil {
			t.Fatalf("Leave: %v", err)
		}
	}
	stores[0].Close()

	var left map[string]string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		left = storeGoroutines()
		for id := range before {
			delete(left, id)
		}
		if len(left) == 0 {
			return
		}
	}
	var stacks []string
	for _, s := range left {
		stacks = append(stacks, s)
	}
	t.Fatalf("%d goroutines outlived their stores:\n\n%s", len(left), strings.Join(stacks, "\n\n"))
}

// TestProxiedStoreGoroutines boots the benchmark's proxied shape — four
// nodes, four shards of two replicas, a Service per node, and two ring-less
// clients entering at node 0 — and drives a mixed load through it. A node's
// RPC servers keep only the workers their traffic has needed, so the store
// runs well under a hundred goroutines; servers that start their whole pool
// up front park a thousand.
func TestProxiedStoreGoroutines(t *testing.T) {
	before := amoebaGoroutines()
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "goro", 4, Options{Shards: 4, Replication: 2})
	var svcs []*Service
	defer func() {
		for _, svc := range svcs {
			svc.Close()
		}
		for _, s := range stores {
			s.Close()
		}
	}()
	for i, s := range stores {
		svc, err := NewService(s)
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		svcs = append(svcs, svc)
	}

	const callers, rounds = 2, 50
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		k, err := net.NewKernel(fmt.Sprintf("goro-caller-%d", c))
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		cl, err := Dial(k, "goro", DialOptions{Node: 0})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cl.Close()
		go func(c int) {
			errs <- func() error {
				for i := 0; i < rounds; i++ {
					a, b := fmt.Sprintf("goro-%d-%d", c, i), fmt.Sprintf("goro-%d-%d", c, i+rounds)
					if err := cl.Put(ctx, a, []byte("v")); err != nil {
						return fmt.Errorf("Put: %w", err)
					}
					if _, ok, err := cl.Get(ctx, a); err != nil || !ok {
						return fmt.Errorf("Get: %v %w", ok, err)
					}
					if _, err := cl.MGet(ctx, a, b); err != nil {
						return fmt.Errorf("MGet: %w", err)
					}
					if _, err := cl.Txn(ctx, TxnOp{Reads: []string{a}, Writes: []TxnWrite{{Key: b, Val: []byte("t")}}}); err != nil {
						return fmt.Errorf("Txn: %w", err)
					}
				}
				return nil
			}()
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	running := amoebaGoroutines()
	for id := range before {
		delete(running, id)
	}
	t.Logf("%d goroutines run amoeba code after %d operations", len(running), callers*rounds*4)
	if len(running) >= 100 {
		var stacks []string
		for _, s := range running {
			stacks = append(stacks, s)
		}
		t.Fatalf("%d goroutines run amoeba code, want fewer than 100:\n\n%s", len(running), strings.Join(stacks, "\n\n"))
	}
}

// Leave departs every shard group in total order and stops the node.
func (s *Store) Leave(ctx context.Context) error { return s.shutdown(ctx, true) }
