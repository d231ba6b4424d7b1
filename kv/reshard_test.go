package kv

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/shared"
)

// collectItems reads every hosted shard's item map on one store and counts
// how many shards hold each key — the duplication detector.
func collectItems(s *Store) map[string]int {
	out := make(map[string]int)
	for i := 0; i < len(s.snapshotShards()); i++ {
		r := s.Replica(i)
		if r == nil {
			continue
		}
		r.Read(func(sm shared.StateMachine) {
			for k := range sm.(*mapSM).items {
				out[k]++
			}
		})
	}
	return out
}

// verifyKeys asserts that every expected key reads back with its expected
// value and that no key is present in more than one shard.
func verifyKeys(t *testing.T, ctx context.Context, s *Store, want map[string]string) {
	t.Helper()
	cl := s.NewClient()
	defer cl.Close()
	for k, v := range want {
		got, ok, err := cl.Get(ctx, k)
		if err != nil {
			t.Fatalf("Get %q: %v", k, err)
		}
		if !ok || string(got) != v {
			t.Fatalf("Get %q = %q (found=%v), want %q", k, got, ok, v)
		}
	}
	counts := collectItems(s)
	for k, n := range counts {
		if n > 1 {
			t.Fatalf("key %q present in %d shards (duplicated by resharding)", k, n)
		}
	}
	for k := range want {
		if counts[k] != 1 {
			t.Fatalf("key %q present in %d shards, want exactly 1", k, counts[k])
		}
	}
}

// waitShards blocks until the store's routing table reports n shards.
func waitShards(t *testing.T, s *Store, n int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if s.Routing().Shards == n && s.PendingRouting() == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("routing never reached %d shards: %+v (pending %+v)", n, s.Routing(), s.PendingRouting())
}

// TestReshardingSplitUnderLoad grows a live 4-shard store to 8 while
// clients keep writing and reading: no operation may fail, every key —
// seeded or written mid-handoff — must read back exactly once afterwards,
// and the epoch must have advanced on every node.
func TestReshardingSplitUnderLoad(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "split", 3, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	want := make(map[string]string)
	var wantMu sync.Mutex
	seed := stores[0].NewClient()
	pairs := make([]Pair, 400)
	for i := range pairs {
		k, v := fmt.Sprintf("split-%04d", i), fmt.Sprintf("v%04d", i)
		pairs[i] = Pair{Key: k, Val: []byte(v)}
		want[k] = v
	}
	if err := seed.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("seeding: %v", err)
	}
	seed.Close()

	// Continuous load across the handoff, one client per node. Loaders are
	// stopped by flag, not context cancellation, so every issued operation
	// runs to completion and the expected-value map is exact (a cancelled
	// Put may commit without reporting).
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		opErrs  atomic.Uint64
		loadOps atomic.Uint64
	)
	for n := range stores {
		n := n
		cl := stores[n].NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			for i := 0; !stop.Load(); i++ {
				k := fmt.Sprintf("live-%d-%04d", n, i%100)
				v := fmt.Sprintf("n%d-i%d", n, i)
				if err := cl.Put(ctx, k, []byte(v)); err != nil {
					opErrs.Add(1)
					return
				}
				wantMu.Lock()
				want[k] = v
				wantMu.Unlock()
				if _, _, err := cl.Get(ctx, k); err != nil {
					opErrs.Add(1)
					return
				}
				loadOps.Add(2)
			}
		}()
	}

	time.Sleep(100 * time.Millisecond) // let the load get going
	if err := stores[1].Resharding(ctx, 8); err != nil {
		t.Fatalf("Resharding(8): %v", err)
	}
	time.Sleep(100 * time.Millisecond) // load continues on the new table
	stop.Store(true)
	wg.Wait()
	if e := opErrs.Load(); e != 0 {
		t.Fatalf("%d client operations failed across the handoff (want 0)", e)
	}
	if loadOps.Load() == 0 {
		t.Fatal("load performed no operations; the handoff was not exercised under load")
	}

	for i, s := range stores {
		waitShards(t, s, 8, 10*time.Second)
		if rt := s.Routing(); rt.Epoch != 1 {
			t.Fatalf("node %d at epoch %d after one resharding, want 1", i, rt.Epoch)
		}
	}
	verifyKeys(t, ctx, stores[2], want)

	// The split must actually have moved data onto the new shards.
	moved := 0
	for i := 4; i < 8; i++ {
		r := stores[0].Replica(i)
		if r == nil {
			t.Fatalf("node 0 does not host new shard %d", i)
		}
		r.Read(func(sm shared.StateMachine) { moved += len(sm.(*mapSM).items) })
	}
	if moved == 0 {
		t.Fatal("no keys landed on the new shards")
	}
	t.Logf("split moved %d keys onto shards 4..7; %d live ops during handoff", moved, loadOps.Load())
}

// TestReshardingMergeRetiresShards shrinks 6→3: the dying shards' keys must
// land exactly once on the survivors, and the dead groups must be left and
// released on every node.
func TestReshardingMergeRetiresShards(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "merge", 3, Options{Shards: 6})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	want := make(map[string]string)
	cl := stores[0].NewClient()
	pairs := make([]Pair, 300)
	for i := range pairs {
		k, v := fmt.Sprintf("merge-%04d", i), fmt.Sprintf("v%04d", i)
		pairs[i] = Pair{Key: k, Val: []byte(v)}
		want[k] = v
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("seeding: %v", err)
	}
	cl.Close()

	if err := stores[0].Resharding(ctx, 3); err != nil {
		t.Fatalf("Resharding(3): %v", err)
	}
	for _, s := range stores {
		waitShards(t, s, 3, 10*time.Second)
	}
	verifyKeys(t, ctx, stores[1], want)

	// Retirement is asynchronous per node; every replica of shards 3..5
	// must eventually be released.
	deadline := time.Now().Add(15 * time.Second)
	for _, s := range stores {
		for i := 3; i < 6; i++ {
			for s.Replica(i) != nil {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d still hosted after merge", i)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
}

// TestReshardingExactlyOnceAcrossFlip pins a command id, executes it before
// the split, and retries it afterwards: the dedup result must have migrated
// with its key, so the retry answers the original outcome instead of
// re-executing — and a genuinely new command still sees the recovered value.
func TestReshardingExactlyOnceAcrossFlip(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "dedup", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()

	// Find keys that change owner under the 4→8 split — the hard case,
	// where the result must travel.
	next := Routing{Epoch: 1, Shards: 8, VNodes: stores[0].Routing().VNodes}.ring("dedup")
	var movingCAS, movingDel string
	for i := 0; movingCAS == "" || movingDel == ""; i++ {
		k := fmt.Sprintf("probe-%04d", i)
		if stores[0].ShardFor(k) != next.shard(k) {
			if movingCAS == "" {
				movingCAS = k
			} else {
				movingDel = k
			}
		}
	}

	pin := newSessionID(time.Now())
	const casID, delID = 0xDEAD0001, 0xDEAD0002
	if resp, err := cl.Do(ctx, &Request{Op: ReqCAS, Key: movingCAS, Val: []byte("owner"), Session: pin, ID: casID}); err != nil || !resp.OK {
		t.Fatalf("CAS create: %+v %v", resp, err)
	}
	if err := cl.Put(ctx, movingDel, []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if resp, err := cl.Do(ctx, &Request{Op: ReqDelete, Key: movingDel, Session: pin, ID: delID}); err != nil || !resp.OK {
		t.Fatalf("Delete: %+v %v", resp, err)
	}

	if err := stores[0].Resharding(ctx, 8); err != nil {
		t.Fatalf("Resharding: %v", err)
	}
	waitShards(t, stores[0], 8, 10*time.Second)

	// Retried CAS (same session and seq) must answer its original success, not observe
	// its own first execution.
	if resp, err := cl.Do(ctx, &Request{Op: ReqCAS, Key: movingCAS, Val: []byte("owner"), Session: pin, ID: casID}); err != nil || !resp.OK {
		t.Fatalf("retried CAS after flip = %+v %v (dedup result did not migrate)", resp, err)
	}
	// A fresh create must fail: the value exists on the new owner.
	if ok, err := cl.CAS(ctx, movingCAS, nil, []byte("usurper")); err != nil || ok {
		t.Fatalf("fresh CAS create after flip = %v %v (key lost in migration?)", ok, err)
	}
	// Retried delete of a key that no longer exists anywhere: its
	// tombstoned result must still answer the original true.
	if resp, err := cl.Do(ctx, &Request{Op: ReqDelete, Key: movingDel, Session: pin, ID: delID}); err != nil || !resp.OK {
		t.Fatalf("retried Delete after flip = %+v %v (tombstone result did not migrate)", resp, err)
	}
}

// TestStaleClientConvergesAcrossReshard: a Dial'd client that still routes
// by the bootstrap table keeps working through a split — services answer
// under the new table and attach it, and the client adopts it.
func TestStaleClientConvergesAcrossReshard(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "stale", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	var svcs []*Service
	for _, s := range stores {
		svc, err := NewService(s)
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		svcs = append(svcs, svc)
	}
	defer func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}()
	ext, err := net.NewKernel("stale-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	cl, err := Dial(ext, "stale", DialOptions{Node: 0, Shards: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	for i := 0; i < 32; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("s-%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put before reshard: %v", err)
		}
	}
	if err := stores[0].Resharding(ctx, 8); err != nil {
		t.Fatalf("Resharding: %v", err)
	}
	// The client still routes by the 4-shard table; its next operations are
	// served under the 8-shard table and teach it the new epoch.
	for i := 0; i < 32; i++ {
		v, ok, err := cl.Get(ctx, fmt.Sprintf("s-%03d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get after reshard via stale client: %q %v %v", v, ok, err)
		}
	}
	if cl.Routing().Epoch != 1 {
		t.Fatalf("stale client never converged: routing %+v", cl.Routing())
	}
	if cl.Stats().RoutingUpdates == 0 {
		t.Fatal("client reports no routing updates despite epoch change")
	}
}

// TestReshardingUnderChurn is the lossy-network churn test: a source-shard
// sequencer is killed mid-migration while the network drops and duplicates
// frames. The handoff (driven by a surviving node) must still complete with
// every key exactly once, and a command retried across the crash AND the
// epoch flip must stay exactly-once.
func TestReshardingUnderChurn(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	net := amoeba.NewMemoryNetworkWithFaults(amoeba.MemoryNetworkConfig{
		DropRate: 0.02,
		DupRate:  0.01,
		Seed:     7,
	})
	defer net.Close()
	// A failure in this test is exactly what the flight recorder exists
	// for: dump the last protocol events (membership churn, NAKs, migrate
	// phases) as a postmortem artifact instead of "rerun with prints".
	hub := obs.NewHub(obs.Options{Node: "churn"})
	dumpOnFailure(t, hub.Flight())
	stores := newCluster(t, ctx, net, "churn", 3, Options{
		Shards: 4,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 1,
			Obs:          hub,
		},
	})
	closed := make([]bool, len(stores))
	defer func() {
		for i, s := range stores {
			if !closed[i] {
				s.Close()
			}
		}
	}()

	want := make(map[string]string)
	cl := stores[1].NewClient()
	pairs := make([]Pair, 500)
	for i := range pairs {
		k, v := fmt.Sprintf("churn-%04d", i), fmt.Sprintf("v%04d", i)
		pairs[i] = Pair{Key: k, Val: []byte(v)}
		want[k] = v
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("seeding: %v", err)
	}
	pin := newSessionID(time.Now())
	const pinID = 0xC0FFEE01
	if resp, err := cl.Do(ctx, &Request{Op: ReqCAS, Key: "churn-lock", Val: []byte("holder"), Session: pin, ID: pinID}); err != nil || !resp.OK {
		t.Fatalf("pinned CAS: %+v %v", resp, err)
	}
	want["churn-lock"] = "holder"
	cl.Close()

	// Node 0 sequences shard 0 (Bootstrap's placement rule): kill it as
	// soon as the handoff is observed in flight. Coordinate from node 1.
	reshardErr := make(chan error, 1)
	go func() { reshardErr <- stores[1].Resharding(ctx, 8) }()
	killDeadline := time.Now().Add(30 * time.Second)
	for stores[1].PendingRouting() == nil && time.Now().Before(killDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if stores[1].PendingRouting() == nil && stores[1].Routing().Epoch == 0 {
		t.Fatal("handoff never started")
	}
	stores[0].Close() // the source-shard sequencer crashes mid-migration
	closed[0] = true

	if err := <-reshardErr; err != nil {
		t.Fatalf("Resharding under churn: %v", err)
	}
	for _, s := range stores[1:] {
		waitShards(t, s, 8, 60*time.Second)
	}
	verifyKeys(t, ctx, stores[2], want)

	// The pinned command retried across the crash and the flip must not
	// re-execute.
	cl2 := stores[2].NewClient()
	defer cl2.Close()
	if resp, err := cl2.Do(ctx, &Request{Op: ReqCAS, Key: "churn-lock", Val: []byte("holder"), Session: pin, ID: pinID}); err != nil || !resp.OK {
		t.Fatalf("pinned CAS retried across crash+flip = %+v %v", resp, err)
	}
	if ok, err := cl2.CAS(ctx, "churn-lock", nil, []byte("usurper")); err != nil || ok {
		t.Fatalf("fresh CAS create after churn = %v %v", ok, err)
	}

	// The flight ring must have captured the handoff it just survived:
	// the commit thaw on the shards and the coordinator's final flip.
	dump := hub.Flight().Format()
	for _, want := range []string{"migrate commit: epoch 1", "reshard: epoch 1 committed"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("flight recorder missing %q:\n%s", want, dump)
		}
	}
}

// TestReshardingDurableResume kills every node mid-handoff and restarts the
// cluster from the write-ahead logs: Bootstrap must resume (or complete) the
// interrupted migration deterministically — all keys exactly once under the
// new table, dedup state intact.
func TestReshardingDurableResume(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	dataDir, err := os.MkdirTemp("", "kv-reshard-resume-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	opts := Options{
		Shards:  4,
		DataDir: dataDir,
		Group: amoeba.GroupOptions{
			AutoReset:    true,
			MinSurvivors: 1,
		},
	}
	const nodes = 2
	boot := func(gen int) ([]*Store, *amoeba.MemoryNetwork) {
		t.Helper()
		net := amoeba.NewMemoryNetwork()
		kernels := make([]*amoeba.Kernel, nodes)
		for i := range kernels {
			k, err := net.NewKernel(fmt.Sprintf("resume-g%d-n%d", gen, i))
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			kernels[i] = k
		}
		stores, err := Bootstrap(ctx, kernels, "resume", opts)
		if err != nil {
			t.Fatalf("Bootstrap gen %d: %v", gen, err)
		}
		return stores, net
	}

	stores, net := boot(0)
	want := make(map[string]string)
	cl := stores[0].NewClient()
	pairs := make([]Pair, 600)
	for i := range pairs {
		k, v := fmt.Sprintf("resume-%04d", i), fmt.Sprintf("v%04d", i)
		pairs[i] = Pair{Key: k, Val: []byte(v)}
		want[k] = v
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("seeding: %v", err)
	}
	pin := newSessionID(time.Now())
	const pinID = 0xFEED0001
	if resp, err := cl.Do(ctx, &Request{Op: ReqCAS, Key: "resume-lock", Val: []byte("holder"), Session: pin, ID: pinID}); err != nil || !resp.OK {
		t.Fatalf("pinned CAS: %+v %v", resp, err)
	}
	want["resume-lock"] = "holder"
	cl.Close()

	// Start the split, then crash the whole cluster the moment the handoff
	// is journaled as pending (the begins have been sequenced).
	go func() { _ = stores[0].Resharding(ctx, 8) }()
	killDeadline := time.Now().Add(30 * time.Second)
	for stores[1].PendingRouting() == nil && stores[1].Routing().Epoch == 0 &&
		time.Now().Before(killDeadline) {
		time.Sleep(time.Millisecond)
	}
	for _, s := range stores {
		s.Close() // no goodbye: every node at once
	}
	net.Close()

	stores2, net2 := boot(1) // Bootstrap recovers AND resumes the handoff
	defer net2.Close()
	defer func() {
		for _, s := range stores2 {
			s.Close()
		}
	}()
	for _, s := range stores2 {
		waitShards(t, s, 8, 60*time.Second)
		if rt := s.Routing(); rt.Epoch != 1 {
			t.Fatalf("recovered store at epoch %d, want 1", rt.Epoch)
		}
	}
	verifyKeys(t, ctx, stores2[1], want)

	cl2 := stores2[0].NewClient()
	defer cl2.Close()
	if resp, err := cl2.Do(ctx, &Request{Op: ReqCAS, Key: "resume-lock", Val: []byte("holder"), Session: pin, ID: pinID}); err != nil || !resp.OK {
		t.Fatalf("pinned CAS retried across restart+flip = %+v %v", resp, err)
	}
	if ok, err := cl2.CAS(ctx, "resume-lock", nil, []byte("usurper")); err != nil || ok {
		t.Fatalf("fresh CAS create after resume = %v %v", ok, err)
	}
}

// TestReshardingResumeAfterPartialCommit pins the nastiest crash window: a
// handoff that died AFTER one shard committed the new epoch but before the
// rest did. The store-level epoch has already flipped (any committed shard
// raises it), yet straggler shards still hold the pending freeze — the
// recovered pending view must survive the flip so the restart drives the
// remaining commits, or the frozen ranges would answer Moved forever.
func TestReshardingResumeAfterPartialCommit(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	dataDir, err := os.MkdirTemp("", "kv-partial-commit-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	opts := Options{
		Shards:  4,
		DataDir: dataDir,
		Group: amoeba.GroupOptions{
			AutoReset:    true,
			MinSurvivors: 1,
		},
	}
	const nodes = 2
	boot := func(gen int) ([]*Store, *amoeba.MemoryNetwork) {
		t.Helper()
		net := amoeba.NewMemoryNetwork()
		kernels := make([]*amoeba.Kernel, nodes)
		for i := range kernels {
			k, err := net.NewKernel(fmt.Sprintf("partial-g%d-n%d", gen, i))
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			kernels[i] = k
		}
		stores, err := Bootstrap(ctx, kernels, "partial", opts)
		if err != nil {
			t.Fatalf("Bootstrap gen %d: %v", gen, err)
		}
		return stores, net
	}

	stores, net := boot(0)
	want := make(map[string]string)
	cl := stores[0].NewClient()
	pairs := make([]Pair, 400)
	for i := range pairs {
		k, v := fmt.Sprintf("partial-%04d", i), fmt.Sprintf("v%04d", i)
		pairs[i] = Pair{Key: k, Val: []byte(v)}
		want[k] = v
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("seeding: %v", err)
	}
	cl.Close()

	// Drive the handoff BY HAND up to exactly one commit, mirroring
	// reshardTo's phases: begin everywhere, targets up, full export, then
	// commit ONLY shard 0 — and crash the whole cluster there.
	target := Routing{Epoch: 1, Shards: 8, VNodes: stores[0].Routing().VNodes}
	co := stores[0]
	for i := 0; i < 4; i++ {
		if err := co.migrate(ctx, i, opMigrateBegin, target, nil); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
	}
	if err := co.waitHosted(ctx, 4, 8); err != nil {
		t.Fatalf("targets up: %v", err)
	}
	for i := 4; i < 8; i++ {
		if err := co.migrate(ctx, i, opMigrateBegin, target, nil); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
	}
	next := target.ring("partial")
	for src := 0; src < 4; src++ {
		if err := co.exportShard(ctx, src, next, target); err != nil {
			t.Fatalf("export %d: %v", src, err)
		}
	}
	if err := co.migrate(ctx, 0, opMigrateCommit, target, nil); err != nil {
		t.Fatalf("commit 0: %v", err)
	}
	if rt := co.Routing(); rt.Epoch != 1 {
		t.Fatalf("store epoch %d after first commit, want 1", rt.Epoch)
	}
	if co.PendingRouting() == nil {
		t.Fatal("pending view vanished after the first commit: the straggler freeze would be unresumable")
	}
	for _, s := range stores {
		s.Close()
	}
	net.Close()

	stores2, net2 := boot(1) // must finish the remaining commits
	defer net2.Close()
	defer func() {
		for _, s := range stores2 {
			s.Close()
		}
	}()
	for _, s := range stores2 {
		waitShards(t, s, 8, 60*time.Second)
		if rt := s.Routing(); rt.Epoch != 1 {
			t.Fatalf("recovered store at epoch %d, want 1", rt.Epoch)
		}
	}
	verifyKeys(t, ctx, stores2[1], want)
}

// TestHeldPutFollowsStragglerCommit pins the store-wide wake: a 4→2 merge
// whose begins and exports ran on every old shard but whose commit reached
// only the moving key's new owner. A bound client's Put held at the frozen
// source must return, served by the new owner, without the handoff being
// resumed — the source never applies anything that would release it, so
// only the node's change channel, fired by the new owner's flip, can.
func TestHeldPutFollowsStragglerCommit(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "straggler", TraceMod: 1})
	dumpOnFailure(t, hub.Flight())
	stores := newCluster(t, ctx, net, "straggler", 2, Options{Shards: 4, Group: amoeba.GroupOptions{Obs: hub}})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()

	cur := stores[0].Routing()
	target := Routing{Epoch: cur.Epoch + 1, Shards: 2, VNodes: cur.VNodes}
	next := target.ring("straggler")
	var moving string
	for i := 0; moving == ""; i++ {
		if k := fmt.Sprintf("st-%04d", i); stores[0].ShardFor(k) != next.shard(k) {
			moving = k
		}
	}
	src, dst := stores[0].ShardFor(moving), next.shard(moving)
	for i := 0; i < cur.Shards; i++ {
		if err := stores[0].migrate(ctx, i, opMigrateBegin, target, nil); err != nil {
			t.Fatalf("migrate-begin on shard %d: %v", i, err)
		}
	}
	for i := 0; i < cur.Shards; i++ {
		if err := stores[0].exportShard(ctx, i, next, target); err != nil {
			t.Fatalf("export of shard %d: %v", i, err)
		}
	}

	pin := newSessionID(time.Now())
	const putID = 0x57A6613E
	done := make(chan error, 1)
	go func() {
		_, err := cl.Do(ctx, &Request{Op: ReqPut, Session: pin, ID: putID, Key: moving, Val: []byte("landed")})
		done <- err
	}()
	for firstIndexContaining(spanEvents(hub.Tracer().Trace(cmdID(pin, putID))), "moved") < 0 {
		select {
		case err := <-done:
			t.Fatalf("the Put returned (%v) while shard %d held its key frozen", err, src)
		case <-time.After(100 * time.Microsecond):
		}
	}
	if err := stores[0].migrate(ctx, dst, opMigrateCommit, target, nil); err != nil {
		t.Fatalf("migrate-commit on shard %d: %v", dst, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Put after the new owner's flip: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("the Put still waits 5s after shard %d, its key's new owner, committed", dst)
	}
	var frozen bool
	stores[0].Replica(src).Read(func(sm shared.StateMachine) { frozen = sm.(*mapSM).pending != nil })
	if !frozen {
		t.Fatalf("shard %d committed too: the test meant it to stay a frozen straggler", src)
	}
	var v []byte
	stores[0].Replica(dst).Read(func(sm shared.StateMachine) { v = sm.(*mapSM).items[moving] })
	if string(v) != "landed" {
		t.Fatalf("shard %d holds %q = %q, want the Put's value", dst, moving, v)
	}
}

// Routing returns the table the client currently routes by (zero value for
// ring-less clients).
func (c *Client) Routing() Routing {
	_, rt := c.routingRing()
	return rt
}
