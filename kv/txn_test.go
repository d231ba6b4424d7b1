package kv

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
)

// pickCrossShardKeys probes key names until it has n keys on n distinct
// shards, so a test transaction is guaranteed to span groups.
func pickCrossShardKeys(t *testing.T, s *Store, prefix string, n int) []string {
	t.Helper()
	byShard := make(map[int]string)
	for i := 0; len(byShard) < n && i < 10000; i++ {
		k := fmt.Sprintf("%s-%04d", prefix, i)
		sh := s.ShardFor(k)
		if _, ok := byShard[sh]; !ok {
			byShard[sh] = k
		}
	}
	if len(byShard) < n {
		t.Fatalf("could not find %d cross-shard keys with prefix %q", n, prefix)
	}
	out := make([]string, 0, n)
	for _, k := range byShard {
		out = append(out, k)
		if len(out) == n {
			break
		}
	}
	sort.Strings(out)
	return out
}

func TestTxnCommitCrossShard(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-basic", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()

	keys := pickCrossShardKeys(t, stores[0], "txn", 2)
	a, b := keys[0], keys[1]
	if err := cl.Put(ctx, a, []byte("10")); err != nil {
		t.Fatalf("seed %s: %v", a, err)
	}
	if err := cl.Put(ctx, b, []byte("20")); err != nil {
		t.Fatalf("seed %s: %v", b, err)
	}

	res, err := cl.Txn(ctx, TxnOp{
		Reads:  []string{a, b},
		Writes: []TxnWrite{{Key: a, Val: []byte("5")}, {Key: b, Val: []byte("25")}},
		Conds:  []TxnCond{{Key: a, ExpectPresent: true, Expect: []byte("10")}},
	})
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}
	if !res.Committed || res.CondFailed {
		t.Fatalf("Txn = %+v, want committed", res)
	}
	// The returned reads are the pre-state, captured under the locks.
	if len(res.Values) != 2 || string(res.Values[0]) != "10" || string(res.Values[1]) != "20" {
		t.Fatalf("Txn read snapshot = %q", res.Values)
	}
	if v, _, _ := cl.Get(ctx, a); string(v) != "5" {
		t.Fatalf("%s = %q after commit", a, v)
	}
	if v, _, _ := cl.Get(ctx, b); string(v) != "25" {
		t.Fatalf("%s = %q after commit", b, v)
	}

	// A read-only transaction commits trivially and returns a snapshot.
	ro, err := cl.Txn(ctx, TxnOp{Reads: []string{a, b}})
	if err != nil || !ro.Committed {
		t.Fatalf("read-only Txn = %+v %v", ro, err)
	}
	if string(ro.Values[0]) != "5" || string(ro.Values[1]) != "25" {
		t.Fatalf("read-only snapshot = %q", ro.Values)
	}

	// A delete rides the same machinery.
	res, err = cl.Txn(ctx, TxnOp{Writes: []TxnWrite{{Key: a, Delete: true}}})
	if err != nil || !res.Committed {
		t.Fatalf("delete Txn = %+v %v", res, err)
	}
	if _, ok, _ := cl.Get(ctx, a); ok {
		t.Fatalf("%s survived transactional delete", a)
	}
}

func TestTxnCondFailedAborts(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-cond", 1, Options{Shards: 4})
	defer stores[0].Close()
	cl := stores[0].NewClient()
	defer cl.Close()

	keys := pickCrossShardKeys(t, stores[0], "cond", 2)
	a, b := keys[0], keys[1]
	if err := cl.Put(ctx, a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Txn(ctx, TxnOp{
		Writes: []TxnWrite{{Key: a, Val: []byte("y")}, {Key: b, Val: []byte("y")}},
		Conds:  []TxnCond{{Key: a, ExpectPresent: true, Expect: []byte("WRONG")}},
	})
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}
	if res.Committed || !res.CondFailed {
		t.Fatalf("Txn = %+v, want CondFailed abort", res)
	}
	if v, _, _ := cl.Get(ctx, a); string(v) != "x" {
		t.Fatalf("%s = %q after aborted txn, want untouched", a, v)
	}
	if _, ok, _ := cl.Get(ctx, b); ok {
		t.Fatalf("%s written by aborted txn", b)
	}
	// The locks are released: an ordinary write proceeds.
	if err := cl.Put(ctx, b, []byte("free")); err != nil {
		t.Fatalf("Put after abort: %v", err)
	}
}

// bankSum MGets every account and returns the balance total.
func bankSum(t *testing.T, ctx context.Context, cl *Client, accounts []string) int {
	t.Helper()
	got, err := cl.MGet(ctx, accounts...)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	sum := 0
	for _, k := range accounts {
		v, ok := got[k]
		if !ok {
			t.Fatalf("account %s missing", k)
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			t.Fatalf("account %s = %q", k, v)
		}
		sum += n
	}
	return sum
}

// TestTxnBankTransfersConcurrent is the acceptance workload in miniature:
// concurrent transfers between accounts spread across shards must conserve
// the total balance, and every MGet snapshot taken mid-flight must already
// observe a conserved total — never a half-applied transfer.
func TestTxnBankTransfersConcurrent(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-bank", 3, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	const accounts, initial = 8, 100
	keys := make([]string, accounts)
	seed := stores[0].NewClient()
	for i := range keys {
		keys[i] = fmt.Sprintf("bank-%d", i)
		if err := seed.Put(ctx, keys[i], []byte(strconv.Itoa(initial))); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	seed.Close()
	total := accounts * initial

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := stores[w%len(stores)].NewClient()
			defer cl.Close()
			for i := 0; i < 25; i++ {
				from, to := keys[(w+i)%accounts], keys[(w*3+i*5+1)%accounts]
				if from == to {
					continue
				}
				for {
					snap, err := cl.Txn(ctx, TxnOp{Reads: []string{from, to}})
					if err != nil {
						errCh <- err
						return
					}
					fv, _ := strconv.Atoi(string(snap.Values[0]))
					tv, _ := strconv.Atoi(string(snap.Values[1]))
					if fv <= 0 {
						break
					}
					res, err := cl.Txn(ctx, TxnOp{
						Conds: []TxnCond{
							{Key: from, ExpectPresent: true, Expect: []byte(strconv.Itoa(fv))},
							{Key: to, ExpectPresent: true, Expect: []byte(strconv.Itoa(tv))},
						},
						Writes: []TxnWrite{
							{Key: from, Val: []byte(strconv.Itoa(fv - 1))},
							{Key: to, Val: []byte(strconv.Itoa(tv + 1))},
						},
					})
					if err != nil {
						errCh <- err
						return
					}
					if res.Committed {
						break
					}
					// CondFailed: lost the race, re-read and retry.
				}
			}
		}()
	}
	// Auditor: MGet snapshots taken during the churn must conserve the
	// total — the consistent-MGet satellite, checked live.
	auditDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(auditDone)
		cl := stores[2].NewClient()
		defer cl.Close()
		for i := 0; i < 40; i++ {
			if sum := bankSum(t, ctx, cl, keys); sum != total {
				errCh <- fmt.Errorf("mid-flight MGet snapshot sum = %d, want %d", sum, total)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cl := stores[1].NewClient()
	defer cl.Close()
	if sum := bankSum(t, ctx, cl, keys); sum != total {
		t.Fatalf("final sum = %d, want %d", sum, total)
	}
}

// TestMGetSnapshotRegression pins the consistent-MGet bugfix: a writer keeps
// the invariant a == b via atomic transactions; a scatter-gather MGet could
// observe a from before a transaction and b from after it. The snapshot MGet
// must never see the halves disagree.
func TestMGetSnapshotRegression(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "mget-snap", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	keys := pickCrossShardKeys(t, stores[0], "pair", 2)
	a, b := keys[0], keys[1]

	w := stores[0].NewClient()
	defer w.Close()
	if _, err := w.Txn(ctx, TxnOp{Writes: []TxnWrite{
		{Key: a, Val: []byte("0")}, {Key: b, Val: []byte("0")},
	}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			v := []byte(strconv.Itoa(n))
			if _, err := w.Txn(ctx, TxnOp{Writes: []TxnWrite{
				{Key: a, Val: v}, {Key: b, Val: v},
			}}); err != nil {
				return
			}
		}
	}()
	r := stores[1].NewClient()
	defer r.Close()
	for i := 0; i < 50; i++ {
		got, err := r.MGet(ctx, a, b)
		if err != nil {
			t.Fatalf("MGet: %v", err)
		}
		if string(got[a]) != string(got[b]) {
			close(stop)
			wg.Wait()
			t.Fatalf("MGet observed a half-applied transaction: %s=%q %s=%q",
				a, got[a], b, got[b])
		}
	}
	close(stop)
	wg.Wait()
}

// txnDurableOpts builds the durable-store options shared by the crash tests.
func txnDurableOpts(dataDir string) Options {
	return Options{
		Shards:           4,
		DataDir:          dataDir,
		TxnRecoveryAfter: 500 * time.Millisecond,
		Group: amoeba.GroupOptions{
			AutoReset:    true,
			MinSurvivors: 1,
		},
	}
}

// TestTxnKillAllBetweenPrepareAndCommit crashes every node after the prepare
// phase journaled but before any resolve — the deepest in-doubt window. The
// restarted store must arbitrate the orphaned prepare (presumed abort: the
// home never decided), release the locks, and a retry of the SAME
// coordinator request must then commit exactly once.
func TestTxnKillAllBetweenPrepareAndCommit(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	dataDir, err := os.MkdirTemp("", "kv-txn-prepare-crash-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	opts := txnDurableOpts(dataDir)
	const nodes = 2
	boot := func(gen int) ([]*Store, *amoeba.MemoryNetwork) {
		t.Helper()
		net := amoeba.NewMemoryNetwork()
		kernels := make([]*amoeba.Kernel, nodes)
		for i := range kernels {
			k, err := net.NewKernel(fmt.Sprintf("txnprep-g%d-n%d", gen, i))
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			kernels[i] = k
		}
		stores, err := Bootstrap(ctx, kernels, "txnprep", opts)
		if err != nil {
			t.Fatalf("Bootstrap gen %d: %v", gen, err)
		}
		return stores, net
	}

	stores, net := boot(0)
	cl := stores[0].NewClient()
	keys := pickCrossShardKeys(t, stores[0], "acct", 2)
	from, to := keys[0], keys[1]
	for _, k := range keys {
		if err := cl.Put(ctx, k, []byte("100")); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}

	// Drive phase 1 only, under the pinned coordinator request id: the
	// prepares sequence and journal, then the whole cluster dies before any
	// resolve — exactly what a coordinator crash mid-2PC leaves behind.
	pin := newSessionID(time.Now())
	const pinID = 0xBEEF0001
	allKeys := append([]string(nil), keys...)
	sort.Strings(allKeys)
	prep, err := cl.Do(ctx, &Request{
		Op: ReqTxnPrepare, Session: pin, ID: pinID, Attempt: 0,
		HomeKey: allKeys[0], AllKeys: allKeys,
		Writes: []TxnWrite{
			{Key: from, Val: []byte("90")},
			{Key: to, Val: []byte("110")},
		},
		Conds: []TxnCond{{Key: from, ExpectPresent: true, Expect: []byte("100")}},
	})
	if err != nil || !prep.OK || prep.TxnState != txnStatePrepared {
		t.Fatalf("prepare = %+v %v", prep, err)
	}
	cl.Close()
	for _, s := range stores {
		s.Close() // no goodbye: every node at once
	}
	net.Close()

	// Bootstrap recovers the WALs AND resolves the in-doubt prepare before
	// returning: the home never decided, so presumed abort.
	stores2, net2 := boot(1)
	defer net2.Close()
	defer func() {
		for _, s := range stores2 {
			s.Close()
		}
	}()
	cl2 := stores2[1].NewClient()
	defer cl2.Close()
	for _, k := range keys {
		v, ok, err := cl2.Get(ctx, k)
		if err != nil || !ok || string(v) != "100" {
			t.Fatalf("%s = %q %v %v after aborted recovery, want untouched 100", k, v, ok, err)
		}
	}
	// The locks are gone: ordinary writes proceed immediately.
	if err := cl2.Put(ctx, from, []byte("100")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}

	// The coordinator comes back and retries the SAME request. Attempt 0
	// finds its aborted records, retries under the next attempt, and
	// commits — exactly once.
	resp, err := cl2.Do(ctx, &Request{
		Op: ReqTxn, Session: pin, ID: pinID,
		Writes: []TxnWrite{
			{Key: from, Val: []byte("90")},
			{Key: to, Val: []byte("110")},
		},
		Conds: []TxnCond{{Key: from, ExpectPresent: true, Expect: []byte("100")}},
	})
	if err != nil || !resp.OK {
		t.Fatalf("retried txn = %+v %v", resp, err)
	}
	if v, _, _ := cl2.Get(ctx, from); string(v) != "90" {
		t.Fatalf("%s = %q after retried commit", from, v)
	}
	if v, _, _ := cl2.Get(ctx, to); string(v) != "110" {
		t.Fatalf("%s = %q after retried commit", to, v)
	}
}

// TestTxnKillAllBetweenPartialCommits crashes every node after the home
// shard sequenced the commit but before the decision reached the other
// participants — the transactional analogue of
// TestReshardingResumeAfterPartialCommit. Recovery must drive the committed
// decision to the stragglers (never abort: the home already decided), and a
// retried coordinator request must re-answer without re-applying.
func TestTxnKillAllBetweenPartialCommits(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	dataDir, err := os.MkdirTemp("", "kv-txn-commit-crash-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	opts := txnDurableOpts(dataDir)
	const nodes = 2
	boot := func(gen int) ([]*Store, *amoeba.MemoryNetwork) {
		t.Helper()
		net := amoeba.NewMemoryNetwork()
		kernels := make([]*amoeba.Kernel, nodes)
		for i := range kernels {
			k, err := net.NewKernel(fmt.Sprintf("txncommit-g%d-n%d", gen, i))
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			kernels[i] = k
		}
		stores, err := Bootstrap(ctx, kernels, "txncommit", opts)
		if err != nil {
			t.Fatalf("Bootstrap gen %d: %v", gen, err)
		}
		return stores, net
	}

	stores, net := boot(0)
	cl := stores[0].NewClient()
	keys := pickCrossShardKeys(t, stores[0], "acct", 2)
	from, to := keys[0], keys[1]
	for _, k := range keys {
		if err := cl.Put(ctx, k, []byte("100")); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}

	pin := newSessionID(time.Now())
	const pinID = 0xBEEF0002
	allKeys := append([]string(nil), keys...)
	sort.Strings(allKeys)
	prep, err := cl.Do(ctx, &Request{
		Op: ReqTxnPrepare, Session: pin, ID: pinID,
		HomeKey: allKeys[0], AllKeys: allKeys,
		Writes: []TxnWrite{
			{Key: from, Val: []byte("90")},
			{Key: to, Val: []byte("110")},
		},
	})
	if err != nil || !prep.OK {
		t.Fatalf("prepare = %+v %v", prep, err)
	}
	// Phase 2 only: the home sequences the commit point. No echo — the
	// other participant stays prepared, locks held, when the cluster dies.
	home, err := cl.Do(ctx, &Request{
		Op: ReqTxnResolve, Session: pin, ID: pinID, Commit: true,
		Key: allKeys[0], HomeKey: allKeys[0], AllKeys: allKeys,
	})
	if err != nil || home.TxnState != txnStateCommitted {
		t.Fatalf("home resolve = %+v %v", home, err)
	}
	cl.Close()
	for _, s := range stores {
		s.Close()
	}
	net.Close()

	// Recovery asks the home: it re-answers committed, and the echo applies
	// the straggler's held-back writes. Both halves must be visible.
	stores2, net2 := boot(1)
	defer net2.Close()
	defer func() {
		for _, s := range stores2 {
			s.Close()
		}
	}()
	cl2 := stores2[1].NewClient()
	defer cl2.Close()
	if v, _, _ := cl2.Get(ctx, from); string(v) != "90" {
		t.Fatalf("%s = %q after recovery, want committed 90", from, v)
	}
	if v, _, _ := cl2.Get(ctx, to); string(v) != "110" {
		t.Fatalf("%s = %q after recovery, want committed 110", to, v)
	}

	// Exactly-once across the restart: perturb one written key, then retry
	// the coordinator request — it must re-answer the recorded commit
	// without re-applying the writes.
	if err := cl2.Put(ctx, from, []byte("77")); err != nil {
		t.Fatal(err)
	}
	resp, err := cl2.Do(ctx, &Request{
		Op: ReqTxn, Session: pin, ID: pinID,
		Writes: []TxnWrite{
			{Key: from, Val: []byte("90")},
			{Key: to, Val: []byte("110")},
		},
	})
	if err != nil || !resp.OK {
		t.Fatalf("retried txn = %+v %v", resp, err)
	}
	if v, _, _ := cl2.Get(ctx, from); string(v) != "77" {
		t.Fatalf("%s = %q: a retried committed txn re-applied its writes", from, v)
	}
}

// TestTxnJanitorRecoversOrphanedPrepare leaves a prepared transaction with
// no coordinator on a LIVE cluster: the per-node janitor must notice the
// aged locks and arbitrate without a restart.
func TestTxnJanitorRecoversOrphanedPrepare(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-janitor", 2, Options{
		Shards:           4,
		TxnRecoveryAfter: 300 * time.Millisecond,
	})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()
	keys := pickCrossShardKeys(t, stores[0], "orphan", 2)
	allKeys := append([]string(nil), keys...)
	sort.Strings(allKeys)
	prep, err := cl.Do(ctx, &Request{
		Op:      ReqTxnPrepare,
		HomeKey: allKeys[0], AllKeys: allKeys,
		Writes: []TxnWrite{{Key: keys[0], Val: []byte("never")}},
	})
	if err != nil || !prep.OK {
		t.Fatalf("prepare = %+v %v", prep, err)
	}
	// No resolve: the coordinator is gone. The janitor must abort it and
	// release the lock; an ordinary write then proceeds.
	deadline := time.Now().Add(30 * time.Second)
	for {
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := cl.Put(wctx, keys[0], []byte("after"))
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never released the orphaned lock: %v", err)
		}
	}
	if _, ok, _ := cl.Get(ctx, keys[0]); !ok {
		t.Fatal("key lost after janitor recovery")
	}
	if v, _, _ := cl.Get(ctx, keys[0]); string(v) != "after" {
		t.Fatal("held-back write of an aborted txn leaked")
	}
}

// TestTxnSurvivesLiveReshard runs bank transfers while the store splits
// 4 → 8 shards mid-workload: prepared state migrates with its keys and no
// transaction is torn across the epoch flip.
func TestTxnSurvivesLiveReshard(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-reshard", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	const accounts, initial = 8, 100
	keys := make([]string, accounts)
	seed := stores[0].NewClient()
	for i := range keys {
		keys[i] = fmt.Sprintf("rbank-%d", i)
		if err := seed.Put(ctx, keys[i], []byte(strconv.Itoa(initial))); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	seed.Close()
	total := accounts * initial

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := stores[w].NewClient()
			defer cl.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from, to := keys[(w+i)%accounts], keys[(w+i*3+1)%accounts]
				if from == to {
					continue
				}
				snap, err := cl.Txn(ctx, TxnOp{Reads: []string{from, to}})
				if err != nil {
					errCh <- err
					return
				}
				fv, _ := strconv.Atoi(string(snap.Values[0]))
				tv, _ := strconv.Atoi(string(snap.Values[1]))
				if fv <= 0 {
					continue
				}
				if _, err := cl.Txn(ctx, TxnOp{
					Conds: []TxnCond{
						{Key: from, ExpectPresent: true, Expect: []byte(strconv.Itoa(fv))},
						{Key: to, ExpectPresent: true, Expect: []byte(strconv.Itoa(tv))},
					},
					Writes: []TxnWrite{
						{Key: from, Val: []byte(strconv.Itoa(fv - 1))},
						{Key: to, Val: []byte(strconv.Itoa(tv + 1))},
					},
				}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := stores[0].Resharding(ctx, 8); err != nil {
		t.Fatalf("Resharding: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := stores[0].Shards(); got != 8 {
		t.Fatalf("shards = %d after reshard, want 8", got)
	}
	cl := stores[1].NewClient()
	defer cl.Close()
	if sum := bankSum(t, ctx, cl, keys); sum != total {
		t.Fatalf("sum = %d after mid-workload reshard, want %d (torn transaction)", sum, total)
	}
}

// TestPutBehindPrepareLockRetriesPromptly: a write that meets a prepare lock
// answers Moved, and Do's loop sleeps on the node's change channel, which the
// resolve that releases the lock fires — on the very replica that refused
// the write. So the write trails the resolve by one round, not by a timer,
// and it is re-driven once per release, never polling while the lock is held:
// in every round, also those that hold the lock 50 ms after the first
// bounce, the Put bounces exactly once.
func TestPutBehindPrepareLockRetriesPromptly(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "lockwait", TraceMod: 1})
	stores := newCluster(t, ctx, net, "lockwait", 2, Options{Shards: 2, Group: amoeba.GroupOptions{Obs: hub}})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()
	keys := pickCrossShardKeys(t, stores[0], "locked", 2)
	sort.Strings(keys)

	const rounds = 20
	gaps := make([]time.Duration, 0, rounds)
	pin := newSessionID(time.Now())
	for round := 0; round < rounds; round++ {
		txn := txnID{session: pin, seq: uint64(round + 1)}
		prep, err := cl.Do(ctx, &Request{Op: ReqTxnPrepare, Session: pin, ID: txn.seq, HomeKey: keys[0], AllKeys: keys,
			Writes: []TxnWrite{{Key: keys[0], Val: []byte("t")}, {Key: keys[1], Val: []byte("t")}}})
		if err != nil || !prep.OK || prep.TxnState != txnStatePrepared {
			t.Fatalf("round %d: prepare = %+v, %v", round, prep, err)
		}
		const putID = 0x10C4ED00
		returned := make(chan time.Time, 1)
		go func() {
			if _, err := cl.Do(ctx, &Request{Op: ReqPut, Session: pin, ID: putID + uint64(round), Key: keys[1], Val: []byte("p")}); err != nil {
				t.Errorf("round %d: Put behind the lock: %v", round, err)
			}
			returned <- time.Now()
		}()
		// Resolve only once the Put has met the lock; in every fourth round,
		// hold the lock a while longer.
		for firstIndexContaining(spanEvents(hub.Tracer().Trace(cmdID(pin, putID+uint64(round)))), "moved") < 0 {
			select {
			case <-returned:
				t.Fatalf("round %d: the Put returned while its key was still locked", round)
			case <-time.After(100 * time.Microsecond):
			}
		}
		if round%4 == 3 {
			time.Sleep(50 * time.Millisecond)
		}
		if err := cl.txnResolveEcho(ctx, txn, 0, true, keys[0], keys, nil, false); err != nil {
			t.Fatalf("round %d: resolve: %v", round, err)
		}
		resolved := time.Now()
		gaps = append(gaps, (<-returned).Sub(resolved))
		if n := countContaining(spanEvents(hub.Tracer().Trace(cmdID(pin, putID+uint64(round)))), "moved"); n != 1 {
			t.Errorf("round %d: the Put bounced %d times, want once: only the lock's release re-drives it", round, n)
		}
		if v, ok, err := cl.Get(ctx, keys[1]); err != nil || !ok || string(v) != "p" {
			t.Fatalf("round %d: after the txn and the Put, %q = %q %v %v; the Put is ordered last", round, keys[1], v, ok, err)
		}
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	t.Logf("median resolve-to-Put-returns gap %v over %d rounds", gaps[rounds/2], rounds)
	if median := gaps[rounds/2]; median > 5*time.Millisecond {
		t.Errorf("median resolve-to-Put-returns gap %v over %d rounds, want under 5ms (all: %v)", median, rounds, gaps)
	}
}

// TestHeldPutReturnsAtClose: a Put held by a prepare lock that nobody
// resolves, under a context with no deadline, sleeps on the node's change
// channel — and must end when its store closes, not sleep on.
func TestHeldPutReturnsAtClose(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "heldclose", TraceMod: 1})
	stores := newCluster(t, ctx, net, "heldclose", 2, Options{Shards: 2, Group: amoeba.GroupOptions{Obs: hub}})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()
	key := "locked"
	prep, err := cl.Do(ctx, &Request{Op: ReqTxnPrepare, HomeKey: key, AllKeys: []string{key},
		Writes: []TxnWrite{{Key: key, Val: []byte("t")}}})
	if err != nil || !prep.OK || prep.TxnState != txnStatePrepared {
		t.Fatalf("prepare = %+v, %v", prep, err)
	}
	pin := newSessionID(time.Now())
	const putID = 0xC105ED
	returned := make(chan error, 1)
	go func() {
		_, err := cl.Do(context.Background(), &Request{Op: ReqPut, Session: pin, ID: putID, Key: key, Val: []byte("p")})
		returned <- err
	}()
	for firstIndexContaining(spanEvents(hub.Tracer().Trace(cmdID(pin, putID))), "moved") < 0 {
		select {
		case err := <-returned:
			t.Fatalf("the Put returned (%v) while its key was locked", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	stores[0].Close()
	select {
	case err := <-returned:
		if err == nil {
			t.Fatal("the Put behind the lock succeeded on a closed store")
		}
	case <-time.After(time.Second):
		t.Fatal("the Put behind the lock still waits 1s after its store closed")
	}
}

// commitPinnedTxn seeds two read keys, commits a transaction reading them and
// writing two more pinned to (a session of its own, pinID), and then
// overwrites all four keys. It returns the retry: the same ReqTxn, driven
// through cl, must answer committed with the reads captured at the first
// execution — re-answered from the records its attempt left, not read afresh
// — and must not write again.
func commitPinnedTxn(t *testing.T, ctx context.Context, cl *Client, pinID uint64, reads, writes []string) func(cl *Client, after string) {
	t.Helper()
	for _, k := range reads {
		if err := cl.Put(ctx, k, []byte("captured-"+k)); err != nil {
			t.Fatalf("seed %s: %v", k, err)
		}
	}
	pin := newSessionID(time.Now())
	req := func() *Request {
		return &Request{Op: ReqTxn, Session: pin, ID: pinID, Keys: reads,
			Writes: []TxnWrite{{Key: writes[0], Val: []byte("txn")}, {Key: writes[1], Val: []byte("txn")}}}
	}
	check := func(resp *Response, err error, what string) {
		t.Helper()
		if err != nil || !resp.OK || resp.TxnState != txnStateCommitted || len(resp.Values) != len(reads) {
			t.Fatalf("%s: %+v %v, want committed", what, resp, err)
		}
		for i, k := range reads {
			if !resp.Found[i] || string(resp.Values[i]) != "captured-"+k {
				t.Fatalf("%s: read %s = %q (found %v), want the captured %q", what, k, resp.Values[i], resp.Found[i], "captured-"+k)
			}
		}
	}
	resp, err := cl.Do(ctx, req())
	check(resp, err, "first execution")
	for _, k := range append(append([]string(nil), reads...), writes...) {
		if err := cl.Put(ctx, k, []byte("later")); err != nil {
			t.Fatalf("overwrite %s: %v", k, err)
		}
	}
	return func(cl *Client, after string) {
		t.Helper()
		resp, err := cl.Do(ctx, req())
		check(resp, err, "retry "+after)
		for _, k := range writes {
			if v, ok, err := cl.Get(ctx, k); err != nil || !ok || string(v) != "later" {
				t.Fatalf("retry %s: %s = %q %v %v, want the later write: the transaction wrote again", after, k, v, ok, err)
			}
		}
	}
}

// TestRetriedTxnReanswersCapturedReads retries a committed transaction's
// request twice: on the live store, and through a node that joined after the
// commit, whose replicas hold the tombstones only as their state transfer's
// snapshot carried them.
func TestRetriedTxnReanswersCapturedReads(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-retry", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()
	keys := pickCrossShardKeys(t, stores[0], "retry", 4)
	retry := commitPinnedTxn(t, ctx, cl, 0xBEEF0101, keys[:2], keys[2:])
	retry(cl, "on the live store")

	k, err := net.NewKernel("txn-retry-joiner")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	joiner, err := Join(ctx, k, "txn-retry", Options{Shards: 4})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer joiner.Close()
	jcl := joiner.NewClient()
	defer jcl.Close()
	retry(jcl, "through a joiner")
}

// TestRetriedTxnReanswersCapturedReadsAfterReshard retries a committed
// transaction's request after a split moved both of its read keys, and with
// them its tombstones, to new shards.
func TestRetriedTxnReanswersCapturedReadsAfterReshard(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "txn-retry-split", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()
	// Two read keys on two shards, each moving in the split, and two write
	// keys on the other two shards.
	rt := stores[0].Routing()
	next := Routing{Shards: 8, VNodes: rt.VNodes}.ring("txn-retry-split")
	byShard := make(map[int]string)
	var reads, writes []string
	for i := 0; (len(reads) < 2 || len(writes) < 2) && i < 10000; i++ {
		k := fmt.Sprintf("split-%04d", i)
		sh := stores[0].ShardFor(k)
		if _, taken := byShard[sh]; taken {
			continue
		}
		switch {
		case len(reads) < 2 && next.shard(k) != sh:
			reads = append(reads, k)
		case len(writes) < 2 && len(reads) == 2:
			writes = append(writes, k)
		default:
			continue
		}
		byShard[sh] = k
	}
	if len(reads) < 2 || len(writes) < 2 {
		t.Fatalf("found reads %q and writes %q, want two of each", reads, writes)
	}
	retry := commitPinnedTxn(t, ctx, cl, 0xBEEF0201, reads, writes)
	if err := stores[0].Resharding(ctx, 8); err != nil {
		t.Fatalf("Resharding: %v", err)
	}
	for _, k := range reads {
		if sh := stores[1].ShardFor(k); sh < 4 {
			t.Fatalf("read key %s still on shard %d after the split", k, sh)
		}
	}
	cl1 := stores[1].NewClient()
	defer cl1.Close()
	retry(cl1, "after the split")
}
