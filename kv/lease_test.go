package kv

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
)

// TestLeaseReadsSafeAcrossReshard runs lease-served reads concurrently with
// single-writer counters while the store splits 4→8 shards live. Safety
// condition: a read of key k started after the writer's i-th Put completed
// must return at least i — a lease read serving a frozen or migrated key
// from local state (instead of dropping to the sequenced fallback) would
// violate it. The test also requires the lease path to have actually served
// before AND after the handoff, so it proves leases re-establish on the new
// shard groups rather than just silently falling back forever.
func TestLeaseReadsSafeAcrossReshard(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "leaseshard", 3, Options{Shards: 4, Leases: true})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	const nKeys = 12
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("lr-%04d", i)
	}
	seed := stores[0].NewClient()
	for _, k := range keys {
		if err := seed.Put(ctx, k, []byte("0")); err != nil {
			t.Fatalf("seeding %q: %v", k, err)
		}
	}
	seed.Close()

	// Wait until every shard serves lease reads (grants ride sync ticks).
	deadline := time.Now().Add(15 * time.Second)
	for shard := 0; shard < 4; shard++ {
		k := ""
		for _, cand := range keys {
			if stores[0].ShardFor(cand) == shard {
				k = cand
				break
			}
		}
		if k == "" {
			continue // no test key on this shard; fine
		}
		for {
			if _, ok := stores[0].leaseGet(ctx, shard, []string{k}); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: lease never established", shard)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		failure   atomic.Value // first violation message
		lastAcked [nKeys]atomic.Int64
		readOps   atomic.Uint64
	)
	fail := func(msg string) {
		failure.CompareAndSwap(nil, msg)
		stop.Store(true)
	}

	// One single-writer goroutine bumping every key's counter in turn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := stores[0].NewClient()
		defer cl.Close()
		for i := int64(1); !stop.Load(); i++ {
			ki := int(i) % nKeys
			if err := cl.Put(ctx, keys[ki], []byte(strconv.FormatInt(i, 10))); err != nil {
				fail(fmt.Sprintf("Put %q: %v", keys[ki], err))
				return
			}
			lastAcked[ki].Store(i)
		}
	}()

	// Lease readers on the other nodes: each read must observe at least the
	// writer's last completed value for its key.
	for n := 1; n < len(stores); n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := stores[n].NewClient()
			defer cl.Close()
			for i := 0; !stop.Load(); i++ {
				ki := i % nKeys
				floor := lastAcked[ki].Load()
				got, ok, err := cl.Get(ctx, keys[ki])
				if err != nil {
					fail(fmt.Sprintf("node %d Get %q: %v", n, keys[ki], err))
					return
				}
				if !ok {
					fail(fmt.Sprintf("node %d: key %q vanished", n, keys[ki]))
					return
				}
				v, err := strconv.ParseInt(string(got), 10, 64)
				if err != nil {
					fail(fmt.Sprintf("node %d: key %q holds %q", n, keys[ki], got))
					return
				}
				if v < floor {
					fail(fmt.Sprintf("node %d: STALE lease read of %q: got %d, writer had completed %d",
						n, keys[ki], v, floor))
					return
				}
				readOps.Add(1)
			}
		}()
	}

	time.Sleep(150 * time.Millisecond) // load under the old table
	leasedBefore, _, _, _ := stores[1].LeaseStats()
	if leasedBefore == 0 {
		t.Log("warning: no lease reads before the reshard yet")
	}
	if err := stores[1].Resharding(ctx, 8); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("Resharding(8): %v", err)
	}
	waitShards(t, stores[1], 8, 20*time.Second)

	// Keep load running on the new table until the lease path demonstrably
	// serves again (leases re-arm on the post-flip shard groups).
	deadline = time.Now().Add(15 * time.Second)
	for {
		leased, _, _, _ := stores[1].LeaseStats()
		if leased > leasedBefore || failure.Load() != nil {
			break
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("lease reads never resumed after the reshard (still %d)", leased)
		}
		time.Sleep(25 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if msg := failure.Load(); msg != nil {
		t.Fatal(msg)
	}
	if readOps.Load() == 0 {
		t.Fatal("readers performed no reads; the lease path was not exercised")
	}
	leased, fallbacks, _, _ := stores[1].LeaseStats()
	leased2, fallbacks2, _, _ := stores[2].LeaseStats()
	t.Logf("%d reads total; node1 lease stats: %d leased / %d fallbacks; node2: %d / %d",
		readOps.Load(), leased, fallbacks, leased2, fallbacks2)
	if leased+leased2 == 0 {
		t.Fatal("no reads were served from a lease")
	}
}

// TestLeaseReadYourWriteAndBoundedStaleness drives the two read paths leases
// add under a read-heavy mix. A Put followed by a Get on the same client must
// observe the Put even when the Get is lease-served (write gating makes that
// linearizable; a stale serve would return the older value), and a StaleGet
// must report a staleness within the bound it was given. Both paths must
// demonstrably serve: silent fallback to sequenced reads would pass every
// correctness check while voiding the optimization.
func TestLeaseReadYourWriteAndBoundedStaleness(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const nodes = 3
	stores := newCluster(t, ctx, net, "leaseryw", nodes, Options{Shards: 4, Leases: true})
	defer closeAll(stores)

	const nKeys = 16
	key := func(i int) string { return fmt.Sprintf("ryw-%d", i%nKeys) }
	seed := stores[0].NewClient()
	for i := 0; i < nKeys; i++ {
		if err := seed.Put(ctx, key(i), []byte("0")); err != nil {
			t.Fatalf("seeding %q: %v", key(i), err)
		}
	}
	// Leases ride sync ticks: read until one is lease-served, so the mix
	// below runs on the path under test.
	deadline := time.Now().Add(15 * time.Second)
	for {
		for i := 0; i < nKeys; i++ {
			if _, _, err := seed.Get(ctx, key(i)); err != nil {
				t.Fatalf("probe Get: %v", err)
			}
		}
		if leased, _, _, _ := stores[0].LeaseStats(); leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leases never armed")
		}
		time.Sleep(25 * time.Millisecond)
	}
	seed.Close()

	const bound = time.Second
	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	for w := 0; w < 2*nodes; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := stores[w%nodes].NewClient()
			defer cl.Close()
			own := fmt.Sprintf("ryw-own-%d", w)
			for i := 0; time.Now().Before(stop); i++ {
				switch {
				case i%20 == 19:
					want := strconv.Itoa(i)
					if err := cl.Put(ctx, own, []byte(want)); err != nil {
						t.Errorf("Put %s: %v", own, err)
						return
					}
					if got, _, err := cl.Get(ctx, own); err != nil || string(got) != want {
						t.Errorf("read-your-write %s = %q %v, want %q", own, got, err, want)
						return
					}
				case i%7 == 3:
					_, _, staleFor, err := cl.StaleGet(ctx, key(i), bound)
					if err != nil {
						t.Errorf("StaleGet: %v", err)
						return
					}
					if staleFor > bound {
						t.Errorf("StaleGet reported %v staleness over the %v bound", staleFor, bound)
						return
					}
				default:
					if _, _, err := cl.Get(ctx, key(i)); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	var leased, fallbacks, stale uint64
	for _, s := range stores {
		l, f, st, _ := s.LeaseStats()
		leased, fallbacks, stale = leased+l, fallbacks+f, stale+st
	}
	t.Logf("%d lease-served reads (%d fallbacks), %d stale-served", leased, fallbacks, stale)
	if leased == 0 {
		t.Fatal("no read was served from a lease")
	}
	if stale == 0 {
		t.Fatal("no bounded-staleness read was served")
	}
}

// TestLeaseReadsTakeNoSeqAndStayTraceable: a Get its own node answers under
// a lease is never numbered — a thousand of them leave the client's session
// where they found it — yet it is traced, under an id of the client's own,
// with its "served locally under lease" span; and a Get on a store without
// leases is still numbered, one seq, and answered once.
func TestLeaseReadsTakeNoSeqAndStayTraceable(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()

	hub := obs.NewHub(obs.Options{Node: "leaseseq", TraceMod: 1})
	dumpOnFailure(t, hub.Flight())
	stores := newCluster(t, ctx, net, "leaseseq", 3, Options{Shards: 4, Leases: true, Group: amoeba.GroupOptions{Obs: hub}})
	defer closeAll(stores)
	cl := stores[1].NewClient()
	defer cl.Close()
	const nKeys = 16
	key := func(i int) string { return fmt.Sprintf("seq-%d", i%nKeys) }
	for i := 0; i < nKeys; i++ {
		if err := cl.Put(ctx, key(i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	get := func(c *Client, k string) *Response {
		t.Helper()
		resp, err := c.Do(ctx, &Request{Op: ReqGet, Keys: []string{k}})
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		return resp
	}
	// Leases ride the sequencers' sync ticks: read until every shard serves.
	deadline := time.Now().Add(15 * time.Second)
	for served := 0; served < nKeys; {
		served = 0
		for i := 0; i < nKeys; i++ {
			if get(cl, key(i)).ReadPath == ReadLease {
				served++
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d keys lease-served after 15s", served, nKeys)
		}
	}

	sessionAt := func(c *Client) (next, ack uint64) {
		c.sess.mu.Lock()
		defer c.sess.mu.Unlock()
		return c.sess.next, c.sess.ack
	}
	next, ack := sessionAt(cl)
	for i := 0; i < 1000; i++ {
		resp := get(cl, key(i))
		if resp.ReadPath != ReadLease || !resp.Found[0] || string(resp.Values[0]) != strconv.Itoa(i%nKeys) {
			t.Fatalf("Get %s = %q found=%v path=%d, want %q under a lease", key(i), resp.Values[0], resp.Found[0], resp.ReadPath, strconv.Itoa(i%nKeys))
		}
	}
	if n, a := sessionAt(cl); n != next || a != ack {
		t.Fatalf("1000 lease reads moved the session from next=%d ack=%d to next=%d ack=%d", next, ack, n, a)
	}

	leased := 0
	for _, id := range hub.Tracer().IDs() {
		events := spanEvents(hub.Tracer().Trace(id))
		if firstIndexContaining(events, "served locally under lease") < 0 {
			continue
		}
		leased++
		sub, rep := firstIndexContaining(events, "submitted"), firstIndexContaining(events, "replied")
		if sub < 0 || rep < 0 || countContaining(events, "applied@seq") > 0 {
			t.Fatalf("lease read trace %d is not submitted, served locally, replied: %q", id, events)
		}
	}
	if leased == 0 {
		t.Fatal("no lease read left a \"served locally under lease\" span with every op sampled")
	}

	// Without leases a Get is a sequenced read marker: it takes one seq,
	// acknowledged when it returns, and its caller is answered once.
	plainHub := obs.NewHub(obs.Options{Node: "plainseq", TraceMod: 1})
	plain := newCluster(t, ctx, net, "plainseq", 3, Options{Shards: 4, Group: amoeba.GroupOptions{Obs: plainHub}})
	defer closeAll(plain)
	pc := plain[1].NewClient()
	defer pc.Close()
	if err := pc.Put(ctx, "plain", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	next, _ = sessionAt(pc)
	resp := get(pc, "plain")
	if resp.ReadPath != ReadSequenced || !resp.Found[0] || string(resp.Values[0]) != "v" {
		t.Fatalf("Get on a store without leases = %q found=%v path=%d, want \"v\", sequenced", resp.Values[0], resp.Found[0], resp.ReadPath)
	}
	if n, a := sessionAt(pc); n != next+1 || a != n {
		t.Fatalf("a sequenced Get left the session at next=%d ack=%d, want next=%d ack=%d", n, a, next+1, next+1)
	}
	id := cmdID(pc.sess.id, next)
	events := spanEvents(plainHub.Tracer().Trace(id))
	// Only the caller's own replica is known to apply before the reply.
	if countContaining(events, "submitted") != 1 || countContaining(events, "replied") != 1 || countContaining(events, "applied@seq") < 1 {
		t.Fatalf("the sequenced Get's trace %d is not one submission, an apply and one reply: %q", id, events)
	}
}
