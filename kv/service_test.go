package kv

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"amoeba"
)

// TestAccessCodecRoundTrip pins the access-protocol wire format: every op
// survives encode/decode, and foreign versions are rejected loudly.
func TestAccessCodecRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: ReqGet, Session: seedSession, ID: 7, Ack: 7, Budget: 1500 * time.Millisecond, Keys: []string{"a", "b", ""}},
		{Op: ReqPut, Session: seedSession, ID: 8, Ack: 3, Key: "k", Val: []byte("v")},
		{Op: ReqPut, Session: seedSession, ID: 9, Key: "empty", Val: nil},
		{Op: ReqDelete, Session: seedSession, ID: 10, Ack: 9, Key: "gone"},
		{Op: ReqCAS, Session: seedSession, ID: 11, Ack: 10, Key: "c", ExpectPresent: true, Expect: []byte("old"), Val: []byte("new")},
		{Op: ReqCAS, Session: seedSession, ID: 12, Ack: 10, Key: "c", ExpectPresent: false, Val: []byte("fresh")},
		// A batch's own seq is its first pair's.
		{Op: ReqBatchPut, Session: seedSession, ID: 13, Ack: 12, IDs: []uint64{13, 14}, Pairs: []Pair{{Key: "x", Val: []byte("1")}, {Key: "y", Val: nil}}, Flags: flagForwarded},
	}
	for _, want := range reqs {
		got, err := DecodeRequest(EncodeRequest(want))
		if err != nil {
			t.Fatalf("op %d: decode: %v", want.Op, err)
		}
		if got.Op != want.Op || got.Flags != want.Flags || got.Session != want.Session || got.ID != want.ID || got.Ack != want.Ack ||
			got.Budget != want.Budget || got.Key != want.Key ||
			!bytes.Equal(got.Val, want.Val) || got.ExpectPresent != want.ExpectPresent ||
			!bytes.Equal(got.Expect, want.Expect) ||
			len(got.Keys) != len(want.Keys) || len(got.Pairs) != len(want.Pairs) ||
			len(got.IDs) != len(want.IDs) {
			t.Fatalf("op %d: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] {
				t.Fatalf("op %d: key %d = %q, want %q", want.Op, i, got.Keys[i], want.Keys[i])
			}
		}
		for i := range want.Pairs {
			if got.Pairs[i].Key != want.Pairs[i].Key || !bytes.Equal(got.Pairs[i].Val, want.Pairs[i].Val) ||
				got.IDs[i] != want.IDs[i] {
				t.Fatalf("op %d: pair %d mismatch", want.Op, i)
			}
		}
	}
	resps := []*Response{
		{OK: true},
		{OK: false},
		{OK: true, Values: [][]byte{[]byte("v"), nil, {}}, Found: []bool{true, false, true}},
		{Err: "kaboom"},
	}
	for i, want := range resps {
		got, err := DecodeResponse(EncodeResponse(want))
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if got.OK != want.OK || got.Err != want.Err || len(got.Values) != len(want.Values) {
			t.Fatalf("resp %d: round trip mismatch: got %+v want %+v", i, got, want)
		}
		for j := range want.Values {
			if got.Found[j] != want.Found[j] || !bytes.Equal(got.Values[j], want.Values[j]) {
				t.Fatalf("resp %d: value %d mismatch", i, j)
			}
		}
	}
	// Foreign versions are refused, not misparsed.
	bad := EncodeRequest(reqs[0])
	bad[0] = ProtoVersion + 1
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("decoded a request from a future protocol version")
	}
	badResp := EncodeResponse(resps[0])
	badResp[0] = ProtoVersion + 1
	if _, err := DecodeResponse(badResp); err == nil {
		t.Fatal("decoded a response from a future protocol version")
	}
}

// startServices starts one Service per store and arranges cleanup.
func startServices(t *testing.T, stores []*Store) []*Service {
	t.Helper()
	svcs := make([]*Service, len(stores))
	for i, s := range stores {
		svc, err := NewService(s)
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		svcs[i] = svc
		t.Cleanup(svc.Close)
	}
	return svcs
}

// keyOnShard finds a key owned by the wanted shard.
func keyOnShard(s *Store, shard int, tag string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", tag, i)
		if s.ShardFor(k) == shard {
			return k
		}
	}
}

// TestProxyThroughSingleNodeAddress is the acceptance scenario: a client
// holding nothing but one node's address performs every operation against
// keys on every shard. The entry node serves what it hosts and answers
// misroutes with a ForwardRequest — observable in its forward counter — and
// sequenced reads stay linearizable across the hop.
func TestProxyThroughSingleNodeAddress(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const nodes, shards = 3, 4
	stores := newCluster(t, ctx, net, "proxy", nodes, Options{
		Shards:      shards,
		Replication: 1, // every shard on exactly one node: most ops must proxy
	})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	svcs := startServices(t, stores)

	// The client lives on its own kernel — a pure consumer machine — and
	// knows only node 0's address. No ring, no shard count.
	ext, err := net.NewKernel("proxy-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	cl, err := Dial(ext, "proxy", DialOptions{Node: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// One key per shard, so every shard is exercised through the one
	// address.
	keys := make([]string, shards)
	for i := range keys {
		keys[i] = keyOnShard(stores[0], i, fmt.Sprintf("via0-s%d", i))
		if err := cl.Put(ctx, keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatalf("Put %s: %v", keys[i], err)
		}
		v, ok, err := cl.Get(ctx, keys[i])
		if err != nil || !ok || string(v) != "v-"+keys[i] {
			t.Fatalf("Get %s = %q %v %v", keys[i], v, ok, err)
		}
	}
	// CAS through the proxy: create, conflict, swap.
	casKey := keyOnShard(stores[0], (stores[0].ShardFor(keys[0])+1)%shards, "cas")
	if ok, err := cl.CAS(ctx, casKey, nil, []byte("one")); err != nil || !ok {
		t.Fatalf("CAS create = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, casKey, []byte("wrong"), []byte("nope")); err != nil || ok {
		t.Fatalf("CAS wrong-expect = %v %v, want false", ok, err)
	}
	if ok, err := cl.CAS(ctx, casKey, []byte("one"), []byte("two")); err != nil || !ok {
		t.Fatalf("CAS swap = %v %v", ok, err)
	}
	// Delete through the proxy reports presence.
	if existed, err := cl.Delete(ctx, keys[0]); err != nil || !existed {
		t.Fatalf("Delete = %v %v", existed, err)
	}
	if _, ok, err := cl.Get(ctx, keys[0]); err != nil || ok {
		t.Fatalf("Get after delete: found=%v err=%v", ok, err)
	}
	// BatchPut spanning every shard in one request: the entry node
	// re-scatters it.
	var pairs []Pair
	for i := 0; i < shards; i++ {
		pairs = append(pairs, Pair{Key: keyOnShard(stores[0], i, fmt.Sprintf("bulk-s%d", i)), Val: []byte{byte(i)}})
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("BatchPut: %v", err)
	}
	// MGet spanning every shard in one request.
	var mkeys []string
	for _, p := range pairs {
		mkeys = append(mkeys, p.Key)
	}
	got, err := cl.MGet(ctx, mkeys...)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for i, p := range pairs {
		if !bytes.Equal(got[p.Key], []byte{byte(i)}) {
			t.Fatalf("MGet %s = %v, want %v", p.Key, got[p.Key], []byte{byte(i)})
		}
	}
	// Linearizability across the hop: a write through the proxy is visible
	// to a subsequent sequenced read on a hosting node's own client, and
	// vice versa.
	hot := keyOnShard(stores[0], 1, "linz") // shard 1 lives on node 1 only
	if err := cl.Put(ctx, hot, []byte("from-proxy")); err != nil {
		t.Fatalf("Put %s: %v", hot, err)
	}
	if v, ok, err := stores[1].NewClient().Get(ctx, hot); err != nil || !ok || string(v) != "from-proxy" {
		t.Fatalf("owner Get after proxied Put = %q %v %v", v, ok, err)
	}
	if err := stores[1].NewClient().Put(ctx, hot, []byte("from-owner")); err != nil {
		t.Fatalf("owner Put: %v", err)
	}
	if v, ok, err := cl.Get(ctx, hot); err != nil || !ok || string(v) != "from-owner" {
		t.Fatalf("proxied Get after owner Put = %q %v %v", v, ok, err)
	}

	// The entry node must have forwarded misroutes (single-shard requests
	// for shards it does not host) and re-scattered the multi-shard ones.
	st := svcs[0].Stats()
	if st.Forwarded == 0 {
		t.Fatalf("entry node forwarded nothing: %+v", st)
	}
	if st.Scattered == 0 {
		t.Fatalf("entry node re-scattered nothing: %+v", st)
	}
	// Forward targets actually served (no silent fallbacks to errors).
	var served uint64
	for _, svc := range svcs {
		served += svc.Stats().Served
	}
	if served == 0 {
		t.Fatal("no service served anything")
	}
}

// TestStoreClientReachesUnhostedShards: a node-bound client on a
// bounded-replication store transparently reaches shards its node does not
// host — the local fast path for hosted shards, direct RPC to the owners'
// well-known shard addresses for the rest.
func TestStoreClientReachesUnhostedShards(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const nodes, shards = 3, 3
	stores := newCluster(t, ctx, net, "reach", nodes, Options{Shards: shards, Replication: 1})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	startServices(t, stores)

	cl := stores[0].NewClient()
	defer cl.Close()
	for i := 0; i < shards; i++ {
		k := keyOnShard(stores[0], i, fmt.Sprintf("reach-s%d", i))
		if err := cl.Put(ctx, k, []byte("r")); err != nil {
			t.Fatalf("Put shard %d: %v", i, err)
		}
		if v, ok, err := cl.Get(ctx, k); err != nil || !ok || string(v) != "r" {
			t.Fatalf("Get shard %d = %q %v %v", i, v, ok, err)
		}
	}
	st := cl.Stats()
	if st.LocalOps == 0 {
		t.Fatalf("no local fast-path ops: %+v", st)
	}
	if st.RemoteOps == 0 {
		t.Fatalf("no remote ops despite unhosted shards: %+v", st)
	}
}

// TestProxyUnderChurn drives every shard through one node's address over a
// lossy network while a remote shard group loses the node that sequences it.
// Retries cross RPC retransmissions, re-located forwards, and a group
// failover — and must stay exactly-once: every atomic create reports
// success exactly as if executed once, because replicas deduplicate by
// command id.
func TestProxyUnderChurn(t *testing.T) {
	ctx := ctxT(t, 180*time.Second)
	net := amoeba.NewMemoryNetworkWithFaults(amoeba.MemoryNetworkConfig{
		DropRate: 0.01,
		Seed:     7,
	})
	defer net.Close()
	const nodes, shards = 4, 4
	stores := newCluster(t, ctx, net, "churn", nodes, Options{
		Shards:      shards,
		Replication: 2, // shard i on nodes {i, i+1}: node 1 hosts shards 0 and 1
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 1,
		},
	})
	closed := make([]bool, nodes)
	defer func() {
		for i, s := range stores {
			if !closed[i] {
				s.Close()
			}
		}
	}()
	svcs := startServices(t, stores)

	ext, err := net.NewKernel("churn-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	cl, err := Dial(ext, "churn", DialOptions{Node: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const ops = 120
	kill := ops / 3 // crash mid-run
	for i := 0; i < ops; i++ {
		if i == kill {
			// Crash node 1: it sequences shard 1 (Bootstrap puts shard
			// i's sequencer on node i) and serves shard addresses 0 and
			// 1. Its kernel goes silent — services, replicas, and all —
			// so in-flight requests to those addresses must re-locate
			// the surviving hosts while the groups fail over.
			svcs[1].Close()
			stores[1].Close()
			closed[1] = true
		}
		key := fmt.Sprintf("churn-%03d", i)
		ok, err := cl.CAS(ctx, key, nil, []byte(key))
		if err != nil {
			t.Fatalf("op %d: CAS create %s: %v", i, key, err)
		}
		if !ok {
			t.Fatalf("op %d: CAS create %s reported conflict: a retry re-executed (id dedup broken)", i, key)
		}
	}
	// Every write is readable, linearizably, through the same single
	// address.
	for i := 0; i < ops; i += 7 {
		key := fmt.Sprintf("churn-%03d", i)
		v, ok, err := cl.Get(ctx, key)
		if err != nil || !ok || string(v) != key {
			t.Fatalf("Get %s = %q %v %v", key, v, ok, err)
		}
	}
	if st := svcs[0].Stats(); st.Forwarded == 0 {
		t.Fatalf("entry node forwarded nothing under churn: %+v", st)
	}
}

// TestDialWithRingGoesDirect: a Dial'd client given the shard count routes
// straight to shard addresses — no forwarding at any node — while a stale
// shard count still works via ForwardRequest.
func TestDialWithRingGoesDirect(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const nodes, shards = 3, 3
	stores := newCluster(t, ctx, net, "direct", nodes, Options{Shards: shards, Replication: 1})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	svcs := startServices(t, stores)
	ext, err := net.NewKernel("direct-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}

	// Correct ring: one hop, zero forwards.
	direct, err := Dial(ext, "direct", DialOptions{Node: 0, Shards: shards})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer direct.Close()
	for i := 0; i < shards; i++ {
		k := keyOnShard(stores[0], i, fmt.Sprintf("direct-s%d", i))
		if err := direct.Put(ctx, k, []byte("d")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i, svc := range svcs {
		if f := svc.Stats().Forwarded; f != 0 {
			t.Fatalf("node %d forwarded %d requests despite correct client ring", i, f)
		}
	}

	// Stale ring (wrong shard count): misroutes are forwarded, not
	// errored, and the operations still land.
	stale, err := Dial(ext, "direct", DialOptions{Node: 0, Shards: shards + 2})
	if err != nil {
		t.Fatalf("Dial stale: %v", err)
	}
	defer stale.Close()
	var forwardedBefore uint64
	for _, svc := range svcs {
		forwardedBefore += svc.Stats().Forwarded
	}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("stale-%d", i)
		if err := stale.Put(ctx, k, []byte("s")); err != nil {
			t.Fatalf("stale Put %s: %v", k, err)
		}
		if v, ok, err := stale.Get(ctx, k); err != nil || !ok || string(v) != "s" {
			t.Fatalf("stale Get %s = %q %v %v", k, v, ok, err)
		}
	}
	var forwardedAfter uint64
	for _, svc := range svcs {
		forwardedAfter += svc.Stats().Forwarded
	}
	if forwardedAfter == forwardedBefore {
		t.Fatal("stale-ring client triggered no forwards (all routes accidentally correct?)")
	}
}

// TestServiceCloseIsPrompt: Close waits for the routing watcher, and the
// watcher waits on events — a change, the store's end, Close itself — not on
// a timer it has to sit out (it used to poll once a second, and Close took
// most of one).
func TestServiceCloseIsPrompt(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "closeprompt", 2, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	for i, svc := range startServices(t, stores) {
		t0 := time.Now()
		svc.Close()
		if took := time.Since(t0); took > 100*time.Millisecond {
			t.Errorf("closing node %d's service took %v, want under 100ms", i, took)
		}
	}
}

// TestServiceRequestEndsAtBudget: a proxied request carries its caller's
// remaining budget across the RPC hop, and the budget ends the work it
// started at the serving node, not a server default. A Put held behind a
// prepare lock that never resolves gets its error at the caller's deadline,
// and the service's handler gives up at about the same moment.
func TestServiceRequestEndsAtBudget(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "budget", 2, Options{Shards: 2, TxnRecoveryAfter: time.Minute})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	svcs := startServices(t, stores)
	local := stores[0].NewClient()
	defer local.Close()
	const key = "locked"
	prep, err := local.Do(ctx, &Request{Op: ReqTxnPrepare, HomeKey: key, AllKeys: []string{key},
		Writes: []TxnWrite{{Key: key, Val: []byte("t")}}})
	if err != nil || !prep.OK || prep.TxnState != txnStatePrepared {
		t.Fatalf("prepare = %+v, %v", prep, err)
	}

	ext, err := net.NewKernel("budget-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	cl, err := Dial(ext, "budget", DialOptions{Node: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	errorsBefore := svcs[0].Stats().Errors

	const budget, slack = 200 * time.Millisecond, 300 * time.Millisecond
	pctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	t0 := time.Now()
	if err := cl.Put(pctx, key, []byte("p")); err == nil {
		t.Fatal("a Put behind a prepare lock that never resolves succeeded")
	}
	if took := time.Since(t0); took > budget+slack {
		t.Errorf("the caller got its error after %v, want about %v", took, budget)
	}
	for svcs[0].Stats().Errors == errorsBefore {
		if took := time.Since(t0); took > budget+slack {
			t.Fatalf("the service's handler still runs %v after a request with a %v budget arrived", took, budget)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("handler returned %v after the request was sent with a %v budget", time.Since(t0), budget)
}
