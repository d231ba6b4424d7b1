package kv

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
)

// dumpOnFailure logs a flight recorder's ring if t fails, so a failure
// carries its postmortem.
func dumpOnFailure(t *testing.T, r *obs.Recorder) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("%s", r.Format())
		}
	})
}

// spanEvents flattens a merged trace to its event strings, in time order.
func spanEvents(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Event
	}
	return out
}

// firstIndexContaining returns the index of the first event containing
// substr, or -1.
func firstIndexContaining(events []string, substr string) int {
	for i, e := range events {
		if strings.Contains(e, substr) {
			return i
		}
	}
	return -1
}

// lastIndexContaining returns the index of the last event containing
// substr, or -1.
func lastIndexContaining(events []string, substr string) int {
	for i := len(events) - 1; i >= 0; i-- {
		if strings.Contains(events[i], substr) {
			return i
		}
	}
	return -1
}

// countContaining returns how many events contain substr.
func countContaining(events []string, substr string) int {
	n := 0
	for _, e := range events {
		if strings.Contains(e, substr) {
			n++
		}
	}
	return n
}

// TestTraceReassemblyAcrossForwardHop drives an operation through the
// proxied access path — a Dial'd client holding one node's address, whose
// entry node does not host the key's shard — and reassembles the op's
// timeline from two independent tracers: the client machine's hub and the
// cluster's hub. The merged trace must show the whole hop: submitted at the
// client, forwarded by the entry node's service, applied by the owning
// shard, replied at the client.
func TestTraceReassemblyAcrossForwardHop(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()

	clusterHub := obs.NewHub(obs.Options{Node: "cluster", TraceMod: 1})
	dumpOnFailure(t, clusterHub.Flight())
	const nodes, shards = 3, 4
	stores := newCluster(t, ctx, net, "tracefwd", nodes, Options{
		Shards:      shards,
		Replication: 1, // every shard on exactly one node: most ops must proxy
		Group:       amoeba.GroupOptions{Obs: clusterHub},
	})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	startServices(t, stores)

	// The client lives on its own kernel with its own hub: reassembly has
	// to merge spans across genuinely separate tracers.
	ext, err := net.NewKernel("tracefwd-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	clientHub := obs.NewHub(obs.Options{Node: "ext", TraceMod: 1})
	cl, err := Dial(ext, "tracefwd", DialOptions{Node: 0, Obs: clientHub})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// One key per shard: with replication 1 across 3 nodes, at least one
	// shard is not hosted by the entry node, so at least one Put is
	// answered with a ForwardRequest.
	for i := 0; i < shards; i++ {
		k := keyOnShard(stores[0], i, fmt.Sprintf("fwd-s%d", i))
		if err := cl.Put(ctx, k, []byte("v")); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}

	// Reassemble every sampled op across both hubs and find a forwarded
	// one with the full pipeline visible.
	var found bool
	for _, id := range clientHub.Tracer().IDs() {
		spans := obs.MergeTraces(id, clientHub.Tracer(), clusterHub.Tracer())
		events := spanEvents(spans)
		fwd := firstIndexContaining(events, "forwarded to shard")
		if fwd < 0 {
			continue
		}
		found = true
		sub := firstIndexContaining(events, "submitted")
		app := firstIndexContaining(events, "applied@seq")
		rep := firstIndexContaining(events, "replied")
		if sub < 0 || app < 0 || rep < 0 {
			t.Fatalf("trace %d missing pipeline stages:\n%s", id, obs.FormatTrace(id, spans))
		}
		if !(sub < fwd && fwd < app && app < rep) {
			t.Fatalf("trace %d stages out of order (submitted=%d forwarded=%d applied=%d replied=%d):\n%s",
				id, sub, fwd, app, rep, obs.FormatTrace(id, spans))
		}
		nodesSeen := map[string]bool{}
		for _, s := range spans {
			nodesSeen[s.Node] = true
		}
		if !nodesSeen["ext"] || !nodesSeen["cluster"] {
			t.Fatalf("trace %d not reassembled across hubs (nodes %v):\n%s",
				id, nodesSeen, obs.FormatTrace(id, spans))
		}
		rendered := obs.FormatTrace(id, spans)
		if !strings.Contains(rendered, fmt.Sprintf("trace %d", id)) || !strings.Contains(rendered, "ext") {
			t.Fatalf("FormatTrace rendering incomplete:\n%s", rendered)
		}
	}
	if !found {
		t.Fatal("no operation was forwarded: every shard landed on the entry node?")
	}
}

// TestTraceReassemblyAcrossMovedRetry freezes the moving key ranges with a
// manual migrate-begin (the first phase of a reshard), issues a Put against
// a frozen key — which bounces with Moved and waits — holds the freeze for
// 300 ms, then lets the reshard complete. The op's trace must show the whole
// story under one command id: submitted, bounced at the frozen shard,
// applied after the flip, replied; and however long the freeze lasted, the
// op is re-driven only by the handoff's own events.
func TestTraceReassemblyAcrossMovedRetry(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()

	hub := obs.NewHub(obs.Options{Node: "moved", TraceMod: 1})
	dumpOnFailure(t, hub.Flight())
	stores := newCluster(t, ctx, net, "tracemoved", 2, Options{
		Shards: 4,
		Group:  amoeba.GroupOptions{Obs: hub},
	})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()

	// A key whose owner changes under the 4→2 merge: its range freezes at
	// migrate-begin and thaws, at the new owner, only at commit.
	cur := stores[0].Routing()
	target := Routing{Epoch: cur.Epoch + 1, Shards: 2, VNodes: cur.VNodes}
	next := target.ring("tracemoved")
	var moving string
	for i := 0; moving == ""; i++ {
		k := fmt.Sprintf("mv-%04d", i)
		if stores[0].ShardFor(k) != next.shard(k) {
			moving = k
		}
	}

	// Phase 1 only: freeze every old shard's moving ranges, commit later.
	for i := 0; i < cur.Shards; i++ {
		if err := stores[0].migrate(ctx, i, opMigrateBegin, target, nil); err != nil {
			t.Fatalf("migrate-begin on shard %d: %v", i, err)
		}
	}

	// The Put lands on the frozen range: it must bounce with Moved and
	// keep retrying under the same command id until the flip.
	done := make(chan error, 1)
	held := time.Now()
	go func() { done <- cl.Put(ctx, moving, []byte("travelled")) }()
	time.Sleep(300 * time.Millisecond) // let it bounce, then sit out the freeze

	// Complete the interrupted handoff (Resharding resumes the pending
	// epoch: stream, then commit).
	if err := stores[0].Resharding(ctx, 2); err != nil {
		t.Fatalf("Resharding: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Put across the freeze: %v", err)
	}
	freeze := time.Since(held)
	waitShards(t, stores[0], 2, 10*time.Second)
	// No storm, and no timer: after its first bounce the op is re-driven
	// only when the node's change channel fires, at most once per routing
	// change the handoff applies on the node — a begin and a commit per old
	// shard — whatever the freeze's length.
	limit := 1 + 2*cur.Shards

	var found bool
	for _, id := range hub.Tracer().IDs() {
		spans := hub.Tracer().Trace(id)
		events := spanEvents(spans)
		mv := lastIndexContaining(events, "retrying")
		if mv < 0 {
			continue
		}
		found = true
		if moved := countContaining(events, "moved"); moved > limit {
			t.Errorf("trace %d: %d re-drives in a %v freeze, want at most %d:\n%s",
				id, moved, freeze, limit, obs.FormatTrace(id, spans))
		}
		// The frozen shard traces its apply too (it executes the command
		// and answers Moved), so require an apply AFTER the final bounce —
		// the one at the new owner — followed by the reply. Both nodes
		// trace into this one hub and only the client's own replica is
		// known to apply before the reply, so it is the first such apply
		// that counts: the other node's may land on either side of it.
		sub := firstIndexContaining(events, "submitted")
		app := firstIndexContaining(events[mv+1:], "applied@seq")
		if app >= 0 {
			app += mv + 1
		}
		rep := lastIndexContaining(events, "replied")
		if sub < 0 || app < 0 || rep < 0 || !(sub < mv && mv < app && app < rep) {
			t.Fatalf("trace %d missing or misordered Moved-retry stages:\n%s",
				id, obs.FormatTrace(id, spans))
		}
	}
	if !found {
		t.Fatal("no trace recorded a Moved bounce despite the frozen range")
	}
	if v, ok, err := cl.Get(ctx, moving); err != nil || !ok || string(v) != "travelled" {
		t.Fatalf("Get %q after flip = %q %v %v", moving, v, ok, err)
	}
}

// TestTraceBatchPutPairs checks that a pair of a BatchPut is traced end to
// end under its own id, like the lone Put it stands for: submitted at the
// caller, applied on every replica at its command's position, replied.
func TestTraceBatchPutPairs(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()

	hub := obs.NewHub(obs.Options{Node: "batch", TraceMod: 1})
	dumpOnFailure(t, hub.Flight())
	stores := newCluster(t, ctx, net, "tracebatch", 2, Options{Shards: 2, Group: amoeba.GroupOptions{Obs: hub}})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()

	pairs := make([]Pair, 8)
	for i := range pairs {
		pairs[i] = Pair{Key: fmt.Sprintf("pair-%d", i), Val: []byte("v")}
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("BatchPut: %v", err)
	}
	traced := 0
	for _, id := range hub.Tracer().IDs() {
		spans := hub.Tracer().Trace(id)
		events := spanEvents(spans)
		sub := firstIndexContaining(events, "submitted op=batchput key=\"pair-")
		if sub < 0 {
			continue
		}
		traced++
		// Only the caller's own replica is known to apply before the reply.
		app := firstIndexContaining(events, "applied@seq")
		rep := lastIndexContaining(events, "replied")
		if !(sub < app && app < rep) {
			t.Errorf("trace %d missing or misordered stages (submitted=%d applied=%d replied=%d):\n%s",
				id, sub, app, rep, obs.FormatTrace(id, spans))
		}
	}
	if traced != len(pairs) {
		t.Errorf("%d of %d pairs have a caller-side trace", traced, len(pairs))
	}
}
