package kv

import (
	"context"
	"fmt"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
)

// TestDigestDeterministicAcrossSnapshotRestore: a replica restored from a
// snapshot must digest identically to the one that took it — otherwise every
// state transfer would flag a false divergence, and checkpoint verification
// would refuse every valid checkpoint. The state carries every kind of
// transaction portion: a prepared one (a live portion), and as tombstone
// records a committed one with its reads, an aborted one that had reads, and
// a presumed-abort fence.
func TestDigestDeterministicAcrossSnapshotRestore(t *testing.T) {
	rt := Routing{Epoch: 0, Shards: 1, VNodes: 8}
	a := newMapSM("dig", 0, rt, nil)
	for i := 0; i < 50; i++ {
		a.Apply(encodePut(at(uint64(1000+i)), fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))))
	}
	a.Apply(encodeDelete(at(2000), "key-3"))
	a.Apply(encodeGet(at(2001), []string{"key-1", "missing"}))
	a.Apply(encodeCAS(at(2002), "key-5", true, []byte("val-5"), []byte("swapped")))
	for _, cmd := range [][]byte{
		encodeTxnPrepare(at(30), 0, "key-10", []string{"key-10", "key-11", "key-12"}, []string{"key-10"},
			[]TxnWrite{{Key: "key-11", Val: []byte("t")}, {Key: "key-12", Delete: true}}, []TxnCond{{Key: "key-11", ExpectPresent: true, Expect: []byte("val-11")}}),
		encodeTxnPrepare(at(31), 0, "key-20", []string{"key-20", "key-21"}, []string{"key-20", "key-21"}, []TxnWrite{{Key: "key-21", Val: []byte("c")}}, nil),
		encodeTxnResolve(at(31), 0, true, "key-20", []string{"key-20", "key-21"}),
		encodeTxnPrepare(at(32), 0, "key-30", []string{"key-30", "key-31"}, []string{"key-30", "key-31"}, nil, nil),
		encodeTxnResolve(at(32), 0, false, "key-30", []string{"key-30", "key-31"}),
		encodeTxnResolve(at(33), 0, false, "key-40", []string{"key-40"}),
	} {
		a.Apply(cmd)
	}
	if len(a.txns) != 1 || records(a) != 3 {
		t.Fatalf("%d prepared portions and %d records, want 1 and 3", len(a.txns), records(a))
	}

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	b := newMapSM("dig", 0, rt, nil)
	if err := b.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	da, db := a.digestState(defaultAuditRanges), b.digestState(defaultAuditRanges)
	if da.Sum != db.Sum || da.Meta != db.Meta {
		t.Fatalf("digest changed across snapshot/restore: %x/%x vs %x/%x",
			da.Sum, da.Meta, db.Sum, db.Meta)
	}
	for i := range da.Ranges {
		if da.Ranges[i] != db.Ranges[i] {
			t.Fatalf("range %d differs: %x vs %x", i, da.Ranges[i], db.Ranges[i])
		}
	}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("StateDigest differs across snapshot/restore")
	}
	if len(b.txns) != 1 || records(b) != 3 || len(b.locks) != 3 {
		t.Fatalf("restored %d prepared portions, %d records and %d locks, want 1, 3 and 3", len(b.txns), records(b), len(b.locks))
	}

	// And the digest actually discriminates: flip one value byte.
	b.items["key-7"] = []byte("vAl-7")
	if a.digestState(defaultAuditRanges).Sum == b.digestState(defaultAuditRanges).Sum {
		t.Fatal("digest blind to a value mutation")
	}
}

// TestAuditDetectsPlantedDivergence is the tentpole regression: plant one
// item on one replica — silent state corruption replication cannot catch,
// because the replica still answers protocol messages correctly — and the
// periodic sequenced audit must flag it, localized to the right shard and
// key-range, with the flight recorder dumped at detection.
func TestAuditDetectsPlantedDivergence(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "audit-test"})
	const period = 50 * time.Millisecond
	stores := newCluster(t, ctx, net, "aud", 3, Options{
		Shards:     2,
		AuditEvery: period,
		Group:      amoeba.GroupOptions{Obs: hub},
	})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	for i := 0; i < 64; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("k-%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	// A clean cluster audits to ok first.
	aud := hub.Health()
	deadline := time.Now().Add(20 * period)
	for aud.Rollup("kv/aud/") != obs.VerdictOK {
		if time.Now().After(deadline) {
			t.Fatalf("clean cluster never audited ok: %s", aud.Summary("kv/aud/"))
		}
		time.Sleep(period / 5)
	}

	// Plant the corruption on a non-submitting replica of shard 1.
	const shard = 1
	key, ok := stores[1].CorruptShard(shard)
	if !ok {
		t.Fatal("CorruptShard found nothing to damage")
	}
	planted := time.Now()

	for aud.Rollup("kv/aud/") != obs.VerdictDiverged {
		if time.Now().After(planted.Add(40 * period)) {
			t.Fatalf("planted corruption never detected: %s", aud.Summary("kv/aud/"))
		}
		time.Sleep(period / 5)
	}
	detected := time.Since(planted)

	divs := aud.Divergences()
	if len(divs) == 0 {
		t.Fatal("diverged verdict with no divergence record")
	}
	div := divs[0]
	if div.Scope != auditScope("aud", shard) {
		t.Fatalf("divergence localized to %q, want %q", div.Scope, auditScope("aud", shard))
	}
	if div.Seq == 0 || div.ID == 0 {
		t.Fatalf("divergence missing order position: seq=%d id=%d", div.Seq, div.ID)
	}
	wantRange := int(fnvStr(fnvOffset64, key) % defaultAuditRanges)
	foundRange := false
	for _, r := range div.Ranges {
		if r == wantRange {
			foundRange = true
		}
	}
	if !foundRange {
		t.Fatalf("divergence ranges %v do not include corrupted key %q's range %d",
			div.Ranges, key, wantRange)
	}
	if div.FlightDump == "" {
		t.Fatal("divergence did not capture a flight-recorder dump")
	}
	if len(div.Nodes) < 2 {
		t.Fatalf("divergence names %v, want the disagreeing replicas", div.Nodes)
	}
	// Detection rode the periodic audit, not some slow scan: well within a
	// handful of periods (one period nominal; slack for scheduling).
	if detected > 30*period {
		t.Fatalf("detection took %v, want within a few %v audit periods", detected, period)
	}

	// The healthy shard's scope must NOT be flagged.
	for _, sh := range aud.Snapshot("kv/aud/") {
		if sh.Scope == auditScope("aud", 1-shard) && sh.Verdict == obs.VerdictDiverged {
			t.Fatalf("healthy shard flagged diverged: %+v", sh)
		}
	}
}

// TestAuditNowForcesComparison: with no periodic driver configured,
// AuditNow still runs one sequenced audit per hosted shard and the auditor
// reaches a verdict.
func TestAuditNowForcesComparison(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "auditnow-test"})
	stores := newCluster(t, ctx, net, "anow", 2, Options{
		Shards: 2,
		Group:  amoeba.GroupOptions{Obs: hub},
	})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	for i := 0; i < 16; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("n-%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := stores[0].AuditNow(ctx); err != nil {
		t.Fatalf("AuditNow: %v", err)
	}
	aud := hub.Health()
	// Both replicas of each shard applied the same sequenced audit; the
	// remote replica's report may trail the submitter's Wait by one apply
	// notification, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for aud.Rollup("kv/anow/") != obs.VerdictOK {
		if time.Now().After(deadline) {
			t.Fatalf("AuditNow never converged to ok: %s", aud.Summary("kv/anow/"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitVerdict polls the auditor until the scopes under prefix roll up to want.
func waitVerdict(t *testing.T, aud *obs.Auditor, prefix, want, phase string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for aud.Rollup(prefix) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: rollup stuck at %q, want %q\n%s", phase, aud.Rollup(prefix), want, aud.Format(prefix))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthDegradesOnSilentNodeAndHealsOnRejoin runs the self-audit loop
// through a node failure: a cluster auditing on a short period rolls up ok,
// degrades when one node is killed without a goodbye (its replicas go silent
// and their audit reports stale out), and returns to ok once the node rejoins
// by state transfer — with no divergence, since every replica is honest.
func TestHealthDegradesOnSilentNodeAndHealsOnRejoin(t *testing.T) {
	ctx := ctxT(t, 120*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "health-test"})
	const (
		period = 100 * time.Millisecond
		nodes  = 3
		prefix = "kv/health/"
	)
	aud := hub.Health()
	aud.SetStaleAfter(6 * period)
	opts := Options{
		Shards:     2,
		AuditEvery: period,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 1,
			Obs:          hub,
		},
	}
	stores := newCluster(t, ctx, net, "health", nodes, opts)
	defer func() { closeAll(stores) }()
	cl := stores[0].NewClient()
	for i := 0; i < 32; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("health-%04d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	cl.Close()

	waitVerdict(t, aud, prefix, obs.VerdictOK, "initial audit")

	// Kill the last node: no Leave, no goodbye.
	const victim = nodes - 1
	stores[victim].Close()
	waitVerdict(t, aud, prefix, obs.VerdictDegraded, "post-kill")

	// Rejoin the same slot on a fresh kernel: state transfer catches the
	// replicas up and their audit reports resume.
	k, err := net.NewKernel("health-node-2-reborn")
	if err != nil {
		t.Fatalf("rejoin kernel: %v", err)
	}
	opts.NodeIndex = victim
	rejoined, err := Join(ctx, k, "health", opts)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	stores[victim] = rejoined
	waitVerdict(t, aud, prefix, obs.VerdictOK, "post-rejoin")

	if divs := aud.Divergences(); len(divs) != 0 {
		t.Fatalf("honest cluster reported divergence: %v", divs[0])
	}
}

// AuditNow submits one audit to every hosted shard and waits for each to
// apply locally, regardless of whether a periodic driver is running, to
// force a fresh comparison. Like any operation
// (Store.finish) it rides out a replica swap: an audit whose replica stops
// under it is re-driven, under the same id, against the replacement the
// self-heal installs, until ctx ends — it does not fail with ErrStopped.
func (s *Store) AuditNow(ctx context.Context) error {
	aud := s.opts.Group.Obs.Health()
	node := auditNodeName(s.opts.NodeIndex)
	for i, r := range s.snapshotShards() {
		if r == nil {
			continue
		}
		if _, err := s.run(ctx, i, opAudit, func(h header) []byte { return encodeAudit(h, defaultAuditRanges) }); err != nil {
			return fmt.Errorf("kv: audit shard %d: %w", i, err)
		}
		aud.Progress(auditScope(s.name, i), node, r.Applied())
	}
	return nil
}
