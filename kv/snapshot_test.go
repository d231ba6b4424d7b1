package kv

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"amoeba"
	"amoeba/shared"
	"amoeba/wal"
)

// snapshotSeeds is a snapshot of every shape a shard takes: empty, built
// without a routing table, and one holding items, a batch's results, a
// prepare's captured reads, a prepared portion (locks, held-back writes and
// conditions), a resolved one, and a pending handoff. TestWireFormatsUnchanged
// pins their digests; recordSnapshotSeeds adds the other records and sessions.
func snapshotSeeds(t testing.TB) [][]byte {
	rt := Routing{Shards: 1, VNodes: 8}
	full := newMapSM("snap", 0, rt, nil)
	for _, cmd := range [][]byte{
		encodePut(at(1), "alpha", []byte("one")),
		encodeBatchPut(at(0), []uint64{2, 3, 4}, []Pair{{Key: "beta"}, {Key: "", Val: []byte{7, 7}}, {Key: "gamma", Val: []byte("g")}}),
		encodeDelete(at(5), "gamma"),
		encodeCAS(at(6), "alpha", true, []byte("one"), []byte("uno")),
		encodeTxnPrepare(at(70), 0, "alpha", []string{"alpha", "beta", "delta"}, []string{"alpha"},
			[]TxnWrite{{Key: "beta", Val: []byte("b")}, {Key: "delta", Delete: true}}, []TxnCond{{Key: "beta", ExpectPresent: true}}),
		encodeTxnPrepare(at(80), 0, "omega", []string{"omega"}, []string{"omega"}, []TxnWrite{{Key: "omega", Val: []byte("o")}}, nil),
		encodeTxnResolve(at(80), 0, true, "omega", []string{"omega"}),
		encodeMigrate(opMigrateBegin, at(10), Routing{Epoch: 1, Shards: 2, VNodes: 8}),
	} {
		full.Apply(cmd)
	}
	var out [][]byte
	for _, sm := range []*mapSM{newMapSM("snap", 0, rt, nil), newMapSM("snap", 0, Routing{}, nil), full} {
		snap, err := sm.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		out = append(out, snap)
	}
	return out
}

// recordSnapshotSeeds are snapshots of shards holding every kind of
// transaction record beside a prepared portion: one built by applying
// transactions (a committed one with its reads, an aborted one whose reads it
// drops, and a presumed-abort fence), and sessionSnapshot's, whose two
// sessions have acknowledged part of what they sent.
func recordSnapshotSeeds(t testing.TB) [][]byte {
	sm := newMapSM("snap", 0, Routing{Shards: 1, VNodes: 8}, nil)
	for _, cmd := range [][]byte{
		encodePut(at(1), "alpha", []byte("one")),
		encodeTxnPrepare(at(20), 0, "alpha", []string{"alpha", "beta"}, []string{"alpha"},
			[]TxnWrite{{Key: "beta", Val: []byte("b")}}, []TxnCond{{Key: "beta"}}),
		encodeTxnPrepare(at(30), 0, "gamma", []string{"gamma", "kappa"}, []string{"gamma", "kappa"}, []TxnWrite{{Key: "gamma", Val: []byte("g")}}, nil),
		encodeTxnResolve(at(30), 0, true, "gamma", []string{"gamma", "kappa"}),
		encodeTxnPrepare(at(40), 0, "delta", []string{"delta", "omega"}, []string{"delta", "omega"}, nil, nil),
		encodeTxnResolve(at(40), 0, false, "delta", []string{"delta", "omega"}),
		encodeTxnResolve(at(50), 0, false, "sigma", []string{"sigma"}),
	} {
		sm.Apply(cmd)
	}
	snap, err := sm.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	session, err := sessionSnapshot().Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	imported, err := importedSnapshot().Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return [][]byte{snap, session, imported}
}

// importedSnapshot is sessionSnapshot's shard after a resharding's import
// landed on it, mid-handoff: pairs, a later clock, the sessions of the source
// (one new here, with an outcome above its ack, and one whose ack is behind
// this shard's), a committed record and a prepared portion of the new one.
func importedSnapshot() *mapSM {
	sm := sessionSnapshot()
	coord := header{session: seedSession + 2, seq: 1}
	rt := Routing{Epoch: 1, Shards: 2, VNodes: 8}
	newcomer := uint64(seedSession) + 3<<36 // born three minutes later
	sm.Apply(encodeMigrate(opMigrateBegin, coord, rt))
	coord.seq++
	sm.Apply(encodeMigrateImport(coord, rt, &importChunk{
		Pairs: []Pair{{Key: "eta", Val: []byte("h")}, {Key: "theta", Val: bytes.Repeat([]byte{'t'}, 40)}},
		Clock: sessionBorn(newcomer),
		Moved: []movedSession{
			{ID: newcomer, Ack: 40, Outcomes: []outcome{{seq: 41, ok: true, key: "eta"}, {seq: 45, key: "iota"}}},
			{ID: seedSession + 1, Ack: 2},
		},
		Txns: []*txnPortion{
			{ID: txnID{session: newcomer, seq: 42}, State: txnStateCommitted, HomeKey: "eta", AllKeys: []string{"eta", "kappa"},
				Reads: []txnRead{{Key: "eta", Val: []byte("h"), Found: true}}},
			{ID: txnID{session: newcomer, seq: 43, attempt: 1}, State: txnStatePrepared, HomeKey: "lambda", AllKeys: []string{"lambda", "theta"},
				Writes: []TxnWrite{{Key: "theta", Val: []byte("new")}}, Conds: []TxnCond{{Key: "lambda"}}},
		},
	}))
	return sm
}

// sessionSnapshot is a shard two sessions born in 2026 have written to: the
// first has acknowledged its first writes and left outcomes above its ack, a
// committed transaction's record with its reads and, for the transaction's
// second attempt, a presumed-abort fence; the second holds a delete's outcome
// and a prepared portion, and has acknowledged a batch whose late copy then
// arrived and was refused.
func sessionSnapshot() *mapSM {
	sm := newMapSM("snap", 0, Routing{Shards: 1, VNodes: 8}, nil)
	a := func(seq, ack uint64) header { return header{session: seedSession, seq: seq, ack: ack} }
	b := func(seq, ack uint64) header { return header{session: seedSession + 1, seq: seq, ack: ack} }
	for _, cmd := range [][]byte{
		encodePut(a(1, 1), "alpha", []byte("one")),
		encodeBatchPut(a(0, 1), []uint64{2, 3, 4}, []Pair{{Key: "beta", Val: []byte("b")}, {Key: "gamma"}, {Key: "delta", Val: []byte("d")}}),
		encodeCAS(a(5, 3), "alpha", true, []byte("one"), []byte("uno")),
		encodeTxnPrepare(a(6, 3), 0, "beta", []string{"beta", "gamma"}, []string{"beta", "gamma"}, []TxnWrite{{Key: "gamma", Val: []byte("g")}}, nil),
		encodeTxnResolve(a(6, 3), 0, true, "beta", []string{"beta", "gamma"}),
		encodeTxnResolve(a(6, 3), 1, false, "beta", []string{"beta", "gamma"}),
		encodeBatchPut(b(0, 1), []uint64{1, 2}, []Pair{{Key: "epsilon", Val: []byte("e")}, {Key: "zeta", Val: []byte("z")}}),
		encodeDelete(b(10, 9), "delta"),
		encodeBatchPut(b(0, 1), []uint64{1, 2}, []Pair{{Key: "epsilon", Val: []byte("late")}, {Key: "zeta", Val: []byte("late")}}),
		encodeTxnPrepare(b(11, 9), 0, "omega", []string{"omega"}, []string{"omega"}, []TxnWrite{{Key: "omega", Val: []byte("o")}}, nil),
		encodeAudit(b(12, 9), 4),
	} {
		sm.Apply(cmd)
	}
	return sm
}

// FuzzRestoreSnapshot holds the snapshot decoder — which a joiner runs on a
// transfer reply from whoever answers at a well-known address, and recovery on
// a checkpoint file — to four properties on arbitrary bytes: it never panics;
// no claimed count makes it allocate more than a fixed multiple of the input's
// length (the worst honest case is about 24x: a slice header per one-byte
// value); a state it restores snapshots and restores again to the same
// StateDigest, so a checkpoint of it would verify; and what a restore derives
// from it — rings, locks, lock stamps — is a fresh derivation's
// (checkDerived). A portion whose read lists differ in length seeds the
// corpus.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, seed := range append(snapshotSeeds(f), recordSnapshotSeeds(f)...) {
		if _, err := decodeSnapshot(seed); err != nil {
			f.Fatalf("seed % x does not decode: %v", seed, err)
		}
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	snaps, _ := readListSeeds()
	for _, seed := range snaps {
		f.Add(seed)
	}
	rt := Routing{Shards: 1, VNodes: 8}
	f.Fuzz(func(t *testing.T, b []byte) {
		var st shardState
		var err error
		bound := 64*uint64(len(b)) + 4096
		if got := allocatedBy(bound, func() { st, err = decodeSnapshot(b) }); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		// A restore builds a ring per table, tens of milliseconds at the most
		// points a snapshot may claim: the round trip would spend the whole
		// run on them, and the digest does not read the rings.
		if err != nil || st.routing != nil && st.routing.points() > 4096 || st.pending != nil && st.pending.points() > 4096 {
			return
		}
		first := newMapSM("snap", 0, rt, nil)
		if err := first.Restore(b); err != nil {
			t.Fatalf("decodes but does not restore: %v", err)
		}
		checkDerived(t, first)
		again, err := first.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of a restored state: %v", err)
		}
		second := newMapSM("snap", 0, rt, nil)
		if err := second.Restore(again); err != nil {
			t.Fatalf("the re-snapshot does not restore: %v", err)
		}
		checkDerived(t, second)
		if d1, d2 := first.StateDigest(), second.StateDigest(); d1 != d2 {
			t.Fatalf("StateDigest %x restored, %x after a second round trip", d1, d2)
		}
	})
}

// TestJSONCheckpointIsRefused opens a replica on a data dir written before
// snapshots were binary: its checkpoint is JSON. Recovery must stop and say
// so, not restore an empty shard and carry on without the data.
func TestJSONCheckpointIsRefused(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	old := `{"items":{"k":"dg=="},"results":[{"id":7,"ok":true,"key":"k"}],"window":64,"routing":{"Epoch":0,"Shards":1,"VNodes":8}}`
	if err := log.Checkpoint(5, 0xfeed, []byte(old)); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	log.Close()

	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k, err := net.NewKernel("old-build")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	sm := newMapSM("old", 0, Routing{Shards: 1, VNodes: 8}, nil)
	r, err := shared.Open(ctxT(t, 10*time.Second), k, shardGroupName("old", 0), sm, amoeba.GroupOptions{}, shared.Durability{Dir: dir})
	if err == nil {
		r.Close()
		t.Fatalf("a JSON checkpoint recovered, to %d items", len(sm.items))
	}
	if !strings.Contains(err.Error(), "snapshot is JSON") {
		t.Fatalf("recovering a JSON checkpoint failed without naming the format: %v", err)
	}
}

// TestVersion1CheckpointIsRefused opens a replica on a data dir written
// before client sessions: its checkpoint is snapshot version 1, whose command
// results carry bare ids no session can claim. Recovery must stop and say so.
func TestVersion1CheckpointIsRefused(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	// Version 1 spelled an empty shard as: no items, a 64-entry window
	// holding no results, no routing table, none pending, no portions, an
	// empty eviction queue.
	if err := log.Checkpoint(5, 0xfeed, []byte{1, 0, 64, 0, 0, 0, 0, 0}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	log.Close()

	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k, err := net.NewKernel("old-build")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	sm := newMapSM("old", 0, Routing{Shards: 1, VNodes: 8}, nil)
	r, err := shared.Open(ctxT(t, 10*time.Second), k, shardGroupName("old", 0), sm, amoeba.GroupOptions{}, shared.Durability{Dir: dir})
	if err == nil {
		r.Close()
		t.Fatal("a version 1 checkpoint recovered")
	}
	if !strings.Contains(err.Error(), "binary version 1") {
		t.Fatalf("recovering a version 1 checkpoint failed without naming the format: %v", err)
	}
}

// TestRestoredRecordsReanswer restores sessionSnapshot and holds its records
// and outcomes to what they answered before the snapshot: a re-driven prepare
// of the committed attempt gets its captured reads, a commit of the fenced
// attempt is refused as aborted, a prepare behind the fence locks nothing, a
// retried write is answered with its outcome, and the batch its session
// acknowledged is stale.
func TestRestoredRecordsReanswer(t *testing.T) {
	snap, err := sessionSnapshot().Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	sm := newMapSM("snap", 0, Routing{Shards: 1, VNodes: 8}, nil)
	if err := sm.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(sm.sessions) != 2 || records(sm) != 2 || len(sm.txns) != 1 || len(sm.locks) != 1 {
		t.Fatalf("restored %d sessions, %d records, %d prepared portions, %d locks; want 2, 2, 1, 1",
			len(sm.sessions), records(sm), len(sm.txns), len(sm.locks))
	}
	w := newAnswerWaiter()
	ask := func(op byte, h header, attempt uint32, cmd []byte) *answerWaiter {
		sm.expect(w, []uint64{waitID(op, h.session, h.seq, attempt)})
		sm.Apply(cmd)
		if w.pending != 0 {
			t.Fatalf("command %+v unanswered", h)
		}
		<-w.done
		return w
	}
	a := header{session: seedSession, seq: 6, ack: 3}
	if res := ask(opTxnPrepare, a, 0, encodeTxnPrepare(a, 0, "beta", []string{"beta", "gamma"}, []string{"gamma", "beta"}, nil, nil)).first; res.TxnState != txnStateCommitted ||
		!res.OK || len(res.Values) != 2 || res.Values[0] != nil || string(res.Values[1]) != "b" || !res.Found[0] || !res.Found[1] {
		t.Fatalf("re-driven prepare of the committed attempt = %+v, want its captured reads", res)
	}
	if res := ask(opTxnResolve, a, 1, encodeTxnResolve(a, 1, true, "beta", []string{"beta", "gamma"})).first; res.TxnState != txnStateAborted || res.OK {
		t.Fatalf("commit of the fenced attempt = %+v, want aborted", res)
	}
	if res := ask(opTxnPrepare, a, 1, encodeTxnPrepare(a, 1, "beta", []string{"beta"}, nil, []TxnWrite{{Key: "beta", Val: []byte("x")}}, nil)).first; res.TxnState != txnStateAborted {
		t.Fatalf("prepare behind the fence = %+v, want aborted", res)
	}
	if _, locked := sm.locks["beta"]; locked {
		t.Fatal("a prepare behind the fence locked its key")
	}
	cas := header{session: seedSession, seq: 5, ack: 3}
	if w := ask(opCAS, cas, 0, encodeCAS(cas, "alpha", true, []byte("one"), []byte("uno"))); !w.first.OK || w.stale {
		t.Fatalf("retried CAS = %+v (stale %v), want its first outcome, a swap", w.first, w.stale)
	}
	late := header{session: seedSession + 1, seq: 1}
	if w := ask(opPut, late, 0, encodePut(late, "epsilon", []byte("later"))); !w.stale || string(sm.items["epsilon"]) != "e" {
		t.Fatalf("a late write its session acknowledged: stale %v, epsilon = %q", w.stale, sm.items["epsilon"])
	}
}
