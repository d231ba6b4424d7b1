package kv

import (
	"encoding/binary"
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
// pins their digests; tombstoneSnapshotSeeds adds the other tombstones.
func snapshotSeeds(t testing.TB) [][]byte {
	rt := Routing{Shards: 1, VNodes: 8}
	full := newMapSM("snap", 0, rt, 64, nil)
	for _, cmd := range [][]byte{
		encodePut(1, "alpha", []byte("one")),
		encodeBatchPut([]uint64{2, 3, 4}, []Pair{{Key: "beta"}, {Key: "", Val: []byte{7, 7}}, {Key: "gamma", Val: []byte("g")}}),
		encodeDelete(5, "gamma"),
		encodeCAS(6, "alpha", true, []byte("one"), []byte("uno")),
		encodeTxnPrepare(7, 70, "alpha", []string{"alpha", "beta", "delta"}, []string{"alpha"},
			[]TxnWrite{{Key: "beta", Val: []byte("b")}, {Key: "delta", Delete: true}}, []TxnCond{{Key: "beta", ExpectPresent: true}}),
		encodeTxnPrepare(8, 80, "omega", []string{"omega"}, []string{"omega"}, []TxnWrite{{Key: "omega", Val: []byte("o")}}, nil),
		encodeTxnResolve(9, 80, true, "omega", []string{"omega"}),
		encodeMigrate(opMigrateBegin, 10, Routing{Epoch: 1, Shards: 2, VNodes: 8}),
	} {
		full.Apply(cmd)
	}
	var out [][]byte
	for _, sm := range []*mapSM{newMapSM("snap", 0, rt, 64, nil), newMapSM("snap", 0, Routing{}, 16, nil), full} {
		snap, err := sm.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		out = append(out, snap)
	}
	return out
}

// tombstoneSnapshotSeeds are snapshots of shards holding every kind of
// tombstone record beside a prepared portion: one built by applying
// transactions (a committed one with its reads, an aborted one whose reads it
// drops, and a presumed-abort fence), and resolvedCheckpoint, which an earlier
// build wrote with an aborted portion that kept its reads.
func tombstoneSnapshotSeeds(t testing.TB) [][]byte {
	sm := newMapSM("snap", 0, Routing{Shards: 1, VNodes: 8}, 64, nil)
	for _, cmd := range [][]byte{
		encodePut(1, "alpha", []byte("one")),
		encodeTxnPrepare(2, 20, "alpha", []string{"alpha", "beta"}, []string{"alpha"},
			[]TxnWrite{{Key: "beta", Val: []byte("b")}}, []TxnCond{{Key: "beta"}}),
		encodeTxnPrepare(3, 30, "gamma", []string{"gamma", "kappa"}, []string{"gamma", "kappa"}, []TxnWrite{{Key: "gamma", Val: []byte("g")}}, nil),
		encodeTxnResolve(4, 30, true, "gamma", []string{"gamma", "kappa"}),
		encodeTxnPrepare(5, 40, "delta", []string{"delta", "omega"}, []string{"delta", "omega"}, nil, nil),
		encodeTxnResolve(6, 40, false, "delta", []string{"delta", "omega"}),
		encodeTxnResolve(7, 50, false, "sigma", []string{"sigma"}),
	} {
		sm.Apply(cmd)
	}
	snap, err := sm.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return [][]byte{snap, resolvedCheckpoint()}
}

// FuzzRestoreSnapshot holds the snapshot decoder — which a joiner runs on a
// transfer reply from whoever answers at a well-known address, and recovery on
// a checkpoint file — to three properties on arbitrary bytes: it never panics;
// no claimed count makes it allocate more than a fixed multiple of the input's
// length (the worst honest case is about 24x: a slice header per one-byte
// value); and a state it restores snapshots and restores again to the same
// StateDigest, so a checkpoint of it would verify.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, seed := range append(snapshotSeeds(f), tombstoneSnapshotSeeds(f)...) {
		if _, err := decodeSnapshot(seed); err != nil {
			f.Fatalf("seed % x does not decode: %v", seed, err)
		}
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
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
		first := newMapSM("snap", 0, rt, 64, nil)
		if err := first.Restore(b); err != nil {
			t.Fatalf("decodes but does not restore: %v", err)
		}
		again, err := first.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of a restored state: %v", err)
		}
		second := newMapSM("snap", 0, rt, 64, nil)
		if err := second.Restore(again); err != nil {
			t.Fatalf("the re-snapshot does not restore: %v", err)
		}
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
	if err := log.CheckpointDigest(5, 0xfeed, []byte(old)); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	log.Close()

	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k, err := net.NewKernel("old-build")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	sm := newMapSM("old", 0, Routing{Shards: 1, VNodes: 8}, 64, nil)
	r, err := shared.Open(ctxT(t, 10*time.Second), k, shardGroupName("old", 0), sm, amoeba.GroupOptions{}, shared.Durability{Dir: dir})
	if err == nil {
		r.Close()
		t.Fatalf("a JSON checkpoint recovered, to %d items", len(sm.items))
	}
	if !strings.Contains(err.Error(), "snapshot is JSON") {
		t.Fatalf("recovering a JSON checkpoint failed without naming the format: %v", err)
	}
}

// resolvedCheckpoint spells, field by field in snapshot version 1, a shard as
// a build that kept every resolved portion whole would checkpoint it: two
// items, two results (a put's and a prepare's captured read), the bootstrap
// table, and four transaction portions — one prepared (locks, a held-back
// write and delete, a condition), one committed with its captured reads, one
// aborted that still carries its reads, and a presumed-abort fence — with the
// three resolved ones queued for eviction.
func resolvedCheckpoint() []byte {
	dst := []byte{snapshotVersion}
	dst = binary.AppendUvarint(dst, 2)
	dst = appendBytes(appendBytes(dst, []byte("a")), []byte("va"))
	dst = appendBytes(appendBytes(dst, []byte("h")), []byte("vh"))
	dst = binary.AppendUvarint(dst, 64)
	dst = binary.AppendUvarint(dst, 2)
	dst = appendResult(dst, 5, &result{OK: true, Key: "a"})
	dst = appendResult(dst, 6, &result{OK: true, TxnState: txnStateCommitted, Values: [][]byte{[]byte("vd"), nil}, Found: []bool{true, false}})
	dst = appendOptRouting(dst, &Routing{Shards: 1, VNodes: 8})
	dst = appendOptRouting(dst, nil)
	portions := []*txnPortion{
		{TxnID: 10, State: txnStatePrepared, HomeKey: "a", AllKeys: []string{"a", "b", "c"},
			Reads: []string{"a"}, Values: [][]byte{[]byte("va")}, Found: []bool{true},
			Writes: []TxnWrite{{Key: "b", Val: []byte("vb")}, {Key: "c", Delete: true}},
			Conds:  []TxnCond{{Key: "b", ExpectPresent: true, Expect: []byte("old")}}},
		{TxnID: 11, State: txnStateCommitted, HomeKey: "d", AllKeys: []string{"d", "e"},
			Reads: []string{"d", "e"}, Values: [][]byte{[]byte("vd"), nil}, Found: []bool{true, false}},
		{TxnID: 12, State: txnStateAborted, HomeKey: "f", AllKeys: []string{"f", "g"},
			Reads: []string{"f", "g"}, Values: [][]byte{[]byte("vf"), []byte("vg")}, Found: []bool{true, true}},
		{TxnID: 13, State: txnStateAborted, HomeKey: "h", AllKeys: []string{"h"}},
	}
	dst = binary.AppendUvarint(dst, uint64(len(portions)))
	for _, p := range portions {
		dst = appendPortion(dst, p)
	}
	dst = binary.AppendUvarint(dst, 3)
	for _, id := range []uint64{11, 12, 13} {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst
}

// resolvedCheckpointDigest is resolvedCheckpoint's StateDigest as the build
// before tombstone records computed it, when every portion was a *txnPortion
// and the digest folded its fields.
const resolvedCheckpointDigest = 0x3c5504f7ac88ffc2

// TestResolvedCheckpointFromEarlierBuildVerifies holds the snapshot format and
// the digest to what they were before resolved portions became records: a
// checkpoint carrying resolved portions with their reads, written and stamped
// by that build, must recover through the log's verification (a refused stamp
// would recover an empty shard) into the same state, digest to the same
// value again after its own snapshot, and re-answer from its tombstones.
func TestResolvedCheckpointFromEarlierBuildVerifies(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := log.CheckpointDigest(5, resolvedCheckpointDigest, resolvedCheckpoint()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	log.Close()

	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k, err := net.NewKernel("earlier-build")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	rt := Routing{Shards: 1, VNodes: 8}
	sm := newMapSM("old", 0, rt, 64, nil)
	r, err := shared.Open(ctxT(t, 10*time.Second), k, shardGroupName("old", 0), sm, amoeba.GroupOptions{}, shared.Durability{Dir: dir})
	if err != nil {
		t.Fatalf("recovering the checkpoint: %v", err)
	}
	var snap []byte
	r.Read(func(shared.StateMachine) {
		if got := sm.StateDigest(); got != resolvedCheckpointDigest {
			t.Errorf("recovered state digests to %#x, stamped %#x", got, resolvedCheckpointDigest)
		}
		if len(sm.items) != 2 || len(sm.txns) != 1 || len(sm.tombs) != 3 || len(sm.locks) != 3 {
			t.Errorf("recovered %d items, %d prepared portions, %d tombstones, %d locks; want 2, 1, 3, 3",
				len(sm.items), len(sm.txns), len(sm.tombs), len(sm.locks))
		}
		snap, err = sm.Snapshot()
	})
	r.Close()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	again := newMapSM("old", 0, rt, 64, nil)
	if err := again.Restore(snap); err != nil {
		t.Fatalf("Restore of the re-snapshot: %v", err)
	}
	if got := again.StateDigest(); got != resolvedCheckpointDigest {
		t.Fatalf("re-snapshot digests to %#x, want %#x", got, resolvedCheckpointDigest)
	}

	// The tombstones answer as the portions did.
	w := newAnswerWaiter()
	ask := func(id uint64, cmd []byte) result {
		again.expect(w, []uint64{id})
		again.Apply(cmd)
		if w.pending != 0 {
			t.Fatalf("command %d unanswered", id)
		}
		<-w.done
		return w.first
	}
	if res := ask(20, encodeTxnPrepare(20, 11, "d", []string{"d", "e"}, []string{"e", "d"}, nil, nil)); res.TxnState != txnStateCommitted ||
		!res.OK || len(res.Values) != 2 || res.Values[0] != nil || string(res.Values[1]) != "vd" || res.Found[0] || !res.Found[1] {
		t.Fatalf("re-driven prepare of the committed transaction = %+v, want its captured reads", res)
	}
	if res := ask(21, encodeTxnResolve(21, 12, true, "f", []string{"f", "g"})); res.TxnState != txnStateAborted || res.OK {
		t.Fatalf("commit of the aborted transaction = %+v, want aborted", res)
	}
	if res := ask(22, encodeTxnPrepare(22, 13, "h", []string{"h"}, nil, []TxnWrite{{Key: "h", Val: []byte("x")}}, nil)); res.TxnState != txnStateAborted {
		t.Fatalf("prepare behind the fence = %+v, want aborted", res)
	}
	if _, locked := again.locks["h"]; locked {
		t.Fatal("a prepare behind the fence locked its key")
	}
}
