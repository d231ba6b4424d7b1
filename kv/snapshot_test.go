package kv

import (
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
// conditions), a resolved one, and a pending handoff.
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

// FuzzRestoreSnapshot holds the snapshot decoder — which a joiner runs on a
// transfer reply from whoever answers at a well-known address, and recovery on
// a checkpoint file — to three properties on arbitrary bytes: it never panics;
// no claimed count makes it allocate more than a fixed multiple of the input's
// length (the worst honest case is about 24x: a slice header per one-byte
// value); and a state it restores snapshots and restores again to the same
// StateDigest, so a checkpoint of it would verify.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, seed := range snapshotSeeds(f) {
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
