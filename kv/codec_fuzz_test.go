package kv

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// commandSeeds is one output of every shard-command encoder in codec.go.
func commandSeeds() [][]byte {
	rt := Routing{Epoch: 3, Shards: 8, VNodes: 64}
	pairs := []Pair{{Key: "alpha", Val: []byte("one")}, {Key: "beta", Val: nil}, {Key: "", Val: bytes.Repeat([]byte{7}, 200)}}
	writes := []TxnWrite{{Key: "w", Val: []byte("v")}, {Key: "gone", Delete: true}}
	conds := []TxnCond{{Key: "c", ExpectPresent: true, Expect: []byte("e")}, {Key: "absent"}}
	chunk := &importChunk{
		Pairs:   pairs,
		Results: []importResult{{ID: 11, OK: true, Key: "alpha"}, {ID: 12, Key: "beta"}},
		Txns: []*txnPortion{{TxnID: 21, HomeKey: "w", AllKeys: []string{"r", "w"}, State: txnStatePrepared,
			Reads: []string{"r"}, Writes: writes, Conds: conds, Values: [][]byte{[]byte("x")}, Found: []bool{true}}},
	}
	return [][]byte{
		encodePut(1, "key", []byte("value")),
		encodeDelete(2, "key"),
		encodeCAS(3, "key", true, []byte("old"), []byte("new")),
		encodeGet(4, []string{"a", "bb", ""}),
		encodeMigrate(opMigrateBegin, 5, rt),
		encodeMigrate(opMigrateCommit, 6, rt),
		encodeMigrate(opMigrateAbort, 7, rt),
		encodeMigrateImport(8, rt, chunk),
		encodeTxnPrepare(9, 21, "w", []string{"r", "w"}, []string{"r"}, writes, conds),
		encodeTxnResolve(10, 21, true, "w", []string{"r", "w"}),
		encodeAudit(13, 16),
		encodeBatchPut([]uint64{14, 15, 16}, pairs),
	}
}

// allocatedBy reports the heap bytes f allocates. The count is the whole
// process's, so a straggler goroutine of an earlier test can add to it: the
// least of three readings is taken before a bound is called broken.
func allocatedBy(bound uint64, f func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3 && least > bound; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeCommand holds decodeCommand — which every replica runs on every
// delivered payload, whoever sent it — to three properties on arbitrary
// bytes: it never panics; no count field makes it allocate more than a fixed
// multiple of the input's length (the worst honest case is about 80×, a
// migrated transaction portion's JSON; a count believed without a bound is
// millions); and a batch put it accepts is one the encoder produces — it
// re-encodes to the same command, byte for byte when the input's varints are
// minimal, so there is no second spelling for replicas to disagree on.
func FuzzDecodeCommand(f *testing.F) {
	for _, seed := range commandSeeds() {
		if _, err := decodeCommand(seed); err != nil {
			f.Fatalf("seed % x does not decode: %v", seed, err)
		}
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var c command
		var err error
		bound := 128*uint64(len(b)) + 4096
		if got := allocatedBy(bound, func() { c, err = decodeCommand(b) }); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil || c.op != opBatchPut {
			return
		}
		again := encodeBatchPut(c.ids, c.pairs)
		if len(again) > len(b) {
			t.Fatalf("a %d-byte batch re-encodes to %d bytes: the encoder is not minimal", len(b), len(again))
		}
		if len(again) == len(b) && !bytes.Equal(again, b) {
			t.Fatalf("batch re-encodes differently:\n in  % x\n out % x", b, again)
		}
		c2, err := decodeCommand(again)
		if err != nil || !reflect.DeepEqual(c, c2) {
			t.Fatalf("re-encoded batch decodes to %+v, %v; want %+v", c2, err, c)
		}
	})
}
