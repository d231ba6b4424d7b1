package kv

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// testSession is the session the state-machine tests send their commands in:
// born at minute zero, so no clock those tests advance expires it.
const testSession = 0x5e55

// at is a command header of testSession at seq, acknowledging nothing.
func at(seq uint64) header { return header{session: testSession, seq: seq} }

// records counts the transaction records a shard keeps, over its sessions.
func records(sm *mapSM) int {
	n := 0
	for _, st := range sm.sessions {
		n += len(st.records)
	}
	return n
}

// seedSession is the session the codec seeds are spelled in: born in 2026,
// as a client's would be.
const seedSession = 0x1bb3e71c_5e55_1042

// commandSeeds is one output of every shard-command encoder in codec.go, the
// batch put's seqs out of order (the deltas between them are signed), the
// import carrying sessions with outcomes and a transaction portion.
func commandSeeds() [][]byte {
	rt := Routing{Epoch: 3, Shards: 8, VNodes: 64}
	h := func(seq, ack uint64) header { return header{session: seedSession, seq: seq, ack: ack} }
	pairs := []Pair{{Key: "alpha", Val: []byte("one")}, {Key: "beta", Val: nil}, {Key: "", Val: bytes.Repeat([]byte{7}, 200)}}
	writes := []TxnWrite{{Key: "w", Val: []byte("v")}, {Key: "gone", Delete: true}}
	conds := []TxnCond{{Key: "c", ExpectPresent: true, Expect: []byte("e")}, {Key: "absent"}}
	chunk := &importChunk{
		Pairs: pairs,
		Clock: sessionBorn(seedSession),
		Moved: []movedSession{
			{ID: seedSession, Ack: 300, Outcomes: []outcome{{seq: 300, ok: true, key: "alpha"}, {seq: 1000, key: "beta"}}},
			{ID: testSession, Ack: 7},
		},
		Txns: []*txnPortion{{ID: txnID{session: seedSession, seq: 21, attempt: 2}, HomeKey: "w", AllKeys: []string{"r", "w"}, State: txnStatePrepared,
			Reads: []txnRead{{Key: "r", Val: []byte("x"), Found: true}}, Writes: writes, Conds: conds}},
	}
	return [][]byte{
		encodePut(h(1, 1), "key", []byte("value")),
		encodeDelete(h(2, 1), "key"),
		encodeCAS(h(3, 0), "key", true, []byte("old"), []byte("new")),
		encodeGet(h(4, 4), []string{"a", "bb", ""}),
		encodeMigrate(opMigrateBegin, h(5, 5), rt),
		encodeMigrate(opMigrateCommit, h(6, 5), rt),
		encodeMigrate(opMigrateAbort, h(7, 5), rt),
		encodeMigrateImport(h(8, 8), rt, chunk),
		encodeTxnPrepare(h(21, 20), 2, "w", []string{"r", "w"}, []string{"r"}, writes, conds),
		encodeTxnResolve(h(21, 20), 2, true, "w", []string{"r", "w"}),
		encodeAudit(h(13, 9), 16),
		encodeBatchPut(h(0, 14), []uint64{14, 15, 16}, pairs),
		encodeBatchPut(h(0, 200), []uint64{300, 301, 299, 100000, 2}, []Pair{{Key: "a", Val: []byte("1")},
			{Key: "b", Val: []byte("2")}, {Key: "c"}, {Key: "d", Val: bytes.Repeat([]byte{9}, 64)}, {Key: "e", Val: []byte("5")}}),
		encodePut(header{session: ^uint64(0), seq: 1 << 62, ack: 1<<62 - 1}, "far", nil),
	}
}

// legacyImportSeed is commandSeeds' migrate import as journals written before
// transaction portions shared the snapshot's codec hold it: the same record
// with its one portion spelled in JSON.
func legacyImportSeed() []byte {
	rt := Routing{Epoch: 3, Shards: 8, VNodes: 64}
	chunk := &importChunk{
		Pairs: []Pair{{Key: "alpha", Val: []byte("one")}, {Key: "beta", Val: nil}, {Key: "", Val: bytes.Repeat([]byte{7}, 200)}},
		Moved: []movedSession{{ID: seedSession, Ack: 11, Outcomes: []outcome{{seq: 11, ok: true, key: "alpha"}, {seq: 12, key: "beta"}}}},
	}
	b := encodeMigrateImport(header{session: seedSession, seq: 8}, rt, chunk)
	b[len(b)-1] = 1 // the portion count
	return appendBytes(b, []byte(`{"id":21,"home":"w","all":["r","w"],"state":1,"reads":["r"],`+
		`"writes":[{"Key":"w","Val":"dg==","Delete":false},{"Key":"gone","Val":null,"Delete":true}],`+
		`"conds":[{"Key":"c","ExpectPresent":true,"Expect":"ZQ=="},{"Key":"absent","ExpectPresent":false,"Expect":null}],`+
		`"values":["eA=="],"found":[true]}`))
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

// stringsIn collects every string v holds, however deep: the keys and other
// strings of a decoded command or request.
func stringsIn(v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.String:
		out = append(out, v.String())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			out = stringsIn(v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = stringsIn(v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = stringsIn(v.Index(i), out)
		}
	}
	return out
}

// checkStringsOwned is the decoders' aliasing property: a decoded string owns
// its memory, whether it is a copy of its own or shares the message's. It
// decodes a copy of b, overwrites the copy, and wants every string of that
// decode to equal the same string of a decode of b, left as it was.
func checkStringsOwned(t *testing.T, b []byte, decode func([]byte) any) {
	t.Helper()
	in := bytes.Clone(b)
	got := decode(in)
	for i := range in {
		in[i] ^= 0xA5
	}
	have, want := stringsIn(reflect.ValueOf(got), nil), stringsIn(reflect.ValueOf(decode(b)), nil)
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("decoded strings changed with their input: %q, want %q", have, want)
	}
}

// unkept is c as a comparison of what it decoded sees it: an empty array a
// scratch kept is no array.
func unkept(c command) command {
	if len(c.seqs) == 0 {
		c.seqs = nil
	}
	if len(c.pairs) == 0 {
		c.pairs = nil
	}
	if len(c.keys) == 0 {
		c.keys = nil
	}
	return c
}

// FuzzDecodeCommand holds decodeCommand — which every replica runs on every
// delivered payload, whoever sent it — to four properties on arbitrary
// bytes: it never panics; no count field makes it allocate more than a fixed
// multiple of the input's length (the worst honest case is about 24x: a
// migrated transaction portion's slice header per one-byte value, as in a
// snapshot; a count believed without a bound is millions); the strings it
// decodes are untouched by what later becomes of the input
// (checkStringsOwned); and a batch put it accepts is one the encoder produces
// — it re-encodes to the same command, byte for byte when the input's
// varints are minimal, so there is no second spelling for replicas to
// disagree on. Decoded through a scratch that earlier commands have used and
// that was reclaimed after them, as a replica decodes, a command is the one a
// fresh decode gives. A migrate import as journals held it before its
// transaction portions left JSON is refused, and seeds the corpus, as do
// imports of a portion whose read lists differ in length.
func FuzzDecodeCommand(f *testing.F) {
	for _, seed := range commandSeeds() {
		if err := decodeCommand(seed, new(command)); err != nil {
			f.Fatalf("seed % x does not decode: %v", seed, err)
		}
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	legacy := legacyImportSeed()
	if err := decodeCommand(legacy, new(command)); err == nil {
		f.Fatalf("a migrate import with a JSON portion decodes")
	}
	for cut := 0; cut <= len(legacy); cut++ {
		f.Add(legacy[:cut])
	}
	_, imports := readListSeeds()
	for _, seed := range imports {
		f.Add(seed)
	}
	seeds := commandSeeds()
	f.Fuzz(func(t *testing.T, b []byte) {
		var c command
		var err error
		bound := 64*uint64(len(b)) + 4096
		if got := allocatedBy(bound, func() { err = decodeCommand(b, &c) }); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		checkStringsOwned(t, b, func(in []byte) any { var c command; decodeCommand(in, &c); return c })
		var used command
		for _, seed := range seeds {
			decodeCommand(seed, &used)
			used.reclaim()
		}
		if err := decodeCommand(b, &used); err != nil || !reflect.DeepEqual(unkept(c), unkept(used)) {
			t.Fatalf("through a used scratch the command decodes to %+v, %v; want %+v", used, err, c)
		}
		if c.op != opBatchPut {
			return
		}
		again := encodeBatchPut(c.header, c.seqs, c.pairs)
		if len(again) > len(b) {
			t.Fatalf("a %d-byte batch re-encodes to %d bytes: the encoder is not minimal", len(b), len(again))
		}
		if len(again) == len(b) && !bytes.Equal(again, b) {
			t.Fatalf("batch re-encodes differently:\n in  % x\n out % x", b, again)
		}
		var c2 command
		if err := decodeCommand(again, &c2); err != nil || !reflect.DeepEqual(c, c2) {
			t.Fatalf("re-encoded batch decodes to %+v, %v; want %+v", c2, err, c)
		}
	})
}

// requestSeeds is one access-protocol request per op.
func requestSeeds() []*Request {
	pairs := []Pair{{Key: "alpha", Val: []byte("one")}, {Key: "beta"}, {Key: "", Val: bytes.Repeat([]byte{7}, 200)}}
	writes := []TxnWrite{{Key: "w", Val: []byte("v")}, {Key: "gone", Delete: true}}
	conds := []TxnCond{{Key: "c", ExpectPresent: true, Expect: []byte("e")}, {Key: "absent"}}
	all := []string{"absent", "c", "gone", "r", "w"}
	return []*Request{
		{Op: ReqGet, Session: seedSession, ID: 1, Ack: 1, Flags: flagStaleRead, MaxStale: 40e6, Epoch: 3, Keys: []string{"a", "bb", "", "a"}},
		{Op: ReqPut, Session: seedSession, ID: 2, Ack: 1, Budget: 5e9, Key: "key", Val: []byte("value")},
		{Op: ReqDelete, Session: seedSession, ID: 3, Ack: 3, Key: "key"},
		{Op: ReqCAS, Session: seedSession, ID: 4, Key: "key", ExpectPresent: true, Expect: []byte("old"), Val: []byte("new")},
		{Op: ReqBatchPut, Session: seedSession, ID: 5, Ack: 4, Pairs: pairs, IDs: []uint64{5, 6, 7}},
		{Op: ReqBatchPut, Session: seedSession, ID: 900, Ack: 300, Pairs: append(pairs, Pair{Key: "delta", Val: []byte("4")}), IDs: []uint64{900, 302, 301, 70000}},
		{Op: ReqTxnPrepare, Session: seedSession, ID: 21, Ack: 20, Attempt: 2, HomeKey: "absent", AllKeys: all, Keys: []string{"r", "w"}, Writes: writes, Conds: conds},
		{Op: ReqTxnResolve, Session: seedSession, ID: 21, Ack: 20, Attempt: 2, Commit: true, Key: "w", HomeKey: "absent", AllKeys: all},
		{Op: ReqTxn, Session: seedSession, ID: 10, Ack: 8, Keys: []string{"r"}, Writes: writes, Conds: conds},
	}
}

// FuzzRequestSplit holds the two things a node does with a request's bytes
// before it knows who sent them — DecodeRequest, then the split that decides
// where it runs — to their contracts on arbitrary input: decoding never
// panics, no claimed count makes it allocate more than a fixed multiple of
// the input's length (the worst honest case is about 16x: a string header
// per one-byte key), and the strings it decodes are untouched by what later
// becomes of the input (checkStringsOwned); and whatever decodes splits, under a four-shard ring,
// into parts that hold every key, pair, write and condition exactly once, on
// the shard that owns it, in request order. What decodes is also something
// the encoder says: it re-encodes to bytes that decode to the same request —
// which a budget or staleness bound past what a time.Duration holds would
// not, so the decoder refuses those.
func FuzzRequestSplit(f *testing.F) {
	for _, req := range requestSeeds() {
		seed := EncodeRequest(req)
		if _, err := DecodeRequest(seed); err != nil {
			f.Fatalf("seed %+v does not decode: %v", req, err)
		}
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	_, r, rt, _ := splitFixture(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var req *Request
		var err error
		bound := 64*uint64(len(b)) + 4096
		if got := allocatedBy(bound, func() { req, err = DecodeRequest(b) }); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		checkStringsOwned(t, b, func(in []byte) any { req, _ := DecodeRequest(in); return req })
		if again, err := DecodeRequest(EncodeRequest(req)); err != nil || !reflect.DeepEqual(req, again) {
			t.Fatalf("re-encoded request decodes to %+v, %v; want %+v", again, err, req)
		}
		shard, parts := split(r, rt, req)
		if parts == nil {
			for i := 0; shard >= 0 && i < req.numKeys(); i++ {
				if got := r.shard(req.keyAt(i)); got != shard {
					t.Fatalf("split sends the request whole to shard %d, but key %d (%q) lives on %d", shard, i, req.keyAt(i), got)
				}
			}
			return
		}
		// Putting every part's elements back where the ring says they came
		// from must rebuild the request: walk the request in order, taking
		// each element from the front of its owner's part.
		byShard := map[int]*Request{}
		for _, p := range parts {
			if byShard[p.shard] != nil {
				t.Fatalf("two parts for shard %d", p.shard)
			}
			cp := *p.req
			byShard[p.shard] = &cp
		}
		take := func(key string) *Request {
			p := byShard[r.shard(key)]
			if p == nil {
				t.Fatalf("no part for key %q's shard %d", key, r.shard(key))
			}
			return p
		}
		for i, p := range req.Pairs {
			sub := take(p.Key)
			if len(sub.Pairs) == 0 || !reflect.DeepEqual(sub.Pairs[0], p) || sub.IDs[0] != req.IDs[i] {
				t.Fatalf("pair %d (%q, id %d) is not next in its shard's part", i, p.Key, req.IDs[i])
			}
			sub.Pairs, sub.IDs = sub.Pairs[1:], sub.IDs[1:]
		}
		if req.Op != ReqBatchPut {
			for i, k := range req.Keys {
				sub := take(k)
				if len(sub.Keys) == 0 || sub.Keys[0] != k {
					t.Fatalf("key %d (%q) is not next in its shard's part", i, k)
				}
				sub.Keys = sub.Keys[1:]
			}
			for i, w := range req.Writes {
				sub := take(w.Key)
				if len(sub.Writes) == 0 || !reflect.DeepEqual(sub.Writes[0], w) {
					t.Fatalf("write %d (%q) is not next in its shard's part", i, w.Key)
				}
				sub.Writes = sub.Writes[1:]
			}
			for i, c := range req.Conds {
				sub := take(c.Key)
				if len(sub.Conds) == 0 || !reflect.DeepEqual(sub.Conds[0], c) {
					t.Fatalf("cond %d (%q) is not next in its shard's part", i, c.Key)
				}
				sub.Conds = sub.Conds[1:]
			}
		}
		for s, left := range byShard {
			if len(left.Keys)+len(left.Pairs)+len(left.IDs)+len(left.Writes)+len(left.Conds) != 0 {
				t.Fatalf("shard %d's part holds elements the request does not: %+v", s, left)
			}
		}
	})
}

// responseSeeds is one access-protocol response per shape.
func responseSeeds() []*Response {
	return []*Response{
		{Err: "kv: shard 3 is not hosted on this node"},
		{OK: true},
		{OK: false},
		{OK: true, TxnState: txnStatePrepared, Values: [][]byte{[]byte("read"), nil}, Found: []bool{true, false}},
		{TxnState: txnStateAborted, Conflict: true},
		{TxnState: txnStateAborted, CondFailed: true},
		{OK: true, ReadPath: ReadSequenced, Values: [][]byte{[]byte("v"), nil, {}, bytes.Repeat([]byte{7}, 200)}, Found: []bool{true, false, true, true}},
		{OK: true, ReadPath: ReadStale, StaleFor: 40 * time.Millisecond, Values: [][]byte{[]byte("v")}, Found: []bool{true}},
		{OK: true, ReadPath: ReadLease, Nodes: 5, Replication: 3, Routing: &Routing{Epoch: 3, Shards: 8, VNodes: 64},
			Values: [][]byte{[]byte("v")}, Found: []bool{true}},
	}
}

// FuzzDecodeResponse holds DecodeResponse — which a client runs on whatever
// answers at a well-known address — to three properties on arbitrary bytes: it
// never panics; no claimed count makes it allocate more than a fixed multiple
// of the input's length (the worst honest case is about 13x: a slice header
// and a found flag per two-byte absent value); and what it accepts is
// something the encoder says — it re-encodes to bytes that decode to the same
// response.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range responseSeeds() {
		seed := EncodeResponse(resp)
		if _, err := DecodeResponse(seed); err != nil {
			f.Fatalf("seed %+v does not decode: %v", resp, err)
		}
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var resp *Response
		var err error
		bound := 64*uint64(len(b)) + 4096
		if got := allocatedBy(bound, func() { resp, err = DecodeResponse(b) }); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		again, err := DecodeResponse(EncodeResponse(resp))
		if err != nil || !reflect.DeepEqual(resp, again) {
			t.Fatalf("re-encoded response decodes to %+v, %v; want %+v", again, err, resp)
		}
	})
}
