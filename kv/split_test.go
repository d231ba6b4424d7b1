package kv

import (
	"reflect"
	"testing"

	"amoeba"
	"amoeba/internal/bufpool"
)

// splitFixture is a ring-aware client over a four-shard table, with one key
// known to live on each shard.
func splitFixture(t testing.TB) (*Client, *ring, Routing, [4][]string) {
	t.Helper()
	net := amoeba.NewMemoryNetwork()
	t.Cleanup(net.Close)
	k, err := net.NewKernel("split")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	c, err := Dial(k, "split", DialOptions{Shards: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	r, rt := c.routingRing()
	rt.Epoch = 7 // the table the split is asked to stamp, not the client's own
	var on [4][]string
	for i := 0; len(on[0]) < 4 || len(on[1]) < 4 || len(on[2]) < 4 || len(on[3]) < 4; i++ {
		key := "k" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
		on[r.shard(key)] = append(on[r.shard(key)], key)
	}
	return c, r, rt, on
}

// TestSplitRequest holds the one split to its contract for every op under no
// ring, keys on one shard, and keys on several: which shards, what each part
// holds and in what order, the session header every part keeps (a batch's
// pairs their own seqs), the epoch stamped on every part, and the caller's
// request left as it was.
func TestSplitRequest(t *testing.T) {
	_, r, rt, on := splitFixture(t)
	a, b, d := on[0], on[1], on[3]
	writes := func(keys ...string) []TxnWrite {
		out := make([]TxnWrite, len(keys))
		for i, k := range keys {
			out[i] = TxnWrite{Key: k, Val: []byte("w-" + k)}
		}
		return out
	}
	conds := func(keys ...string) []TxnCond {
		out := make([]TxnCond, len(keys))
		for i, k := range keys {
			out[i] = TxnCond{Key: k, ExpectPresent: true, Expect: []byte("c-" + k)}
		}
		return out
	}
	pairs := func(keys ...string) []Pair {
		out := make([]Pair, len(keys))
		for i, k := range keys {
			out[i] = Pair{Key: k, Val: []byte("p-" + k)}
		}
		return out
	}
	type part struct {
		shard int
		req   Request // Op, the session header, Epoch and the txn identity are checked apart
		idx   []int
	}
	cases := []struct {
		name  string
		req   Request
		shard int    // the one-shard answer under the ring; -1 with parts
		parts []part // nil: one shard takes the request whole
	}{
		{name: "put", req: Request{Op: ReqPut, ID: 1, Key: b[0], Val: []byte("v")}, shard: 1},
		{name: "delete", req: Request{Op: ReqDelete, ID: 1, Key: d[0]}, shard: 3},
		{name: "cas", req: Request{Op: ReqCAS, ID: 1, Key: a[0], Val: []byte("v")}, shard: 0},
		{name: "resolve routes by its key alone", shard: 1,
			req: Request{Op: ReqTxnResolve, ID: 1, Attempt: 9, Key: b[0], HomeKey: a[0], AllKeys: []string{a[0], b[0], d[0]}}},
		{name: "get, one key", req: Request{Op: ReqGet, ID: 1, Keys: []string{d[1]}}, shard: 3},
		{name: "get, one shard", req: Request{Op: ReqGet, ID: 1, Keys: []string{b[0], b[1], b[0]}}, shard: 1},
		{name: "get, three shards", shard: -1,
			req: Request{Op: ReqGet, Session: 77, ID: 5, Ack: 2, Flags: flagStaleRead | flagForwarded, MaxStale: 5, Budget: 3,
				Keys: []string{b[0], a[0], b[1], d[0], a[1], b[0]}},
			parts: []part{
				{shard: 1, req: Request{Flags: flagStaleRead, MaxStale: 5, Budget: 3, Keys: []string{b[0], b[1], b[0]}}, idx: []int{0, 2, 5}},
				{shard: 0, req: Request{Flags: flagStaleRead, MaxStale: 5, Budget: 3, Keys: []string{a[0], a[1]}}, idx: []int{1, 4}},
				{shard: 3, req: Request{Flags: flagStaleRead, MaxStale: 5, Budget: 3, Keys: []string{d[0]}}, idx: []int{3}},
			}},
		{name: "batch, one shard", shard: 0,
			req: Request{Op: ReqBatchPut, Pairs: pairs(a[0], a[1], a[2], a[3]), IDs: []uint64{11, 12, 13, 14}}},
		{name: "batch, two shards", shard: -1,
			req: Request{Op: ReqBatchPut, Session: 77, ID: 11, Ack: 9, Budget: 3, Pairs: pairs(d[0], a[0], d[1], a[0]), IDs: []uint64{11, 12, 13, 14}},
			parts: []part{
				{shard: 3, req: Request{Budget: 3, Pairs: pairs(d[0], d[1]), IDs: []uint64{11, 13}}},
				{shard: 0, req: Request{Budget: 3, Pairs: pairs(a[0], a[0]), IDs: []uint64{12, 14}}},
			}},
		{name: "prepare, one shard", shard: 1,
			req: Request{Op: ReqTxnPrepare, ID: 1, Attempt: 9, HomeKey: b[0], AllKeys: []string{b[0], b[1], b[2]},
				Keys: []string{b[0]}, Writes: writes(b[1]), Conds: conds(b[2])}},
		{name: "prepare, writes only, one shard", shard: 3,
			req: Request{Op: ReqTxnPrepare, ID: 1, Attempt: 9, HomeKey: d[0], AllKeys: []string{d[0]}, Writes: writes(d[0])}},
		{name: "prepare, three shards", shard: -1,
			req: Request{Op: ReqTxnPrepare, Session: 77, ID: 1, Ack: 1, Attempt: 9, Budget: 3, HomeKey: a[0], AllKeys: []string{a[0], a[1], b[0], d[0], d[1]},
				Keys: []string{d[0], a[0], d[1]}, Writes: writes(a[1], b[0], a[0]), Conds: conds(d[0], b[0])},
			parts: []part{
				{shard: 3, req: Request{Budget: 3, Keys: []string{d[0], d[1]}, Conds: conds(d[0])}, idx: []int{0, 2}},
				{shard: 0, req: Request{Budget: 3, Keys: []string{a[0]}, Writes: writes(a[1], a[0])}, idx: []int{1}},
				{shard: 1, req: Request{Budget: 3, Writes: writes(b[0]), Conds: conds(b[0])}},
			}},
		{name: "txn, one shard: forwardable to its owner", shard: 0,
			req: Request{Op: ReqTxn, ID: 1, Keys: []string{a[0]}, Writes: writes(a[1]), Conds: conds(a[2])}},
		{name: "txn, several shards: coordinated by whoever holds it", shard: -1,
			req: Request{Op: ReqTxn, ID: 1, Keys: []string{a[0]}, Writes: writes(b[0])}},
		{name: "txn of no keys", shard: -1, req: Request{Op: ReqTxn, ID: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.req
			before.Keys = append([]string(nil), tc.req.Keys...)
			before.Pairs = append([]Pair(nil), tc.req.Pairs...)
			before.IDs = append([]uint64(nil), tc.req.IDs...)
			before.Writes = append([]TxnWrite(nil), tc.req.Writes...)
			before.Conds = append([]TxnCond(nil), tc.req.Conds...)

			if shard, parts := split(nil, Routing{}, &tc.req); shard != -1 || parts != nil {
				t.Errorf("ring-less: split = shard %d, %d parts; want -1 and none (the entry node routes)", shard, len(parts))
			}
			shard, parts := split(r, rt, &tc.req)
			if shard != tc.shard || len(parts) != len(tc.parts) {
				t.Fatalf("split = shard %d, %d parts; want shard %d, %d parts", shard, len(parts), tc.shard, len(tc.parts))
			}
			for i, want := range tc.parts {
				got := parts[i]
				if got.shard != want.shard || !reflect.DeepEqual(got.idx, want.idx) {
					t.Errorf("part %d: shard %d idx %v, want shard %d idx %v", i, got.shard, got.idx, want.shard, want.idx)
				}
				for k := 0; k < tc.req.numKeys(); k++ {
					if key := tc.req.keyAt(k); r.shard(key) == want.shard {
						if got.key != key {
							t.Errorf("part %d: first key %q, want %q", i, got.key, key)
						}
						break
					}
				}
				if got.req.Op != tc.req.Op || got.req.Epoch != rt.Epoch {
					t.Errorf("part %d: op %d epoch %d, want op %d and the table's epoch %d", i, got.req.Op, got.req.Epoch, tc.req.Op, rt.Epoch)
				}
				if got.req.Attempt != tc.req.Attempt || got.req.HomeKey != tc.req.HomeKey || !reflect.DeepEqual(got.req.AllKeys, tc.req.AllKeys) {
					t.Errorf("part %d lost the transaction's identity: %+v", i, got.req)
				}
				if got.req.Session != tc.req.Session || got.req.ID != tc.req.ID || got.req.Ack != tc.req.Ack {
					t.Errorf("part %d: header (%d, %d, %d), want the request's (%d, %d, %d)", i,
						got.req.Session, got.req.ID, got.req.Ack, tc.req.Session, tc.req.ID, tc.req.Ack)
				}
				want.req.Op, want.req.Session, want.req.ID, want.req.Ack, want.req.Epoch = got.req.Op, got.req.Session, got.req.ID, got.req.Ack, got.req.Epoch
				want.req.Attempt, want.req.HomeKey, want.req.AllKeys = got.req.Attempt, got.req.HomeKey, got.req.AllKeys
				if !reflect.DeepEqual(*got.req, want.req) {
					t.Errorf("part %d holds\n %+v\nwant\n %+v", i, *got.req, want.req)
				}
			}
			if !reflect.DeepEqual(tc.req, before) {
				t.Errorf("split modified the caller's request:\n %+v\nwas\n %+v", tc.req, before)
			}
		})
	}

	// The parts are as many as the shards the keys fall on, not as the keys
	// or the table's shards could be.
	t.Run("parts sized to the shards the keys fall on", func(t *testing.T) {
		req := &Request{Op: ReqGet, ID: 1, Keys: []string{a[0], d[0], a[1], d[1]}}
		if _, parts := group(r, req); len(parts) != 2 || cap(parts) != 2 {
			t.Errorf("4 keys on 2 of 4 shards: %d parts in an array of %d, want 2 in 2", len(parts), cap(parts))
		}
	})

	// The answer every hot-path operation gets — one shard, this one — costs
	// no map, slice or closure.
	t.Run("one shard allocates nothing", func(t *testing.T) {
		if bufpool.Poison {
			t.Skip("allocation counts are for plain runs")
		}
		c := on[2]
		for name, req := range map[string]*Request{
			"one-key get": {Op: ReqGet, ID: 1, Keys: []string{c[0]}},
			"put":         {Op: ReqPut, ID: 1, Key: c[0], Val: []byte("v")},
			"four-pair same-shard batch": {Op: ReqBatchPut, IDs: []uint64{1, 2, 3, 4},
				Pairs: pairs(c[0], c[1], c[2], c[3])},
		} {
			allocs := testing.AllocsPerRun(100, func() {
				if shard, parts := split(r, rt, req); shard != 2 || parts != nil {
					t.Errorf("%s: split = shard %d, %d parts; want shard 2 whole", name, shard, len(parts))
				}
			})
			if allocs != 0 {
				t.Errorf("%s: the one-shard answer allocates %.0f objects, want 0", name, allocs)
			}
		}
	})
}
