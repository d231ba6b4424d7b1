package kv

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"amoeba"
	"amoeba/internal/flip"
	"amoeba/internal/rpc"
	"amoeba/shared"
)

// kernelStack is k's FLIP stack, which package amoeba keeps to itself. A late
// duplicate repeats its call's RPC transaction id, which amoeba.RPCClient
// never does once the call has its reply, so a test that sends one speaks the
// RPC wire protocol on the stack directly.
func kernelStack(t *testing.T, k *amoeba.Kernel) *flip.Stack {
	t.Helper()
	f := reflect.ValueOf(k).Elem().FieldByName("stack")
	if !f.IsValid() {
		t.Fatal("amoeba.Kernel has no stack field")
	}
	st, ok := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*flip.Stack)
	if !ok || st == nil {
		t.Fatalf("amoeba.Kernel's stack field is a %v", f.Type())
	}
	return st
}

// rawCaller sends access-protocol requests to one RPC address as raw request
// packets, each under the RPC transaction id the test gives it, and hands
// back the replies.
type rawCaller struct {
	t       *testing.T
	stack   *flip.Stack
	self    flip.Address
	dst     amoeba.Addr
	replies chan rawReply
}

type rawReply struct {
	txn  uint32
	resp *Response
}

func newRawCaller(t *testing.T, k *amoeba.Kernel, dst amoeba.Addr) *rawCaller {
	c := &rawCaller{t: t, stack: kernelStack(t, k), dst: dst, replies: make(chan rawReply, 16)}
	c.self = c.stack.AllocAddress()
	c.stack.Register(c.self, func(m flip.Message) {
		txn, payload, ok := rpc.DecodeReply(m.Payload)
		if !ok {
			return
		}
		resp, err := DecodeResponse(payload) // copies: m.Payload is borrowed
		if err != nil {
			resp = &Response{Err: "undecodable reply: " + err.Error()}
		}
		c.replies <- rawReply{txn: txn, resp: resp}
	})
	t.Cleanup(func() { c.stack.Unregister(c.self) })
	return c
}

// call sends req under RPC transaction txn and waits for its reply.
func (c *rawCaller) call(txn uint32, req *Request) *Response {
	c.t.Helper()
	if err := c.stack.Send(c.self, flip.Address(c.dst), rpc.EncodeRequest(txn, c.self, EncodeRequest(req))); err != nil {
		c.t.Fatalf("sending txn %d: %v", txn, err)
	}
	select {
	case r := <-c.replies:
		if r.txn != txn {
			c.t.Fatalf("reply to txn %d, want %d", r.txn, txn)
		}
		return r.resp
	case <-time.After(10 * time.Second):
		c.t.Fatalf("no reply to txn %d", txn)
		return nil
	}
}

// TestLateDuplicatesThroughService sends each kind of write — Put, CAS,
// Delete, BatchPut, a read-write transaction — and a multi-shard MGet (a
// read-only transaction) to a node's Service as raw RPC packets, and sends
// each again under its RPC transaction id after its reply arrived: a late
// duplicate. The RPC server keeps no replies, so every duplicate reaches the
// handler (Served counts it), and the shard's session table deduplicates it.
// Before the session's ack moves, a write's re-run answers with its first
// outcome and changes nothing (a re-executed CAS or Delete would answer
// false, a re-executed Put would bring back the deleted key). Once a later
// request has moved the ack past them all, every re-run is refused Stale,
// and no replica's state changes. A write without a session header, which
// no shard could deduplicate, is refused.
func TestLateDuplicatesThroughService(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "redo", 2, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	svc := startServices(t, stores)[0]
	ext, err := net.NewKernel("redo-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	c := newRawCaller(t, ext, NodeAddr("redo", 0))

	s := stores[0]
	k1, k2 := keyOnShard(s, 0, "put"), keyOnShard(s, 1, "cas")
	b0, b1 := keyOnShard(s, 0, "batch"), keyOnShard(s, 1, "batch")
	t0, t1 := keyOnShard(s, 0, "txn"), keyOnShard(s, 1, "txn")
	pin := newSessionID(time.Now())
	reqs := []*Request{
		{Op: ReqPut, Key: k1, Val: []byte("put")},
		{Op: ReqCAS, Key: k2, Val: []byte("cas")}, // expects k2 absent
		{Op: ReqDelete, Key: k1},
		{Op: ReqBatchPut, Pairs: []Pair{{Key: b0, Val: []byte("b0")}, {Key: b1, Val: []byte("b1")}}},
		{Op: ReqTxn, Keys: []string{k2},
			Conds:  []TxnCond{{Key: k2, ExpectPresent: true, Expect: []byte("cas")}},
			Writes: []TxnWrite{{Key: t0, Val: []byte("t0")}, {Key: t1, Val: []byte("t1")}}},
		{Op: ReqTxn, Keys: []string{k2, b0, t1}}, // a multi-shard MGet
	}
	names := []string{"Put", "CAS", "Delete", "BatchPut", "Txn", "MGet"}
	seq := uint64(1)
	for _, r := range reqs {
		r.Session, r.ID, r.Ack = pin, seq, 1 // the ack stays at the first seq
		for j := range r.Pairs {
			r.IDs = append(r.IDs, seq+uint64(j))
		}
		seq += uint64(r.numSeqs())
	}

	// A write without its session header could not be deduplicated: the
	// Service refuses it (checkItems below finds no trace of it).
	if r := c.call(100, &Request{Op: ReqPut, Key: keyOnShard(s, 0, "unnumbered"), Val: []byte("x")}); r.Err == "" {
		t.Fatalf("an unnumbered Put answered %+v, want a refusal", r)
	}

	first := make([]*Response, len(reqs))
	for i, r := range reqs {
		txn := uint32(i + 1)
		first[i] = c.call(txn, r)
		if first[i].Err != "" || !first[i].OK {
			t.Fatalf("%s: %+v, want success", names[i], first[i])
		}
		served := svc.Stats().Served
		if again := c.call(txn, r); !reflect.DeepEqual(again, first[i]) {
			t.Fatalf("%s's late duplicate answered %+v, want the first answer %+v", names[i], again, first[i])
		}
		if got := svc.Stats().Served; got != served+1 {
			t.Fatalf("%s's late duplicate: Served %d → %d, want it to reach the handler once", names[i], served, got)
		}
	}
	if v := first[len(reqs)-1].Values; string(v[0]) != "cas" || string(v[1]) != "b0" || string(v[2]) != "t1" {
		t.Fatalf("MGet read %q", v)
	}
	// Every write's duplicate once more, now that the later writes applied:
	// the Put's must not bring k1 back.
	for i := range reqs {
		if again := c.call(uint32(i+1), reqs[i]); !reflect.DeepEqual(again, first[i]) {
			t.Fatalf("%s's second late duplicate answered %+v, want %+v", names[i], again, first[i])
		}
	}
	want := map[string]string{k2: "cas", b0: "b0", b1: "b1", t0: "t0", t1: "t1"}
	checkItems := func(when string) {
		t.Helper()
		for shard := 0; shard < 2; shard++ {
			waitShardSync(t, stores, shard)
			for n, st := range stores {
				for k, v := range shardItems(st, shard) {
					if want[k] != v {
						t.Fatalf("%s: node %d shard %d holds %q = %q, want %q", when, n, shard, k, v, want[k])
					}
				}
			}
		}
	}
	checkItems("before the ack moves")

	// A later batch on both shards moves the session's ack past every seq
	// above; a late duplicate of any of them is then Stale everywhere.
	more := &Request{Op: ReqBatchPut, Session: pin, ID: seq, Ack: seq, IDs: []uint64{seq, seq + 1},
		Pairs: []Pair{{Key: b0, Val: []byte("b0'")}, {Key: b1, Val: []byte("b1'")}}}
	if r := c.call(uint32(len(reqs)+1), more); r.Err != "" {
		t.Fatalf("the ack-moving batch: %s", r.Err)
	}
	want[b0], want[b1] = "b0'", "b1'"
	checkItems("after the ack moved")
	digests := func() []uint64 {
		var out []uint64
		for shard := 0; shard < 2; shard++ {
			waitShardSync(t, stores, shard)
			for _, st := range stores {
				st.Replica(shard).Read(func(sm shared.StateMachine) {
					out = append(out, sm.(*mapSM).StateDigest())
				})
			}
		}
		return out
	}
	before := digests()
	for i := range reqs {
		served := svc.Stats().Served
		if again := c.call(uint32(i+1), reqs[i]); again.Err == "" {
			t.Fatalf("%s's late duplicate after the ack moved answered %+v, want a stale refusal", names[i], again)
		}
		if got := svc.Stats().Served; got != served+1 {
			t.Fatalf("%s's late duplicate after the ack moved: Served %d → %d, want it to reach the handler once", names[i], served, got)
		}
	}
	if after := digests(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("replica digests %x after the stale duplicates, %x before: a duplicate changed a replica", after, before)
	}
	checkItems("after the stale duplicates")
}
