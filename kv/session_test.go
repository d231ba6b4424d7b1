package kv

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/internal/bufpool"
	"amoeba/shared"
)

// TestLateDuplicateAfterAckIsStale is the late duplicate that used to revert
// a write: a BatchPut part applies, its session goes on with more than
// 2 × 1 024 commands — past what a 1 024-entry result window remembered —
// carrying an advanced ack, one of them overwriting the batch's key, and then
// a copy of the original part arrives (it sat in a starved node while its
// retransmission was served elsewhere). The copy must be refused as stale,
// and the key keep its later value.
func TestLateDuplicateAfterAckIsStale(t *testing.T) {
	sm := newMapSM("late", 0, Routing{Shards: 1, VNodes: 8}, nil)
	session := newSessionID(time.Now())
	part := encodeBatchPut(header{session: session}, []uint64{1, 2},
		[]Pair{{Key: "k", Val: []byte("batch")}, {Key: "other", Val: []byte("batch")}})
	applyChecked(t, sm, part)
	const later = 2*1024 + 1
	for seq := uint64(3); seq < 3+later; seq++ {
		val := []byte(fmt.Sprintf("later-%d", seq))
		applyChecked(t, sm, encodePut(header{session: session, seq: seq, ack: seq}, "k", val))
	}
	want := fmt.Sprintf("later-%d", 2+later)
	if got := string(sm.items["k"]); got != want {
		t.Fatalf("k = %q before the duplicate, want %q", got, want)
	}

	w := newAnswerWaiter()
	sm.expect(w, []uint64{cmdID(session, 1), cmdID(session, 2)})
	applyChecked(t, sm, part)
	if w.pending != 0 || !w.stale || w.moved {
		t.Fatalf("the late copy: %d answers owed, stale %v, moved %v; want both answered stale", w.pending, w.stale, w.moved)
	}
	if got := string(sm.items["k"]); got != want {
		t.Fatalf("k = %q after the late copy applied, want %q: the duplicate executed", got, want)
	}
	if st := sm.sessions[session]; len(st.outcomes) != 1 {
		t.Fatalf("the session holds %d outcomes, want only the last write's", len(st.outcomes))
	}
}

// TestRetriedTxnAfterManyResolutions commits a pinned transaction across two
// shards, lets another session resolve 2 × 8 192 transactions on the same
// shards — past what the 8 192-portion tombstone window remembered — and
// then retries the pinned one, whose session has acknowledged nothing: every
// participant must answer it with its first outcome and its captured reads,
// and none may write again.
func TestRetriedTxnAfterManyResolutions(t *testing.T) {
	rt := Routing{Shards: 2, VNodes: 8}
	r := rt.ring("txns")
	shards := []*mapSM{newMapSM("txns", 0, rt, nil), newMapSM("txns", 1, rt, nil)}
	var keys [2][]string // per shard: a read key, a written key
	for i := 0; len(keys[0]) < 2 || len(keys[1]) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s := r.shard(k); len(keys[s]) < 2 {
			keys[s] = append(keys[s], k)
		}
	}
	all := []string{keys[0][0], keys[0][1], keys[1][0], keys[1][1]}
	home := all[0]
	for _, k := range all {
		applyChecked(t, shards[r.shard(k)], encodePut(header{session: newSessionID(time.Now()), seq: 1}, k, []byte("seed-"+k)))
	}

	pin := header{session: newSessionID(time.Now()), seq: 7}
	ask := func(sm *mapSM, op byte, h header, cmd []byte) result {
		t.Helper()
		w := newAnswerWaiter()
		sm.expect(w, []uint64{waitID(op, h.session, h.seq, 0)})
		applyChecked(t, sm, cmd)
		if w.pending != 0 || w.stale || w.moved {
			t.Fatalf("command %+v: %d answers owed, stale %v, moved %v", h, w.pending, w.stale, w.moved)
		}
		return w.first
	}
	prepare := func(sm *mapSM, s int) result {
		return ask(sm, opTxnPrepare, pin, encodeTxnPrepare(pin, 0, home, all, []string{keys[s][0]},
			[]TxnWrite{{Key: keys[s][1], Val: []byte("txn")}}, nil))
	}
	resolve := func(sm *mapSM) result {
		return ask(sm, opTxnResolve, pin, encodeTxnResolve(pin, 0, true, home, all))
	}
	for s, sm := range shards {
		if res := prepare(sm, s); !res.OK || res.TxnState != txnStatePrepared {
			t.Fatalf("shard %d: first prepare = %+v", s, res)
		}
	}
	for s, sm := range shards {
		if res := resolve(sm); !res.OK || res.TxnState != txnStateCommitted {
			t.Fatalf("shard %d: first resolve = %+v", s, res)
		}
	}
	for _, k := range all {
		applyChecked(t, shards[r.shard(k)], encodePut(header{session: newSessionID(time.Now()), seq: 1}, k, []byte("later")))
	}

	other := newSessionID(time.Now())
	const resolutions = 2 * 8192
	for seq := uint64(1); seq <= resolutions; seq++ {
		h := header{session: other, seq: seq, ack: seq}
		for s, sm := range shards {
			applyChecked(t, sm, encodeTxnPrepare(h, 0, home, all, keys[s][:1], nil, nil))
			applyChecked(t, sm, encodeTxnResolve(h, 0, seq%2 == 0, home, all))
		}
	}

	for s, sm := range shards {
		res := prepare(sm, s)
		if !res.OK || res.TxnState != txnStateCommitted || len(res.Values) != 1 || string(res.Values[0]) != "seed-"+keys[s][0] {
			t.Fatalf("shard %d: retried prepare = %+v, want committed with the read captured at the first execution", s, res)
		}
		if res := resolve(sm); !res.OK || res.TxnState != txnStateCommitted {
			t.Fatalf("shard %d: retried resolve = %+v, want committed", s, res)
		}
		if got := string(sm.items[keys[s][1]]); got != "later" {
			t.Fatalf("shard %d: %s = %q after the retry, want the later write: the transaction wrote again", s, keys[s][1], got)
		}
		if len(sm.txns) != 0 || len(sm.locks) != 0 {
			t.Fatalf("shard %d: the retry left %d portions and %d locks", s, len(sm.txns), len(sm.locks))
		}
	}
}

// TestSessionExpiry holds the shard's clock to its contract: a session born
// sessionTTL minutes or less before the newest birth applied is kept; one
// older is dropped with its outcomes when the clock passes it, and its
// commands are refused, never executed.
func TestSessionExpiry(t *testing.T) {
	sm := newMapSM("ttl", 0, Routing{Shards: 1, VNodes: 8}, nil)
	born := func(minute uint64) uint64 { return minute<<(64-sessionBornBits) | 0x1234 }
	old, edge, young := born(100), born(100+1), born(100+1+sessionTTL)
	applyChecked(t, sm, encodePut(header{session: old, seq: 1}, "old", []byte("v")))
	applyChecked(t, sm, encodePut(header{session: edge, seq: 1}, "edge", []byte("v")))
	digest := sm.StateDigest()
	applyChecked(t, sm, encodePut(header{session: young, seq: 1}, "young", []byte("v")))
	if sm.clock != sessionBorn(young) || sm.sessions[old] != nil || sm.sessions[edge] == nil {
		t.Fatalf("clock %d: old kept %v, edge kept %v; want the old session dropped, the edge one kept",
			sm.clock, sm.sessions[old] != nil, sm.sessions[edge] != nil)
	}
	w := newAnswerWaiter()
	sm.expect(w, []uint64{cmdID(old, 2)})
	applyChecked(t, sm, encodePut(header{session: old, seq: 2}, "old", []byte("again")))
	if !w.stale || string(sm.items["old"]) != "v" || sm.sessions[old] != nil {
		t.Fatalf("a command of the expired session: stale %v, old = %q, session back %v", w.stale, sm.items["old"], sm.sessions[old] != nil)
	}
	if sm.StateDigest() == digest {
		t.Fatal("the digest is blind to the session table")
	}
}

// TestSessionAck holds the client's half: seqs are consecutive, the ack is
// the lowest seq whose caller has not ended, an ended seq of a retired or
// renewed session is passed over, and a steady stream of concurrent callers
// costs no heap once the ring has grown.
func TestSessionAck(t *testing.T) {
	var s session
	id, first, ack := s.begin(1)
	if first != 1 || ack != 1 {
		t.Fatalf("first begin = seq %d ack %d, want 1 and 1", first, ack)
	}
	_, second, _ := s.begin(3) // seqs 2, 3, 4
	_, fifth, ack := s.begin(1)
	if second != 2 || fifth != 5 || ack != 1 {
		t.Fatalf("seqs %d and %d, ack %d; want 2, 5 and 1", second, fifth, ack)
	}
	s.end(id, second, 3)
	if _, _, ack = s.begin(0); ack != 1 {
		t.Fatalf("ack %d with seq 1 still out, want 1", ack)
	}
	s.end(id, first, 1)
	if _, _, ack = s.begin(0); ack != 5 {
		t.Fatalf("ack %d with only seq 5 out, want 5", ack)
	}
	s.retire(id)
	renewed, seq, ack := s.begin(1)
	if renewed == id || seq != 1 || ack != 1 {
		t.Fatalf("after retire: session %x seq %d ack %d, want a new session from 1", renewed, seq, ack)
	}
	s.end(id, fifth, 1) // the retired session's last command: passed over

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id, seq, ack := s.begin(2)
				if ack > seq {
					t.Errorf("ack %d above an outstanding seq %d", ack, seq)
					return
				}
				s.end(id, seq, 2)
			}
		}()
	}
	wg.Wait()
	s.end(renewed, seq, 1)
	if _, next, ack := s.begin(0); ack != next {
		t.Fatalf("ack %d with nothing out, want the next seq %d", ack, next)
	}
	if bufpool.Poison || testing.Short() {
		return
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		id, seq, _ := s.begin(16)
		s.end(id, seq, 16)
	}); allocs != 0 {
		t.Fatalf("begin and end cost %.1f heap objects, want 0", allocs)
	}
}

// TestImportMovesSessions holds what a resharding's import does to the
// target's sessions: the larger of the two acks wins, so a late duplicate
// below the source's ack is stale on the new owner too, and an outcome at or
// above the target's ack lands there even when the source's ack is lower, so
// a retry routed to the new owner is answered, not executed again.
func TestImportMovesSessions(t *testing.T) {
	sm := newMapSM("import", 1, Routing{Shards: 2, VNodes: 8}, nil)
	session, coord := newSessionID(time.Now()), newSessionID(time.Now())
	applyChecked(t, sm, encodePut(header{session: session, seq: 10, ack: 10}, keyFor(t, sm, 1), []byte("here")))
	rt := Routing{Epoch: 1, Shards: 2, VNodes: 8}
	moving := keyFor(t, sm, 0)
	applyChecked(t, sm, encodeMigrateImport(header{session: coord, seq: 1}, rt, &importChunk{
		Pairs: []Pair{{Key: moving, Val: []byte("moved")}},
		Clock: sessionBorn(session),
		Moved: []movedSession{{ID: session, Ack: 5, Outcomes: []outcome{{seq: 7, ok: true, key: moving}, {seq: 12, ok: true, key: moving}}}},
	}))
	st := sm.sessions[session]
	if st.ack != 10 {
		t.Fatalf("ack %d after the import, want the target's 10", st.ack)
	}
	if _, ok := st.outcome(12); !ok {
		t.Fatal("the outcome above the target's ack did not land: its retry would execute again")
	}
	if _, ok := st.outcome(7); ok {
		t.Fatal("an outcome below the target's ack landed")
	}
}

// keyFor finds a key the ring of sm's routing table places on shard.
func keyFor(t *testing.T, sm *mapSM, shard int) string {
	t.Helper()
	r := sm.routing.ring(sm.store)
	for i := 0; i < 1000; i++ {
		if k := fmt.Sprintf("key-%d", i); r.shard(k) == shard {
			return k
		}
	}
	t.Fatalf("no key on shard %d", shard)
	return ""
}

// TestLateDuplicateOverRPCIsStale sends a late copy of a Put the way one
// arrives in production — over RPC, from a Dial'd client, after its session
// has acknowledged it — and holds the whole path to the state machine's
// answer: the copy is refused as stale, the refusal reaches the caller as an
// error, and the key keeps the later write.
func TestLateDuplicateOverRPCIsStale(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "latedup", 2, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	startServices(t, stores)
	ext, err := net.NewKernel("latedup-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	cl, err := Dial(ext, "latedup", DialOptions{Shards: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	pin := newSessionID(time.Now())
	first := &Request{Op: ReqPut, Session: pin, ID: 1, Key: "k", Val: []byte("first")}
	if _, err := cl.Do(ctx, first); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if _, err := cl.Do(ctx, &Request{Op: ReqPut, Session: pin, ID: 2, Ack: 2, Key: "k", Val: []byte("second")}); err != nil {
		t.Fatalf("second Put: %v", err)
	}
	if _, err := cl.Do(ctx, first); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("the late copy of the first Put = %v, want a stale refusal", err)
	}
	if v, ok, err := cl.Get(ctx, "k"); err != nil || !ok || string(v) != "second" {
		t.Fatalf("k = %q %v %v, want the second write", v, ok, err)
	}
}

// TestFailedTxnRetiresSession holds Client.Do's one exception to ending a
// seq: a failed operation is acknowledged (its late copy may execute at most
// once, or be stale), but a failed transaction is not — it may have left a
// participant prepared whose decision its records must keep — so the client
// retires the session and numbers what follows in a new one.
func TestFailedTxnRetiresSession(t *testing.T) {
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k, err := net.NewKernel("nobody-home")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	cl, err := Dial(k, "absent", DialOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	fail := func(req *Request) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := cl.Do(ctx, req); err == nil {
			t.Fatalf("%+v against a store nobody serves succeeded", req)
		}
	}
	fail(&Request{Op: ReqPut, Key: "k", Val: []byte("v")})
	session, seq, ack := cl.sess.begin(0)
	if seq != 2 || ack != 2 {
		t.Fatalf("after a failed Put: seq %d ack %d, want the Put acknowledged (2, 2)", seq, ack)
	}
	fail(&Request{Op: ReqTxn, Keys: []string{"k"}})
	if renewed, seq, _ := cl.sess.begin(0); renewed == session || seq != 1 {
		t.Fatalf("after a failed transaction: session %x seq %d, want a new session from 1", renewed, seq)
	}
}

// TestAcknowledgedAbortRecovers is a condition-failed transaction whose abort
// echo reached its home but missed a participant, after which its session
// acknowledged it at the home and freed the home's record: the recovery
// janitor asks the home, which must presume the abort, and the janitor's echo
// must release the participant's locks rather than leave them held for good.
func TestAcknowledgedAbortRecovers(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "ackabort", 2, Options{Shards: 4, TxnRecoveryAfter: time.Hour})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	defer cl.Close()
	keys := pickCrossShardKeys(t, stores[0], "ackabort", 2)
	home, other := keys[0], keys[1]

	pin := newSessionID(time.Now())
	prep, err := cl.Do(ctx, &Request{Op: ReqTxnPrepare, Session: pin, ID: 7, Ack: 7,
		HomeKey: home, AllKeys: keys,
		Writes: []TxnWrite{{Key: other, Val: []byte("never")}},
		Conds:  []TxnCond{{Key: home, ExpectPresent: true, Expect: []byte("absent")}}})
	if err != nil || !prep.CondFailed {
		t.Fatalf("prepare = %+v %v, want the home's condition failed", prep, err)
	}
	if n := len(stores[0].inDoubtTxns(0)); n != 1 {
		t.Fatalf("%d portions prepared, want the participant's", n)
	}
	// The echo reaches the home only, then the session moves on there.
	if _, err := cl.Do(ctx, &Request{Op: ReqTxnResolve, Session: pin, ID: 7, Ack: 7,
		Key: home, HomeKey: home, AllKeys: keys}); err != nil {
		t.Fatalf("abort echo to the home: %v", err)
	}
	if _, err := cl.Do(ctx, &Request{Op: ReqPut, Session: pin, ID: 8, Ack: 8, Key: home, Val: []byte("next")}); err != nil {
		t.Fatalf("the session's next command: %v", err)
	}

	if n := stores[0].recoverInDoubt(ctx, 0); n != 1 {
		t.Fatalf("recovery resolved %d transactions, want the one the echo missed", n)
	}
	if n := len(stores[0].inDoubtTxns(0)); n != 0 {
		t.Fatalf("%d portions still prepared after recovery", n)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := cl.Put(wctx, other, []byte("after")); err != nil {
		t.Fatalf("write to the participant's key after recovery: %v", err)
	}
	if v, _, err := cl.Get(ctx, other); err != nil || string(v) != "after" {
		t.Fatalf("%s = %q %v, want the later write", other, v, err)
	}
}

// TestFutureSessionRefused holds the entry check on a session's birth: a
// session born more than sessionTTL/2 ahead of the node's clock is refused
// before it is submitted — by a Service, and by a client's Do for a pinned
// session — so it cannot move the shards' clocks on; a session of now keeps
// working.
func TestFutureSessionRefused(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "future", 2, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	svcs := startServices(t, stores)
	cl := stores[0].NewClient()
	defer cl.Close()

	now := time.Now()
	edge := newSessionID(now.Add(sessionTTL * time.Minute / 2))
	future := newSessionID(now.Add(sessionTTL * time.Minute))
	for i, s := range stores {
		rt := s.Routing()
		reply, _ := svcs[i].handle(EncodeRequest(&Request{Op: ReqPut, Session: future, ID: 1, Epoch: rt.Epoch, Key: "k", Val: []byte("future")}))
		if resp, err := DecodeResponse(reply); err != nil || !strings.Contains(resp.Err, "ahead") {
			t.Fatalf("node %d: a future session's Put through the service = %+v %v, want refused", i, resp, err)
		}
	}
	if _, err := cl.Do(ctx, &Request{Op: ReqPut, Session: future, ID: 1, Key: "k", Val: []byte("future")}); err == nil {
		t.Fatal("a future session's pinned Put succeeded")
	}
	if _, err := cl.Do(ctx, &Request{Op: ReqPut, Session: edge, ID: 1, Key: "edge", Val: []byte("v")}); err != nil {
		t.Fatalf("a session sessionTTL/2 ahead: %v, want accepted", err)
	}
	if err := cl.Put(ctx, "k", []byte("now")); err != nil {
		t.Fatalf("Put in the client's own session: %v", err)
	}
	if v, _, err := cl.Get(ctx, "k"); err != nil || string(v) != "now" {
		t.Fatalf("k = %q %v, want the write of now", v, err)
	}
	for i := 0; i < 2; i++ {
		stores[0].Replica(i).Read(func(m shared.StateMachine) {
			if clock := m.(*mapSM).clock; clock > sessionBorn(edge) {
				t.Errorf("shard %d: clock %d moved past the newest admitted birth %d", i, clock, sessionBorn(edge))
			}
		})
	}
}

// TestExportSessionsGoToHeirs holds where a resharding sends the session
// table: to every shard that takes over some of the source's keys — the
// only shards a late duplicate of a write to one of them can reach — even
// one that receives no item, and to no other.
func TestExportSessionsGoToHeirs(t *testing.T) {
	for _, tc := range []struct{ from, to, src int }{{4, 8, 1}, {8, 4, 6}, {4, 5, 0}} {
		cur := Routing{Shards: tc.from, VNodes: 16}
		next := Routing{Epoch: 1, Shards: tc.to, VNodes: 16}.ring("heirs")
		sm := newMapSM("heirs", tc.src, cur, nil)
		session := newSessionID(time.Now())
		applyChecked(t, sm, encodePut(header{session: session, seq: 1}, keyFor(t, sm, tc.src), []byte("v")))
		applyChecked(t, sm, encodeDelete(header{session: session, seq: 2, ack: 2}, keyFor(t, sm, tc.src)))

		heirs := make(map[int]bool)
		for i := 0; i < 20000; i++ {
			if k := fmt.Sprintf("key-%d", i); sm.curRing.shard(k) == tc.src && next.shard(k) != tc.src {
				heirs[next.shard(k)] = true
			}
		}
		chunks := sm.exportChunks(next, maxCommandBytes)
		for dest := range chunks {
			// A split moves keys only onto the new shards, a merge only off
			// the retiring ones.
			if tc.to > tc.from && dest < tc.from || tc.to < tc.from && dest >= tc.to {
				t.Errorf("%d → %d, shard %d: chunks sent to shard %d, which takes over none of its keys", tc.from, tc.to, tc.src, dest)
			}
		}
		for dest := range heirs {
			if list := chunks[dest]; len(list) == 0 || len(list[0].Moved) != 1 || list[0].Moved[0].Ack != 2 {
				t.Errorf("%d → %d, shard %d: heir %d was not sent the session's ack", tc.from, tc.to, tc.src, dest)
			}
		}
	}
}
