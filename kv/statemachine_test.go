package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// checkDerived fails t unless sm's derived state is what a fresh derivation
// from its replicated state gives: every lock names a prepared portion that
// holds the locked key, every key of every prepared portion is locked by that
// portion, lockSeen holds exactly the prepared attempts, and curRing and
// pendRing have the points that routing and pending build.
func checkDerived(t testing.TB, sm *mapSM) {
	t.Helper()
	for k, id := range sm.locks {
		if p := sm.txns[id]; p == nil || !slices.Contains(p.localKeys(), k) {
			t.Fatalf("%q is locked to %v, which is no prepared portion holding it", k, id)
		}
	}
	for id, p := range sm.txns {
		if p.ID != id || p.State != txnStatePrepared {
			t.Fatalf("the prepared portion filed as %v is %v, in state %d", id, p.ID, p.State)
		}
		for _, k := range p.localKeys() {
			if owner, locked := sm.locks[k]; !locked || owner != id {
				t.Fatalf("%v holds %q, which is locked to %v (locked %v)", id, k, owner, locked)
			}
		}
		if _, stamped := sm.lockSeen[id]; !stamped {
			t.Fatalf("prepared portion %v has no lockSeen stamp", id)
		}
	}
	if len(sm.lockSeen) != len(sm.txns) {
		t.Fatalf("lockSeen stamps %d attempts, %d are prepared", len(sm.lockSeen), len(sm.txns))
	}
	if !reflect.DeepEqual(sm.curRing, sm.routing.ring(sm.store)) {
		t.Fatalf("curRing is not the ring of routing %+v", sm.routing)
	}
	if sm.pending == nil && sm.pendRing != nil || sm.pending != nil && !reflect.DeepEqual(sm.pendRing, sm.pending.ring(sm.store)) {
		t.Fatalf("pendRing is not the ring of pending %+v", sm.pending)
	}
}

// applyChecked applies cmd to sm and then checks its derived state.
func applyChecked(t testing.TB, sm *mapSM, cmd []byte) {
	t.Helper()
	sm.Apply(cmd)
	checkDerived(t, sm)
}

// TestDerivedStateAcrossHandoff drives one shard through what changes its
// rings and prepare locks outside a plain prepare and resolve — a handoff
// begun and aborted, begun again, imports that add a portion and merge into
// one, and the commit that shrinks a portion to the keys the shard keeps and
// drops one with none left — and checks the derived state after every apply.
func TestDerivedStateAcrossHandoff(t *testing.T) {
	rt := Routing{Shards: 1, VNodes: 8}
	next := Routing{Epoch: 1, Shards: 2, VNodes: 8}
	sm := newMapSM("derive", 0, rt, nil)
	var stay, move []string // keys shard 0 keeps under next, and keys it gives away
	for r, i := next.ring(sm.store), 0; len(stay) < 3 || len(move) < 2; i++ {
		if k := fmt.Sprintf("key-%d", i); r.shard(k) == 0 && len(stay) < 3 {
			stay = append(stay, k)
		} else if r.shard(k) == 1 && len(move) < 2 {
			move = append(move, k)
		}
	}
	a := header{session: testSession, seq: 30} // reads a kept key, writes a moving one
	b := header{session: testSession, seq: 31} // writes only a moving key
	imported := txnID{session: testSession, seq: 32}
	for _, cmd := range [][]byte{
		encodePut(at(1), stay[0], []byte("s")),
		encodePut(at(2), move[0], []byte("m")),
		encodeTxnPrepare(a, 0, stay[0], []string{stay[0], move[0]}, []string{stay[0]}, []TxnWrite{{Key: move[0], Val: []byte("a")}}, nil),
		encodeTxnPrepare(b, 0, move[1], []string{move[1]}, nil, []TxnWrite{{Key: move[1], Val: []byte("b")}}, nil),
		encodeMigrate(opMigrateBegin, at(3), next),
		encodeMigrate(opMigrateAbort, at(4), next),
		encodeMigrate(opMigrateBegin, at(5), next),
		encodeMigrateImport(at(6), next, &importChunk{Txns: []*txnPortion{
			{ID: imported, State: txnStatePrepared, HomeKey: stay[1], AllKeys: []string{stay[1]},
				Writes: []TxnWrite{{Key: stay[1], Val: []byte("i")}}},
			{ID: txnID{session: testSession, seq: 30}, State: txnStatePrepared, HomeKey: stay[0], AllKeys: []string{stay[0], move[0], stay[2]},
				Reads: []txnRead{{Key: stay[2]}}},
		}}),
	} {
		applyChecked(t, sm, cmd)
	}
	if len(sm.txns) != 3 || len(sm.locks) != 5 || sm.pending == nil {
		t.Fatalf("before the commit: %d prepared portions, %d locks, pending %v; want 3, 5 and the next table",
			len(sm.txns), len(sm.locks), sm.pending)
	}
	applyChecked(t, sm, encodeMigrate(opMigrateCommit, at(7), next))
	if len(sm.txns) != 2 || len(sm.locks) != 3 || sm.pending != nil || sm.locks[move[0]] != (txnID{}) {
		t.Fatalf("after the commit: %d prepared portions, %d locks, pending %v; want 2, 3 (none on %q) and none",
			len(sm.txns), len(sm.locks), sm.pending, move[0])
	}
	applyChecked(t, sm, encodeTxnResolve(a, 0, true, stay[0], []string{stay[0], move[0]}))
	applyChecked(t, sm, encodeTxnResolve(header{session: testSession, seq: 32}, 0, false, stay[1], []string{stay[1]}))
	if len(sm.txns) != 0 || len(sm.locks) != 0 || string(sm.items[move[0]]) != "" || sm.items[stay[1]] != nil {
		t.Fatalf("after both resolves: %d prepared portions, %d locks, items %q", len(sm.txns), len(sm.locks), sm.items)
	}
}

// spellReadLists spells a prepared portion reading "r" and "s" as
// appendPortion does, but with its key, value and found lists of the given
// lengths (each at most two), and no writes or conditions.
func spellReadLists(keys, vals, found int) []byte {
	dst := []byte{txnStatePrepared}
	dst = binary.BigEndian.AppendUint64(dst, seedSession)
	dst = binary.AppendUvarint(dst, 21) // seq
	dst = binary.AppendUvarint(dst, 0)  // attempt
	dst = appendBytes(dst, []byte("r"))
	dst = appendKeys(dst, []string{"r", "s"})
	dst = appendKeys(dst, []string{"r", "s"}[:keys])
	dst = binary.AppendUvarint(dst, uint64(vals))
	for i := 0; i < vals; i++ {
		dst = appendBytes(dst, []byte("v"))
	}
	dst = binary.AppendUvarint(dst, uint64(found))
	for i := 0; i < found; i++ {
		dst = appendBool(dst, true)
	}
	return append(dst, 0, 0)
}

// readListSeeds carries the portion spellReadLists makes in a snapshot and in
// a migrate import: with lists of one length, then with its values and then
// its found list one short.
func readListSeeds() (snaps, cmds [][]byte) {
	for _, lens := range [][3]int{{2, 2, 2}, {2, 1, 2}, {2, 2, 1}} {
		p := spellReadLists(lens[0], lens[1], lens[2])
		// No items, routing or pending table; one portion; clock 0; no sessions.
		snaps = append(snaps, append(append([]byte{snapshotVersion, 0, 0, 0, 1}, p...), 0, 0))
		cmd := encodeMigrateImport(header{session: seedSession, seq: 8}, Routing{Epoch: 3, Shards: 8, VNodes: 64}, &importChunk{})
		cmd[len(cmd)-1] = 1 // the portion count
		cmds = append(cmds, append(cmd, p...))
	}
	return snaps, cmds
}

// TestReadListsOfOneLength holds both decoders of a transaction portion to
// its captured reads' one length: a snapshot or an import whose values or
// found list is one short is refused.
func TestReadListsOfOneLength(t *testing.T) {
	want := &txnPortion{ID: txnID{session: seedSession, seq: 21}, State: txnStatePrepared, HomeKey: "r", AllKeys: []string{"r", "s"},
		Reads: []txnRead{{Key: "r", Val: []byte("v"), Found: true}, {Key: "s", Val: []byte("v"), Found: true}}}
	if got := spellReadLists(2, 2, 2); !bytes.Equal(got, appendPortion(nil, want)) {
		t.Fatalf("the portion is spelled % x, appendPortion spells % x", got, appendPortion(nil, want))
	}
	snaps, cmds := readListSeeds()
	for i, name := range []string{"lists of one length", "values one short", "found one short"} {
		_, snapErr := decodeSnapshot(snaps[i])
		cmdErr := decodeCommand(cmds[i], new(command))
		if refused := i > 0; (snapErr != nil) != refused || (cmdErr != nil) != refused {
			t.Errorf("%s: decodeSnapshot %v, decodeCommand %v; want refused %v", name, snapErr, cmdErr, refused)
		}
	}
}

// TestApplyThroughOneScratch applies a 16-pair batch, a 3-pair batch that
// overwrites some of its keys, and a sequenced read, all decoded through one
// state machine's scratch, and wants what a state machine decoding every
// command afresh, from a copy of its bytes, ends with: the same items,
// outcomes, read answer and StateDigest. After each apply the scratch holds
// no key, value or header, only its cleared arrays, and the command's bytes are
// scribbled over: nothing kept may alias them.
func TestApplyThroughOneScratch(t *testing.T) {
	rt := Routing{Shards: 1, VNodes: 8}
	reused, fresh := newMapSM("scratch", 0, rt, nil), newMapSM("scratch", 0, rt, nil)
	batch := func(first uint64, keys ...string) []byte {
		seqs, pairs := make([]uint64, len(keys)), make([]Pair, len(keys))
		for i, k := range keys {
			seqs[i], pairs[i] = first+uint64(i), Pair{Key: k, Val: []byte(fmt.Sprintf("%s@%d", k, first+uint64(i)))}
		}
		return encodeBatchPut(at(first), seqs, pairs)
	}
	var sixteen []string
	for i := 0; i < 16; i++ {
		sixteen = append(sixteen, fmt.Sprintf("key-%02d", i))
	}
	read := []string{"key-00", "key-03", "key-16", "absent", "key-15"}
	cmds := [][]byte{
		batch(1, sixteen...),
		batch(17, "key-03", "key-16", "key-15"),
		encodeGet(at(20), read),
	}
	readID := cmdID(testSession, 20)
	answers := map[*mapSM]*answerWaiter{}
	for _, sm := range []*mapSM{reused, fresh} {
		w := &answerWaiter{done: make(chan struct{}, 1)}
		sm.expect(w, []uint64{readID})
		answers[sm] = w
	}
	for i, cmd := range cmds {
		fresh.scratch = command{}
		applyChecked(t, fresh, bytes.Clone(cmd))
		applyChecked(t, reused, cmd)
		for j := range cmd {
			cmd[j] ^= 0xA5
		}
		sc := &reused.scratch
		holds := len(sc.seqs)+len(sc.pairs)+len(sc.keys) != 0
		for _, p := range sc.pairs[:cap(sc.pairs)] {
			holds = holds || p.Key != "" || p.Val != nil
		}
		for _, k := range sc.keys[:cap(sc.keys)] {
			holds = holds || k != ""
		}
		if holds {
			t.Fatalf("after command %d the scratch still holds %d seqs, %q and %q", i, len(sc.seqs),
				sc.pairs[:cap(sc.pairs)], sc.keys[:cap(sc.keys)])
		}
		rest := *sc
		rest.seqs, rest.pairs, rest.keys = nil, nil, nil
		if !reflect.DeepEqual(rest, command{}) {
			t.Fatalf("after command %d the scratch still holds more than its arrays: %+v", i, rest)
		}
	}
	if cap(reused.scratch.pairs) < 16 || cap(reused.scratch.seqs) < 16 || cap(reused.scratch.keys) < len(read) {
		t.Fatalf("the scratch kept arrays of %d pairs, %d seqs and %d keys; want the first batch's and the read's",
			cap(reused.scratch.pairs), cap(reused.scratch.seqs), cap(reused.scratch.keys))
	}

	if len(reused.items) != 17 || string(reused.items["key-03"]) != "key-03@17" || string(reused.items["key-04"]) != "key-04@5" {
		t.Fatalf("items after both batches: %q", reused.items)
	}
	if !reflect.DeepEqual(reused.items, fresh.items) {
		t.Fatalf("items through one scratch\n %q\nafresh\n %q", reused.items, fresh.items)
	}
	if a, b := reused.sessions[testSession], fresh.sessions[testSession]; a == nil || len(a.outcomes) != 19 || !reflect.DeepEqual(a.outcomes, b.outcomes) {
		t.Fatalf("outcomes through one scratch %+v, afresh %+v", a, b)
	}
	got, want := answers[reused].first, answers[fresh].first
	if !reflect.DeepEqual(got.Found, []bool{true, true, true, false, true}) || string(got.Values[1]) != "key-03@17" ||
		!reflect.DeepEqual(got, want) {
		t.Fatalf("the read through one scratch answered %q %v, afresh %q %v", got.Values, got.Found, want.Values, want.Found)
	}
	if a, b := reused.StateDigest(), fresh.StateDigest(); a != b {
		t.Fatalf("StateDigest %x through one scratch, %x afresh", a, b)
	}
}
