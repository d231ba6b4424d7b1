package kv

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

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
		fresh.Apply(bytes.Clone(cmd))
		reused.Apply(cmd)
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
