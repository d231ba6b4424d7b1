package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"amoeba/internal/flip"
)

func TestPacketCodecRoundTrip(t *testing.T) {
	f := func(typ, kind uint8, sender uint16, view, seq, localID, lastRecv, aux, aux2 uint32, payload []byte) bool {
		if typ == 0 {
			typ = 1
		}
		p := packet{
			typ: pktType(typ), kind: MsgKind(kind), sender: MemberID(sender),
			view: view, seq: seq, localID: localID,
			lastRecv: lastRecv, aux: aux, aux2: aux2, payload: payload,
		}
		buf := p.encode()
		got, err := decodePacket(buf)
		if err != nil {
			return false
		}
		return got.typ == p.typ && got.kind == p.kind && got.sender == p.sender &&
			got.view == p.view && got.seq == p.seq && got.localID == p.localID &&
			got.lastRecv == p.lastRecv && got.aux == p.aux && got.aux2 == p.aux2 &&
			bytes.Equal(got.payload, p.payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePacketRejectsShort(t *testing.T) {
	for n := 0; n < GroupHeaderSize; n++ {
		if _, err := decodePacket(make([]byte, n)); err == nil {
			t.Fatalf("accepted %d-byte packet", n)
		}
	}
	if _, err := decodePacket(make([]byte, GroupHeaderSize)); err != nil {
		t.Fatalf("rejected exact-header packet: %v", err)
	}
}

func TestViewCodecRoundTrip(t *testing.T) {
	f := func(inc, start uint32, seqID uint16, rawMembers []uint64) bool {
		v := view{incarnation: inc, sequencer: MemberID(seqID)}
		if len(rawMembers) > 100 {
			rawMembers = rawMembers[:100]
		}
		for i, a := range rawMembers {
			v.add(Member{ID: MemberID(i), Addr: flip.Address(a)})
		}
		buf := encodeView(v, start)
		got, gotStart, err := decodeView(buf)
		if err != nil {
			return false
		}
		if gotStart != start || got.incarnation != inc || got.sequencer != v.sequencer {
			return false
		}
		if len(got.members) != len(v.members) {
			return false
		}
		for i := range got.members {
			if got.members[i] != v.members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeViewRejectsTruncated(t *testing.T) {
	v := view{incarnation: 3, sequencer: 1}
	v.add(Member{ID: 0, Addr: 10})
	v.add(Member{ID: 1, Addr: 20})
	buf := encodeView(v, 7)
	for n := 0; n < len(buf); n++ {
		if _, _, err := decodeView(buf[:n]); err == nil {
			t.Fatalf("accepted %d-byte truncation", n)
		}
	}
}

func TestViewAddKeepsSortedAndReplaces(t *testing.T) {
	var v view
	v.add(Member{ID: 5, Addr: 50})
	v.add(Member{ID: 1, Addr: 10})
	v.add(Member{ID: 3, Addr: 30})
	ids := []MemberID{1, 3, 5}
	for i, m := range v.members {
		if m.ID != ids[i] {
			t.Fatalf("order broken: %+v", v.members)
		}
	}
	v.add(Member{ID: 3, Addr: 99}) // replace
	if m, _ := v.find(3); m.Addr != 99 {
		t.Fatalf("replace failed: %+v", m)
	}
	if len(v.members) != 3 {
		t.Fatalf("replace duplicated: %+v", v.members)
	}
}

func TestViewNextIDFillsGaps(t *testing.T) {
	var v view
	if v.nextID() != 0 {
		t.Fatal("empty view nextID != 0")
	}
	v.add(Member{ID: 0})
	v.add(Member{ID: 1})
	v.add(Member{ID: 3})
	if v.nextID() != 2 {
		t.Fatalf("nextID = %d, want 2", v.nextID())
	}
	v.add(Member{ID: 2})
	if v.nextID() != 4 {
		t.Fatalf("nextID = %d, want 4", v.nextID())
	}
}

func TestViewLowestOther(t *testing.T) {
	var v view
	v.add(Member{ID: 2})
	v.add(Member{ID: 4})
	v.add(Member{ID: 7})
	if got := v.lowestOther(2); got != 4 {
		t.Fatalf("lowestOther(2) = %d", got)
	}
	if got := v.lowestOther(4); got != 2 {
		t.Fatalf("lowestOther(4) = %d", got)
	}
	var solo view
	solo.add(Member{ID: 9})
	if got := solo.lowestOther(9); got != noMember {
		t.Fatalf("lowestOther on solo = %d", got)
	}
}

func TestViewRemove(t *testing.T) {
	var v view
	v.add(Member{ID: 0})
	v.add(Member{ID: 1})
	v.add(Member{ID: 2})
	v.remove(1)
	if _, ok := v.find(1); ok {
		t.Fatal("member 1 still present")
	}
	if len(v.members) != 2 {
		t.Fatalf("len = %d", len(v.members))
	}
	v.remove(42) // absent: no-op
	if len(v.members) != 2 {
		t.Fatal("removing absent member changed view")
	}
}

func TestHistoryAddGetPrune(t *testing.T) {
	h := newHistory(4)
	for s := uint32(1); s <= 4; s++ {
		if _, ok := h.add(entry{seq: s}); !ok {
			t.Fatalf("add %d failed", s)
		}
	}
	if _, ok := h.add(entry{seq: 5}); ok {
		t.Fatal("add beyond capacity succeeded")
	}
	if !h.full() {
		t.Fatal("not full at capacity")
	}
	h.pruneTo(2)
	if h.full() {
		t.Fatal("still full after pruning")
	}
	if _, ok := h.get(2); ok {
		t.Fatal("pruned entry still retrievable")
	}
	if _, ok := h.get(3); !ok {
		t.Fatal("unpruned entry lost")
	}
	if h.floor != 2 {
		t.Fatalf("floor = %d", h.floor)
	}
	// Pruning backwards is a no-op.
	h.pruneTo(1)
	if h.floor != 2 {
		t.Fatal("floor moved backwards")
	}
}

func TestHistoryContiguousTop(t *testing.T) {
	h := newHistory(10)
	if h.contiguousTop() != 0 {
		t.Fatal("empty top != floor")
	}
	h.add(entry{seq: 1})
	h.add(entry{seq: 2})
	h.add(entry{seq: 4})
	if got := h.contiguousTop(); got != 2 {
		t.Fatalf("contiguousTop = %d, want 2", got)
	}
	h.add(entry{seq: 3})
	if got := h.contiguousTop(); got != 4 {
		t.Fatalf("contiguousTop = %d, want 4", got)
	}
}

func TestHistoryTruncateAbove(t *testing.T) {
	h := newHistory(10)
	for s := uint32(1); s <= 6; s++ {
		h.add(entry{seq: s})
	}
	h.truncateAbove(4)
	if _, ok := h.get(5); ok {
		t.Fatal("entry above truncation survives")
	}
	if _, ok := h.get(4); !ok {
		t.Fatal("entry at truncation removed")
	}
}

func TestHistoryLargeFloorJumpIsCheap(t *testing.T) {
	h := newHistory(8)
	h.add(entry{seq: 1})
	// A joiner re-bases its floor by a huge jump; must not iterate the
	// whole range.
	h.pruneTo(1 << 30)
	if h.floor != 1<<30 {
		t.Fatalf("floor = %d", h.floor)
	}
	if h.len() != 0 {
		t.Fatal("entries survived giant prune")
	}
}

func TestMsgKindString(t *testing.T) {
	kinds := map[MsgKind]string{
		KindData: "data", KindJoin: "join", KindLeave: "leave",
		KindReset: "reset", KindExpelled: "expelled", MsgKind(99): "kind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodAuto.String() != "auto" || MethodPB.String() != "PB" || MethodBB.String() != "BB" {
		t.Fatal("method strings wrong")
	}
}

// decodeBatchBody reads a whole batch body as delivery does, part by part.
// The returned payloads alias body.
func decodeBatchBody(body []byte) ([][]byte, error) {
	count, parts, err := splitBatchBody(body)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, count)
	for i := range payloads {
		payloads[i], parts = nextBatchPart(parts)
	}
	return payloads, nil
}

func TestBatchBodyRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{[]byte("a")},
		{[]byte(""), []byte("b"), []byte("ccc")},
		{[]byte("x"), {}, []byte("yy"), []byte("zzzz"), {0, 1, 2, 255}},
	}
	for i, payloads := range cases {
		body := encodeBatchBody(payloads)
		if got := wireBatchCount(body); got != len(payloads) {
			t.Fatalf("case %d: wireBatchCount = %d, want %d", i, got, len(payloads))
		}
		parts, err := decodeBatchBody(body)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(parts) != len(payloads) {
			t.Fatalf("case %d: %d parts, want %d", i, len(parts), len(payloads))
		}
		for j := range parts {
			if string(parts[j]) != string(payloads[j]) {
				t.Fatalf("case %d part %d: %q != %q", i, j, parts[j], payloads[j])
			}
		}
	}
}

func TestBatchBodyRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{},                     // no count
		{0},                    // zero count
		{2, 1, 'a'},            // second payload missing
		{1, 5, 'a'},            // length overruns body
		{1, 1, 'a', 'b'},       // trailing bytes
		{0xff, 0xff, 0xff, 1},  // absurd count
		{0x80, 0x20},           // a count the bytes left cannot hold
		append([]byte{1}, 200), // truncated length varint
	}
	for i, body := range bad {
		if _, err := decodeBatchBody(body); err == nil {
			t.Fatalf("case %d: malformed body decoded", i)
		}
	}
	if _, ok := newBatchEntry(7, 3, 9, []byte{0}); ok {
		t.Fatal("newBatchEntry accepted malformed body")
	}
	// Refused before anything is allocated: believed, the count would cost a
	// 96 KiB slice for a 2-byte body.
	short := []byte{0x80, 0x20}
	if n := testing.AllocsPerRun(10, func() { decodeBatchBody(short) }); n != 0 {
		t.Fatalf("a 2-byte body claiming 4096 payloads allocated %v times", n)
	}
}

func TestBatchEntrySpansHistory(t *testing.T) {
	h := newHistory(8)
	e, ok := newBatchEntry(4, 1, 10, encodeBatchBody([][]byte{[]byte("a"), []byte("b"), []byte("c")}))
	if !ok {
		t.Fatal("newBatchEntry failed")
	}
	if e.lastSeq() != 6 || e.lastLocalID() != 12 || e.span() != 3 {
		t.Fatalf("span geometry wrong: lastSeq=%d lastLocalID=%d span=%d", e.lastSeq(), e.lastLocalID(), e.span())
	}
	stored, ok := h.add(e)
	if !ok {
		t.Fatal("add failed with room available")
	}
	for s := uint32(4); s <= 6; s++ {
		got, ok := h.get(s)
		if !ok || got != stored {
			t.Fatalf("seq %d not mapped to the batch entry", s)
		}
	}
	if h.len() != 3 {
		t.Fatalf("batch consumed %d slots, want 3", h.len())
	}
	// Capacity is counted per message: a 6-slot batch does not fit in the
	// remaining 5.
	big, _ := newBatchEntry(7, 1, 13, encodeBatchBody([][]byte{{}, {}, {}, {}, {}, {}}))
	if _, ok := h.add(big); ok {
		t.Fatal("add accepted a batch beyond capacity")
	}
	// Partial prune keeps the tail reachable.
	h.pruneTo(5)
	if _, ok := h.get(6); !ok {
		t.Fatal("partial prune dropped the batch tail")
	}
	if h.contiguousTop() != 6 {
		t.Fatalf("contiguousTop = %d", h.contiguousTop())
	}
}
