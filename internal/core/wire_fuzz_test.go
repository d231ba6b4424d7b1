package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"amoeba/internal/flip"
)

// FuzzDecodeWire holds the decoders a member runs on whatever arrives at its
// group address — decodePacket, and on a packet's body decodeBatchBody,
// decodeView and decodeLeaseGrants — to three properties on arbitrary bytes:
// none panics; none allocates more than 64× the input's length plus 4 KiB,
// whatever its counts claim; and what each accepts is something its encoder
// says — it re-encodes to bytes that decode to the same value.
func FuzzDecodeWire(f *testing.F) {
	v := view{incarnation: 3, sequencer: 1, members: []Member{{ID: 0, Addr: flip.Address(0xa1)}, {ID: 1, Addr: flip.Address(0xb2)}}}
	pkt := packet{typ: ptBcast, kind: KindBatch, sender: 2, view: 3, seq: 40, localID: 7, lastRecv: 39, aux: 1, aux2: 2,
		payload: encodeBatchBody([][]byte{[]byte("a"), {}, bytes.Repeat([]byte{7}, 200)})}
	for _, seed := range [][]byte{
		pkt.encode(),
		encodeBatchBody([][]byte{[]byte("one"), []byte("two")}),
		encodeView(v, 41),
		encodeLeaseGrants(800*time.Millisecond, []MemberID{0, 2}),
	} {
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			p              packet
			parts          [][]byte
			v              view
			start          uint32
			dur            time.Duration
			ids            []MemberID
			pErr, bErr     error
			vErr, leaseErr error
		)
		bound := 64*uint64(len(b)) + 4096
		if got := allocated(bound, func() {
			p, pErr = decodePacket(b)
			parts, bErr = decodeBatchBody(b)
			v, start, vErr = decodeView(b)
			dur, ids, leaseErr = decodeLeaseGrants(b)
		}); got > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if pErr == nil {
			if again := p.encode(); !bytes.Equal(again, b) {
				t.Fatalf("packet re-encodes differently:\n in  % x\n out % x", b, again)
			}
		}
		if bErr == nil {
			again, err := decodeBatchBody(encodeBatchBody(parts))
			if err != nil || !reflect.DeepEqual(again, parts) {
				t.Fatalf("re-encoded batch decodes to %q, %v; want %q", again, err, parts)
			}
		}
		if vErr == nil {
			again, s, err := decodeView(encodeView(v, start))
			if err != nil || s != start || !reflect.DeepEqual(again, v) {
				t.Fatalf("re-encoded view decodes to %+v@%d, %v; want %+v@%d", again, s, err, v, start)
			}
		}
		if leaseErr == nil {
			d, again, err := decodeLeaseGrants(encodeLeaseGrants(dur, ids))
			if err != nil || d != dur || !slices.Equal(again, ids) {
				t.Fatalf("re-encoded grants decode to %v %v, %v; want %v %v", d, again, err, dur, ids)
			}
		}
	})
}

// allocated reports the heap bytes f allocates, the least of three readings
// when the first is over bound (a straggler goroutine can add to a reading).
func allocated(bound uint64, f func()) uint64 {
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
