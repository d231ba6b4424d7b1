package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

const (
	numKeys   = 4096 // working set, preloaded before every measurement
	valueSize = 64
	// streamLen is the length of a client's pre-generated op cycle. A client
	// replays the cycle when it runs off the end; written values stay unique
	// because they carry the client's running counter, not the position.
	streamLen = 1 << 16
	// keyStride spaces the extra keys of a multi-key op from its first key.
	// It is odd, so the keys of one op are distinct.
	keyStride = 1021
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opBatchPut
	opMGet
	opTxn
)

func (k opKind) String() string { return callSpans[k][len("call/"):] }

// callSpans names the harness span around a call of each kind.
var callSpans = [...]string{"call/put", "call/get", "call/batchput", "call/mget", "call/txn"}

// isWrite classes a call for write_p50_us / read_p50_us. A Txn both reads and
// writes; it commits through the write path, so it counts as a write.
func (k opKind) isWrite() bool { return k == opPut || k == opBatchPut || k == opTxn }

// mixEntry gives one op kind its share of a workload, in percent.
type mixEntry struct {
	kind opKind
	pct  int
}

// An op is one word of a stream: the kind in the top byte, the first key's
// index in the low 16 bits.
type op uint32

func (o op) kind() opKind { return opKind(o >> 24) }
func (o op) key(j int) int {
	return (int(o&0xffff) + j*keyStride) % numKeys
}

// genStream returns client's op cycle for a workload: a pure function of
// (workload, seed, client). The program under test sees only these ops.
func genStream(workload string, seed int64, client int, mix []mixEntry) []op {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, client)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	s := make([]op, streamLen)
	for i := range s {
		roll, kind := rng.Intn(100), mix[len(mix)-1].kind
		for _, m := range mix {
			if roll < m.pct {
				kind = m.kind
				break
			}
			roll -= m.pct
		}
		s[i] = op(uint32(kind)<<24 | uint32(rng.Intn(numKeys)))
	}
	return s
}

func streamHash(s []op) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, o := range s {
		b[0], b[1], b[2], b[3] = byte(o), byte(o>>8), byte(o>>16), byte(o>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// keyTable is the fixed key set; keys are equal-length so the value layout
// below is fixed too.
func keyTable() []string {
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	return keys
}

// preloadWriter is the writer id stamped into preloaded values; clients are
// 0, 1, ….
const preloadWriter = 9

// fillValue writes "<key>|<writer>|<counter>" padded with '.' to valueSize
// bytes into buf, without allocating. (key, writer, counter) is unique per
// write, so every value identifies the write that produced it.
func fillValue(buf *[valueSize]byte, key string, writer int, counter uint64) []byte {
	b := append(buf[:0], key...)
	b = append(b, '|', byte('0'+writer), '|')
	b = strconv.AppendUint(b, counter, 10)
	for len(b) < valueSize {
		b = append(b, '.')
	}
	return b
}

// parseValue checks that v is a value written to key and returns who wrote it
// and with which counter.
func parseValue(v []byte, key string) (writer int, counter uint64, ok bool) {
	n := len(key)
	if len(v) != valueSize || string(v[:n]) != key || v[n] != '|' || v[n+2] != '|' {
		return 0, 0, false
	}
	writer = int(v[n+1] - '0')
	i := n + 3
	for ; i < len(v) && v[i] >= '0' && v[i] <= '9'; i++ {
		counter = counter*10 + uint64(v[i]-'0')
	}
	if i == n+3 {
		return 0, 0, false
	}
	for ; i < len(v); i++ {
		if v[i] != '.' {
			return 0, 0, false
		}
	}
	return writer, counter, true
}
