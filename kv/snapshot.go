package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// A shard snapshot — what a joiner's state transfer carries and what a WAL
// checkpoint stores — is the replicated state in a versioned, length-prefixed
// binary form:
//
//	version(1) = snapshotVersion
//	items      count | { key | value }*
//	window     uvarint: the result window's size
//	results    count | { id(8) | flags(1) | txnState(1) | key [| values | found] }*
//	routing    0 | 1 routing   (0: the shard was built without a table)
//	pending    0 | 1 routing
//	txns       count | { portion }*
//	txnOrder   count | { id(8) }*
//
// with a transaction portion
//
//	txnID(8) | state(1) | homeKey | allKeys | reads | values | found | writes | conds
//
// Counts, byte strings, key lists, writes, conditions and routing tables are
// spelled as in the command codec (codec.go); values is a count and that many
// byte strings, found a count and that many bytes. A result's flags are OK
// (bit 0), Conflict (1), CondFailed (2), and whether read values follow (3).
// Results come oldest first, so the restored window evicts in the same order.
//
// The bytes are not canonical — items come in map order — but the state is:
// a restored replica digests (StateDigest) exactly as the one that took the
// snapshot did, which is what checkpoint verification and the audits compare.
const snapshotVersion = 1

// maxRingPoints bounds the routing tables a snapshot may carry: Restore builds
// a ring of Shards×VNodes points from each, so a few hostile bytes must not
// claim billions. It is 1024 shards at the default 64 points each.
const maxRingPoints = 1 << 16

var errBadSnapshot = errors.New("kv: malformed snapshot")

// Snapshot serialises the shard for atomic state transfer to a joiner and for
// WAL checkpoints.
func (s *mapSM) Snapshot() ([]byte, error) {
	// One buffer, sized for the items and results up front: a checkpoint
	// snapshots the whole shard every CheckpointEvery commands.
	size := 64
	for k, v := range s.items {
		size += len(k) + len(v) + 2*binary.MaxVarintLen32
	}
	for _, run := range s.results.fifo() {
		for i := range run {
			size += 10 + binary.MaxVarintLen32 + len(run[i].res.Key)
		}
	}
	dst := make([]byte, 0, size)
	dst = append(dst, snapshotVersion)
	dst = binary.AppendUvarint(dst, uint64(len(s.items)))
	for k, v := range s.items {
		dst = appendBytes(dst, []byte(k))
		dst = appendBytes(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(s.results.window))
	dst = binary.AppendUvarint(dst, uint64(s.results.len()))
	for _, run := range s.results.fifo() {
		for i := range run {
			dst = appendResult(dst, run[i].id, &run[i].res)
		}
	}
	var routing *Routing
	if s.routing.Shards > 0 {
		routing = &s.routing
	}
	dst = appendOptRouting(dst, routing)
	dst = appendOptRouting(dst, s.pending)
	dst = binary.AppendUvarint(dst, uint64(len(s.txns)))
	for _, p := range s.txns {
		dst = appendPortion(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.txnOrder)))
	for _, id := range s.txnOrder {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst, nil
}

// Restore replaces the shard state with a snapshot. A nil snapshot resets
// the shard to its zero state — the wal recovery path uses this when every
// digest-stamped checkpoint was refused and replay must start from scratch
// (see wal.Log.RecoverVerified). A snapshot in another format — the JSON one
// older builds wrote — is refused by name, never restored as something else.
func (s *mapSM) Restore(snap []byte) error {
	st := shardState{items: make(map[string][]byte), results: newResultWindow(s.results.window, 0)}
	if snap != nil {
		var err error
		if st, err = decodeSnapshot(snap); err != nil {
			return err
		}
	}
	s.items, s.results = st.items, st.results
	s.routing, s.curRing = s.initRouting, nil
	if st.routing != nil {
		s.routing = *st.routing
	}
	if s.routing.Shards > 0 {
		s.curRing = s.routing.ring(s.store)
	}
	s.pending, s.pendRing = st.pending, nil
	if s.pending != nil {
		s.pendRing = s.pending.ring(s.store)
	}
	s.txns = make(map[uint64]*txnPortion, len(st.txns))
	s.locks = make(map[string]uint64)
	s.lockSeen = make(map[uint64]time.Time)
	for _, p := range st.txns {
		s.txns[p.TxnID] = p
		if p.State == txnStatePrepared {
			for _, k := range p.localKeys() {
				s.locks[k] = p.TxnID
			}
			s.touchLock(p.TxnID)
		}
	}
	s.txnOrder = st.txnOrder
	s.notifyRouting()
	return nil
}

// shardState is a decoded snapshot, before Restore derives the rings, locks
// and lock stamps from it.
type shardState struct {
	items    map[string][]byte
	results  resultWindow
	routing  *Routing // nil: none, the constructor's table stands
	pending  *Routing
	txns     []*txnPortion
	txnOrder []uint64
}

// decodeSnapshot parses a snapshot. Nothing in it is trusted — a transfer
// reply comes from whoever answers at a well-known address — so every count is
// believed only up to what the bytes left could hold at the element's minimum
// size, and everything kept is copied out of snap, which is only borrowed.
func decodeSnapshot(snap []byte) (shardState, error) {
	switch {
	case len(snap) > 0 && snap[0] == '{':
		return shardState{}, fmt.Errorf("kv: the snapshot is JSON, the format before binary snapshot version %d; data written by that build is unsupported", snapshotVersion)
	case len(snap) == 0 || snap[0] != snapshotVersion:
		return shardState{}, fmt.Errorf("%w: unknown snapshot format (this build reads binary version %d)", errBadSnapshot, snapshotVersion)
	}
	r := &snapReader{b: snap[1:]}
	var st shardState
	n := r.count(2) // a key and a value: one length byte each
	st.items = make(map[string][]byte, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		st.items[k] = r.bytes()
	}
	window := r.uvarint()
	if window == 0 || window > math.MaxInt32 {
		r.fail()
	}
	n = r.count(11) // id, flags, txn state, key length
	st.results = newResultWindow(int(window), n)
	for i := 0; i < n && r.err == nil; i++ {
		id := r.u64()
		st.results.set(id, r.result())
	}
	st.routing, st.pending = r.routing(), r.routing()
	n = r.count(16) // id, state, and seven empty strings or lists
	st.txns = make([]*txnPortion, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		st.txns = append(st.txns, r.portion())
	}
	n = r.count(8)
	st.txnOrder = make([]uint64, n)
	for i := range st.txnOrder {
		st.txnOrder[i] = r.u64()
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	return st, r.err
}

// snapReader reads a snapshot front to back. Its first failure sticks: every
// later read returns a zero value, and the decoder reports the failure.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = errBadSnapshot
	}
	r.b = nil
}

func (r *snapReader) u8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *snapReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *snapReader) uvarint() uint64 {
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

// count reads an element count and believes it only up to what the bytes left
// could hold at minSize bytes an element.
func (r *snapReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// raw reads a byte string in place; callers copy what they keep.
func (r *snapReader) raw() []byte {
	b, rest, err := takeBytes(r.b)
	if err != nil {
		r.fail()
		return nil
	}
	r.b = rest
	return b
}

func (r *snapReader) str() string { return string(r.raw()) }

func (r *snapReader) bytes() []byte { return copyVal(r.raw()) }

func (r *snapReader) values() [][]byte {
	out := make([][]byte, r.count(1))
	for i := range out {
		out[i] = r.bytes()
	}
	return out
}

func (r *snapReader) found() []bool {
	out := make([]bool, r.count(1))
	for i := range out {
		out[i] = r.u8() != 0
	}
	return out
}

// list reads one of the command codec's lists (takeKeys, takeTxnWrites,
// takeTxnConds), which clamp their own counts.
func list[T any](r *snapReader, take func([]byte) ([]T, []byte, error)) []T {
	if r.err != nil {
		return nil
	}
	out, rest, err := take(r.b)
	if err != nil {
		r.fail()
		return nil
	}
	r.b = rest
	return out
}

func (r *snapReader) routing() *Routing {
	if r.u8() == 0 {
		return nil
	}
	rt, rest, err := takeRouting(r.b)
	if err != nil || rt.points() > maxRingPoints {
		r.fail()
		return nil
	}
	r.b = rest
	return &rt
}

func (r *snapReader) result() result {
	var res result
	flags := r.u8()
	res.OK, res.Conflict, res.CondFailed = flags&1 != 0, flags&2 != 0, flags&4 != 0
	res.TxnState = r.u8()
	res.Key = r.str()
	if flags&8 != 0 {
		res.Values, res.Found = r.values(), r.found()
	}
	return res
}

func (r *snapReader) portion() *txnPortion {
	p := &txnPortion{TxnID: r.u64(), State: r.u8(), HomeKey: r.str()}
	p.AllKeys, p.Reads = list(r, takeKeys), list(r, takeKeys)
	p.Values, p.Found = r.values(), r.found()
	p.Writes, p.Conds = list(r, takeTxnWrites), list(r, takeTxnConds)
	// The codec's lists alias the bytes they were read from.
	for i := range p.Writes {
		p.Writes[i].Val = copyVal(p.Writes[i].Val)
	}
	for i := range p.Conds {
		p.Conds[i].Expect = copyVal(p.Conds[i].Expect)
	}
	return p
}

func appendOptRouting(dst []byte, rt *Routing) []byte {
	if rt == nil {
		return append(dst, 0)
	}
	return appendRouting(append(dst, 1), *rt)
}

func appendResult(dst []byte, id uint64, r *result) []byte {
	var flags byte
	if r.OK {
		flags |= 1
	}
	if r.Conflict {
		flags |= 2
	}
	if r.CondFailed {
		flags |= 4
	}
	reads := len(r.Values) > 0 || len(r.Found) > 0
	if reads {
		flags |= 8
	}
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, flags, r.TxnState)
	dst = appendBytes(dst, []byte(r.Key))
	if reads {
		dst = appendValues(dst, r.Values)
		dst = appendFound(dst, r.Found)
	}
	return dst
}

func appendPortion(dst []byte, p *txnPortion) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.TxnID)
	dst = append(dst, p.State)
	dst = appendBytes(dst, []byte(p.HomeKey))
	dst = appendKeys(dst, p.AllKeys)
	dst = appendKeys(dst, p.Reads)
	dst = appendValues(dst, p.Values)
	dst = appendFound(dst, p.Found)
	dst = appendTxnWrites(dst, p.Writes)
	return appendTxnConds(dst, p.Conds)
}

func appendValues(dst []byte, vals [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = appendBytes(dst, v)
	}
	return dst
}

func appendFound(dst []byte, found []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(found)))
	for _, f := range found {
		if f {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}
