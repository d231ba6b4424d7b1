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
// byte strings, found a count and that many bytes. A tombstone record (see
// mapSM.tombs) is a resolved portion already in this spelling, and is written
// as it is stored. A result's flags are OK
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
	// One buffer, sized for the items, results and tombstones up front: a
	// checkpoint snapshots the whole shard every CheckpointEvery commands.
	size := 64
	for _, rec := range s.tombs {
		size += len(rec)
	}
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
	dst = binary.AppendUvarint(dst, uint64(len(s.txns)+len(s.tombs)))
	for _, p := range s.txns {
		dst = appendPortion(dst, p)
	}
	for _, rec := range s.tombs {
		dst = append(dst, rec...) // a record is a portion as this spells it
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
	// A resolved portion is kept as it came, not trimmed the way a resolve
	// or an import trims one: the state is the snapshotted one, and digests
	// to its stamp. A later portion of the same id replaces an earlier one.
	s.txns = make(map[uint64]*txnPortion)
	s.tombs = make(map[uint64][]byte)
	for _, p := range st.txns {
		if p.State == txnStatePrepared {
			delete(s.tombs, p.TxnID)
			s.txns[p.TxnID] = p
		} else {
			delete(s.txns, p.TxnID)
			s.setRecord(p)
		}
	}
	s.locks = make(map[string]uint64)
	s.lockSeen = make(map[uint64]time.Time)
	for id, p := range s.txns {
		for _, k := range p.localKeys() {
			s.locks[k] = id
		}
		s.touchLock(id)
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
// reply comes from whoever answers at a well-known address — so it reads
// through the codec's reader, which believes a count only up to what the bytes
// left can hold, and everything kept is copied out of snap, which is only
// borrowed.
func decodeSnapshot(snap []byte) (shardState, error) {
	switch {
	case len(snap) > 0 && snap[0] == '{':
		return shardState{}, fmt.Errorf("kv: the snapshot is JSON, the format before binary snapshot version %d; data written by that build is unsupported", snapshotVersion)
	case len(snap) == 0 || snap[0] != snapshotVersion:
		return shardState{}, fmt.Errorf("%w: unknown snapshot format (this build reads binary version %d)", errBadSnapshot, snapshotVersion)
	}
	r := &reader{b: snap[1:]}
	var st shardState
	n := r.count(2) // a key and a value: one length byte each
	st.items = make(map[string][]byte, n)
	for i := 0; i < n && !r.failed; i++ {
		k := r.str()
		st.items[k] = r.bytes()
	}
	window := int(r.upTo(math.MaxInt32))
	if window == 0 {
		r.fail()
	}
	n = r.count(11) // id, flags, txn state, key length
	st.results = newResultWindow(window, n)
	for i := 0; i < n && !r.failed; i++ {
		id := r.u64()
		st.results.set(id, r.result())
	}
	st.routing, st.pending = r.optRouting(), r.optRouting()
	n = r.count(minPortionBytes)
	st.txns = make([]*txnPortion, 0, n)
	for i := 0; i < n && !r.failed; i++ {
		st.txns = append(st.txns, r.portion())
	}
	n = r.count(8)
	st.txnOrder = make([]uint64, n)
	for i := range st.txnOrder {
		st.txnOrder[i] = r.u64()
	}
	if len(r.b) != 0 || r.failed {
		return st, errBadSnapshot
	}
	return st, nil
}

// optRouting reads what appendOptRouting wrote.
func (r *reader) optRouting() *Routing {
	if !r.flag() {
		return nil
	}
	rt := r.routing()
	if rt.points() > maxRingPoints {
		r.fail()
	}
	return &rt
}

func (r *reader) result() result {
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

// minPortionBytes is the least a portion takes: id, state, and seven empty
// strings or lists.
const minPortionBytes = 16

// portion reads a transaction portion, a snapshot's or a migrate import's.
// It copies out everything it keeps: a portion outlives the bytes it came in.
func (r *reader) portion() *txnPortion {
	p := &txnPortion{TxnID: r.u64(), State: r.u8(), HomeKey: r.str(), AllKeys: r.keys(), Reads: r.keys(),
		Values: r.values(), Found: r.found(), Writes: r.writes(), Conds: r.conds()}
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
		dst = appendBool(dst, f)
	}
	return dst
}
