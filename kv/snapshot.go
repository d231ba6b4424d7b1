package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// A shard snapshot — what a joiner's state transfer carries and what a WAL
// checkpoint stores — is the replicated state in a versioned, length-prefixed
// binary form:
//
//	version(1) = snapshotVersion
//	items      count | { key | value }*
//	routing    0 | 1 routing   (0: the shard was built without a table)
//	pending    0 | 1 routing
//	txns       count | { portion }*   (the prepared portions)
//	clock      uvarint: the newest session birth applied
//	sessions   count | { session(8) | ack uvarint | outcomes | records }*
//
// with a session's outcomes and records
//
//	outcomes   count | { seq−ack uvarint | ok(1) | key }*
//	records    count | { portion }*   (its resolved attempts)
//
// and a transaction portion
//
//	state(1) | session(8) | seq uvarint | attempt uvarint | homeKey | allKeys | reads | values | found | writes | conds
//
// Counts, byte strings, key lists, writes, conditions and routing tables are
// spelled as in the command codec (codec.go). The captured reads are three
// lists of one length (appendReads): reads a key list, values a count and
// that many byte strings, found a count and that many bytes. A record (see
// setRecord) is a resolved portion already in this spelling, and is written
// as it is stored. A session's outcomes and records come in seq order.
//
// The bytes are not canonical — items and sessions come in map order — but
// the state is: a restored replica digests (StateDigest) exactly as the one
// that took the snapshot did, which is what checkpoint verification and the
// audits compare.
const snapshotVersion = 2

// maxRingPoints bounds the routing tables a snapshot may carry: Restore builds
// a ring of Shards×VNodes points from each, so a few hostile bytes must not
// claim billions. It is 1024 shards at the default 64 points each.
const maxRingPoints = 1 << 16

var errBadSnapshot = errors.New("kv: malformed snapshot")

// Snapshot serialises the shard for atomic state transfer to a joiner and for
// WAL checkpoints.
func (s *mapSM) Snapshot() ([]byte, error) {
	// One buffer, sized for the items, outcomes and records up front: a
	// checkpoint snapshots the whole shard each time one comes due.
	// It is the one kv encoder that sizes its output instead of going
	// through spell: a shard-sized scratch buffer would stay in the pool,
	// and one grown by doubling would allocate a checkpoint's bytes about
	// twice over.
	size := 64
	for k, v := range s.items {
		size += len(k) + len(v) + 2*binary.MaxVarintLen32
	}
	for _, st := range s.sessions {
		size += 8 + 3*binary.MaxVarintLen64
		for _, o := range st.outcomes {
			size += 1 + 2*binary.MaxVarintLen64 + len(o.key)
		}
		for _, r := range st.records {
			size += len(r.rec)
		}
	}
	dst := make([]byte, 0, size)
	dst = append(dst, snapshotVersion)
	dst = binary.AppendUvarint(dst, uint64(len(s.items)))
	for k, v := range s.items {
		dst = appendBytes(dst, []byte(k))
		dst = appendBytes(dst, v)
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
	dst = binary.AppendUvarint(dst, s.clock)
	dst = binary.AppendUvarint(dst, uint64(len(s.sessions)))
	for id, st := range s.sessions {
		dst = binary.BigEndian.AppendUint64(dst, id)
		dst = binary.AppendUvarint(dst, st.ack)
		dst = appendOutcomes(dst, st.ack, st.outcomes)
		dst = binary.AppendUvarint(dst, uint64(len(st.records)))
		for _, r := range st.records {
			dst = append(dst, r.rec...) // a record is a portion as this spells it
		}
	}
	return dst, nil
}

// Restore replaces the shard state with a snapshot. A nil snapshot resets
// the shard to its zero state — the wal recovery path uses this when every
// digest-stamped checkpoint was refused and replay must start from scratch
// (see wal.Log.Recover). A snapshot in another format — the JSON one
// or binary version 1, which older builds wrote — is refused by name, never
// restored as something else.
func (s *mapSM) Restore(snap []byte) error {
	var st shardState
	if snap != nil {
		var err error
		if st, err = decodeSnapshot(snap); err != nil {
			return err
		}
	}
	s.reset(st)
	s.notifyRouting()
	return nil
}

// reset replaces the replicated state with st and derives the rest from it:
// the rings, the locks and their stamps, the digest sums. A zero st is the
// state a new replica starts in, under the constructor's table.
func (s *mapSM) reset(st shardState) {
	s.items = st.items
	if s.items == nil {
		s.items = make(map[string][]byte)
	}
	rt := s.initRouting
	if st.routing != nil {
		rt = *st.routing
	}
	s.route(rt, st.pending)
	s.txns, s.locks, s.lockSeen = make(map[txnID]*txnPortion), make(map[string]txnID), make(map[txnID]time.Time)
	for _, p := range st.txns {
		s.hold(p)
	}
	// The sessions are rebuilt entry by entry, so that the digest sum is
	// the one their folds add up to. A record is kept as it came, not
	// trimmed the way a resolve or an import trims one: the state is the
	// snapshotted one, and digests to its stamp.
	s.clock, s.sessSum = st.clock, 0
	s.sessions = make(map[uint64]*sessionState, len(st.sessions))
	for _, m := range st.sessions {
		ss := &sessionState{ack: m.Ack, outcomes: m.Outcomes}
		s.sessions[m.ID] = ss
		s.sessSum += sessionSum(m.ID, m.Ack)
		for _, o := range m.Outcomes {
			s.sessSum += o.sum
		}
		for _, p := range st.records[m.ID] {
			s.setRecord(p)
		}
	}
}

// shardState is a decoded snapshot, before reset derives the rings, locks,
// lock stamps and digest sums from it.
type shardState struct {
	items    map[string][]byte
	routing  *Routing // nil: none, the constructor's table stands
	pending  *Routing
	txns     []*txnPortion
	clock    uint64
	sessions []movedSession
	records  map[uint64][]*txnPortion // by session, in seq order
}

// decodeSnapshot parses a snapshot. Nothing in it is trusted — a transfer
// reply comes from whoever answers at a well-known address — so it reads
// through the codec's reader, which believes a count only up to what the bytes
// left can hold, and everything kept is copied out of snap, which is only
// borrowed. It refuses what no shard could have written: a resolved portion
// among the prepared ones, an attempt prepared twice or two prepared
// attempts locking one key, a session twice, an outcome or record below its
// session's ack or out of seq order, a record of another session.
func decodeSnapshot(snap []byte) (shardState, error) {
	switch {
	case len(snap) > 0 && snap[0] == '{':
		return shardState{}, fmt.Errorf("kv: the snapshot is JSON, the format before binary snapshot version %d; data written by that build is unsupported", snapshotVersion)
	case len(snap) > 0 && snap[0] == 1:
		return shardState{}, fmt.Errorf("kv: the snapshot is binary version 1, the format before client sessions; data written by that build is unsupported")
	case len(snap) == 0 || snap[0] != snapshotVersion:
		return shardState{}, fmt.Errorf("%w: unknown snapshot format (this build reads binary version %d)", errBadSnapshot, snapshotVersion)
	}
	r := &reader{b: snap[1:]}
	var st shardState
	n := r.count(2) // a key and a value: one length byte each
	st.items = make(map[string][]byte, n)
	for i := 0; i < n && !r.failed; i++ {
		k, v := r.pair()
		st.items[k] = v
	}
	st.routing, st.pending = r.optRouting(), r.optRouting()
	n = r.count(minPortionBytes)
	st.txns = make([]*txnPortion, 0, n)
	held := make(map[txnID]bool, n)
	locks := make(map[string]txnID)
	for i := 0; i < n && !r.failed; i++ {
		p := r.portion()
		if p.State != txnStatePrepared || held[p.ID] || !p.everyKey(func(k string) bool {
			owner, locked := locks[k]
			locks[k] = p.ID
			return !locked || owner == p.ID
		}) {
			r.fail()
		}
		held[p.ID] = true
		st.txns = append(st.txns, p)
	}
	st.clock = r.uvarint()
	n = r.count(11) // an id, an ack and two counts
	st.sessions = make([]movedSession, 0, n)
	st.records = make(map[uint64][]*txnPortion)
	seen := make(map[uint64]bool, n)
	for i := 0; i < n && !r.failed; i++ {
		m := movedSession{ID: r.u64(), Ack: r.uvarint()}
		if seen[m.ID] {
			r.fail()
		}
		seen[m.ID] = true
		m.Outcomes = r.outcomes(m.ID, m.Ack)
		recs := r.count(minPortionBytes)
		var last *txnPortion
		for j := 0; j < recs && !r.failed; j++ {
			p := r.portion()
			if p.State == txnStatePrepared || p.ID.session != m.ID || p.ID.seq < m.Ack ||
				last != nil && last.ID.compare(p.ID) >= 0 {
				r.fail()
			}
			st.records[m.ID] = append(st.records[m.ID], p)
			last = p
		}
		st.sessions = append(st.sessions, m)
	}
	if len(r.b) != 0 || r.failed {
		return st, errBadSnapshot
	}
	return st, nil
}

// appendOutcomes spells a session's outcomes, each seq as its distance above
// the session's ack.
func appendOutcomes(dst []byte, ack uint64, outcomes []outcome) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(outcomes)))
	for _, o := range outcomes {
		dst = binary.AppendUvarint(dst, o.seq-ack)
		dst = appendBool(dst, o.ok)
		dst = appendBytes(dst, []byte(o.key))
	}
	return dst
}

// outcomes reads what appendOutcomes spelled, refusing seqs out of order.
func (r *reader) outcomes(session, ack uint64) []outcome {
	out := make([]outcome, r.count(3)) // a seq, a flag and a length byte
	for i := range out {
		o := &out[i]
		o.seq = ack + r.uvarint()
		o.ok, o.key = r.flag(), r.str()
		o.sum = outcomeSum(session, o.seq, o.ok, o.key)
		if o.seq < ack || i > 0 && o.seq <= out[i-1].seq {
			r.fail()
		}
	}
	return out
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

// minPortionBytes is the least a portion takes: state, session, seq,
// attempt, and seven empty strings or lists.
const minPortionBytes = 18

// portion reads a transaction portion, a snapshot's or a migrate import's.
// It copies out everything it keeps: a portion outlives the bytes it came in.
func (r *reader) portion() *txnPortion {
	p := &txnPortion{State: r.u8(), ID: txnID{session: r.u64(), seq: r.uvarint(), attempt: r.attempt()},
		HomeKey: r.str(), AllKeys: r.names(), Reads: r.reads(), Writes: r.writes(false), Conds: r.conds(false)}
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

func appendPortion(dst []byte, p *txnPortion) []byte {
	dst = append(dst, p.State)
	dst = binary.BigEndian.AppendUint64(dst, p.ID.session)
	dst = binary.AppendUvarint(dst, p.ID.seq)
	dst = binary.AppendUvarint(dst, uint64(p.ID.attempt))
	dst = appendBytes(dst, []byte(p.HomeKey))
	dst = appendKeys(dst, p.AllKeys)
	dst = appendReads(dst, p.Reads)
	dst = appendTxnWrites(dst, p.Writes)
	return appendTxnConds(dst, p.Conds)
}

// appendReads spells a portion's captured reads as three lists of one
// length: the keys, their values, their found bits.
func appendReads(dst []byte, reads []txnRead) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(reads)))
	for _, rd := range reads {
		dst = appendBytes(dst, []byte(rd.Key))
	}
	dst = binary.AppendUvarint(dst, uint64(len(reads)))
	for _, rd := range reads {
		dst = appendBytes(dst, rd.Val)
	}
	dst = binary.AppendUvarint(dst, uint64(len(reads)))
	for _, rd := range reads {
		dst = appendBool(dst, rd.Found)
	}
	return dst
}

// reads reads what appendReads spelled, refusing lists of unequal length.
// Each read takes at least three bytes: a key's length, a value's, a flag.
func (r *reader) reads() []txnRead {
	out := make([]txnRead, r.count(3))
	for i := range out {
		out[i].Key = r.str()
	}
	if r.count(1) != len(out) {
		r.fail()
	}
	for i := range out {
		out[i].Val = r.bytes()
	}
	if r.count(1) != len(out) {
		r.fail()
	}
	for i := range out {
		out[i].Found = r.flag()
	}
	return out
}
