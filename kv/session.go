package kv

import (
	"cmp"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Exactly-once by client session, after RIFL (Lee et al., SOSP 2015) and the
// Raft dissertation §6.3 (Ongaro, 2014).
//
// Every client numbers its commands within a session, and every command
// carries (session, seq, ack): ack is the client's lowest seq whose caller is
// still waiting — everything below it the client has acknowledged, answered
// or abandoned. A shard keeps, per session, its ack and, at or above it, the
// outcome of every command of the session it executed and the record of
// every transaction attempt of the session it resolved. A command at or above
// ack that already has an outcome is answered with it (a retry); one below ack
// is answered Stale and never executes (a late duplicate). So what a shard
// keeps is freed when the client acknowledges it, the way the sequencer frees
// its history buffer when every member has acknowledged it — not after a count
// of later commands, which a slow duplicate can outlive.
//
// A session id carries its birth minute in its top bits. A shard's clock is
// the newest birth it has applied; a session born more than sessionTTL before
// that clock is dropped with all it holds, and its commands are refused, never
// executed. A client opens a fresh session every sessionTTL/2, so its current
// one stays live as long as its clock trails the fastest client's by less
// than sessionTTL/2 — that is the clock skew the scheme tolerates. A node
// refuses a session born more than sessionTTL/2 ahead of its own clock before
// it submits a request of it (futureSession): one client whose clock runs ahead, or
// a forged id, must not be able to move every shard's clock on and expire
// every other session. So a client's clock may also lead the nodes' by less
// than sessionTTL/2, and the nodes' own clocks must agree to that much. A
// transaction left in doubt longer than sessionTTL loses its home's decision
// record the same way, and its recovery is then refused as stale, so its
// participants keep their locks rather than guess the decision; the recovery
// janitor resolves an in-doubt transaction within seconds of its locks.

// sessionTTL is how long, in minutes, a shard keeps a session after its birth
// by the shard's clock.
const sessionTTL = 10

// sessionBornBits is the width of a session id's birth minute, counted from
// the Unix epoch: 2^28 minutes last until the year 2480, and leave 36 random
// bits to tell apart the sessions born in one minute.
const sessionBornBits = 28

// newSessionID mints a session born at now.
func newSessionID(now time.Time) uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("kv: reading a session id: %v", err))
	}
	return uint64(now.Unix()/60)<<(64-sessionBornBits) | binary.BigEndian.Uint64(b[:])>>sessionBornBits
}

// sessionBorn is a session id's birth minute.
func sessionBorn(session uint64) uint64 { return session >> (64 - sessionBornBits) }

// futureSession refuses a session born more than sessionTTL/2 after now, by
// the clock of the node a request enters. It is checked before submission,
// never in Apply: what each node's clock says is not replicated state.
func futureSession(session uint64, now time.Time) error {
	if ahead := int64(sessionBorn(session)) - now.Unix()/60; ahead > sessionTTL/2 {
		return fmt.Errorf("kv: session %016x born %d minutes ahead of this node's clock", session, ahead)
	}
	return nil
}

// cmdID folds (session, seq) into the 64-bit id a command's local waiter and
// its trace spans go by.
func cmdID(session, seq uint64) uint64 { return session ^ seq*0x9E3779B97F4A7C15 }

// waitID is the id a command's waiter registers under: cmdID, and for the
// transaction ops — which share their transaction's (session, seq) — mixed
// with the op and the attempt, so a prepare and a resolve of one attempt, or
// two attempts, are never answered for each other.
func waitID(op byte, session, seq uint64, attempt uint32) uint64 {
	id := cmdID(session, seq)
	if op == opTxnPrepare || op == opTxnResolve {
		id ^= (uint64(attempt)<<8 | uint64(op)) * 0xBF58476D1CE4E5B9
	}
	return id
}

// session is a client's half: it numbers the client's commands within the
// current session and keeps the ack. Safe for concurrent callers; begin and
// end allocate nothing once the ring is as wide as the most commands ever
// outstanding at once.
type session struct {
	mu      sync.Mutex
	id      uint64
	renewAt time.Time
	next    uint64 // the next seq handed out; seqs start at 1
	ack     uint64 // the lowest seq not yet ended (next when none is out)
	ended   []bool // a ring over [ack, next): ended[seq & (len-1)]
}

// begin numbers n commands: it returns the session, the first of n
// consecutive seqs, and the ack to send with them.
func (s *session) begin(n int) (id, first, ack uint64) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id == 0 || now.After(s.renewAt) {
		s.id, s.renewAt = newSessionID(now), now.Add(sessionTTL*time.Minute/2)
		s.next, s.ack = 1, 1
		clear(s.ended)
	}
	if need := s.next + uint64(n) - s.ack; need > uint64(len(s.ended)) {
		s.grow(need)
	}
	first = s.next
	s.next += uint64(n)
	return s.id, first, s.ack
}

// grow widens the ring to hold need outstanding seqs.
func (s *session) grow(need uint64) {
	size := uint64(max(64, len(s.ended)))
	for size < need {
		size *= 2
	}
	ended := make([]bool, size)
	for q := s.ack; q < s.next; q++ {
		ended[q&(size-1)] = s.ended[q&uint64(len(s.ended)-1)]
	}
	s.ended = ended
}

// end marks n commands from first ended: their caller has its answers, or has
// given up on them. A command of an earlier session is passed over.
func (s *session) end(id, first uint64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id != s.id {
		return
	}
	mask := uint64(len(s.ended) - 1)
	for q := first; q < first+uint64(n); q++ {
		s.ended[q&mask] = true
	}
	for s.ack < s.next && s.ended[s.ack&mask] {
		s.ended[s.ack&mask] = false
		s.ack++
	}
}

// retire ends session id without acknowledging what is still out on it: the
// next begin opens a new session. A transaction that failed may have left a
// participant prepared; its records must stay on the shards until the
// recovery janitor has finished it, so its seq is never acknowledged.
func (s *session) retire(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == s.id {
		s.renewAt = time.Time{}
	}
}

// sessionState is what a shard keeps of one session: its ack and, at or above
// it, the outcomes of the session's executed commands and the records of its
// resolved transaction attempts, each in seq order. It is replicated state.
type sessionState struct {
	ack      uint64
	outcomes []outcome
	records  []txnRecord
}

// outcome is what a shard records of an executed command for its retries:
// whether it succeeded (CAS swapped, Delete found the key) and the key it
// wrote, which lets a resharding move the outcome with the key. Reads,
// refusals and the transaction ops record none.
type outcome struct {
	seq uint64
	ok  bool
	key string
	sum uint64 // outcomeSum, kept so that freeing need not refold
}

// txnRecord is a resolved transaction attempt: the portion as its record
// keeps it (txnPortion.tombstone), spelled as appendPortion spells it — one
// immutable byte string, which costs the collector nothing to scan.
type txnRecord struct {
	seq     uint64
	attempt uint32
	rec     []byte
	sum     uint64 // foldPortion of rec
}

// sessionSum folds a session's ack into the table's digest sum.
func sessionSum(session, ack uint64) uint64 {
	return fnvAdd(fnvAdd(fnvOffset64, session), ack)
}

// outcomeSum folds one outcome.
func outcomeSum(session, seq uint64, ok bool, key string) uint64 {
	h := fnvAdd(fnvAdd(fnvOffset64, session), seq)
	return fnvStr(fnvAdd(h, bit(ok)), key)
}

// admit is the session check every command passes first. It advances the
// shard's clock to the session's birth, dropping the sessions the clock has
// expired; creates the session's state if it has none; and raises its ack to
// the command's, freeing what falls below. It returns the session's state, or
// nil when the command must not execute: its session expired, or the client
// has already acknowledged its seq.
func (s *mapSM) admit(session, seq, ack uint64) *sessionState {
	born := sessionBorn(session)
	if s.advanceClock(born); born+sessionTTL < s.clock {
		return nil
	}
	st := s.sessions[session]
	if st == nil {
		st = &sessionState{}
		s.sessions[session] = st
		s.sessSum += sessionSum(session, 0)
	}
	s.acknowledge(session, st, ack)
	if seq < st.ack {
		return nil
	}
	return st
}

// advanceClock moves the shard's clock on to born, if that is later, and
// drops the sessions the new clock expires.
func (s *mapSM) advanceClock(born uint64) {
	if born <= s.clock {
		return
	}
	s.clock = born
	for id := range s.sessions {
		if sessionBorn(id)+sessionTTL < s.clock {
			s.dropSession(id)
		}
	}
}

// live returns a session's state, if the shard keeps it and seq is not below
// its ack.
func (s *mapSM) live(session, seq uint64) *sessionState {
	if st := s.sessions[session]; st != nil && seq >= st.ack {
		return st
	}
	return nil
}

// acknowledge raises a session's ack, freeing the outcomes and records below
// it. Both lists are compacted in place, so a session's steady churn
// allocates nothing.
func (s *mapSM) acknowledge(session uint64, st *sessionState, ack uint64) {
	if ack <= st.ack {
		return
	}
	s.sessSum += sessionSum(session, ack) - sessionSum(session, st.ack)
	st.ack = ack
	i := 0
	for ; i < len(st.outcomes) && st.outcomes[i].seq < ack; i++ {
		s.sessSum -= st.outcomes[i].sum
	}
	st.outcomes = slices.Delete(st.outcomes, 0, i)
	i = 0
	for ; i < len(st.records) && st.records[i].seq < ack; i++ {
		s.sessSum -= st.records[i].sum
	}
	st.records = slices.Delete(st.records, 0, i)
}

// dropSession forgets an expired session and everything it holds.
func (s *mapSM) dropSession(session uint64) {
	st := s.sessions[session]
	s.sessSum -= sessionSum(session, st.ack)
	for _, o := range st.outcomes {
		s.sessSum -= o.sum
	}
	for _, r := range st.records {
		s.sessSum -= r.sum
	}
	delete(s.sessions, session)
}

// outcome returns the outcome recorded for seq, if there is one.
func (st *sessionState) outcome(seq uint64) (outcome, bool) {
	i, ok := st.findOutcome(seq)
	if !ok {
		return outcome{}, false
	}
	return st.outcomes[i], true
}

func (st *sessionState) findOutcome(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(st.outcomes, seq, func(o outcome, seq uint64) int { return cmp.Compare(o.seq, seq) })
}

// setOutcome records an executed command's outcome in its session. The seqs
// of one session mostly arrive in order, so this is mostly an append.
func (s *mapSM) setOutcome(session uint64, st *sessionState, seq uint64, ok bool, key string) {
	o := outcome{seq: seq, ok: ok, key: key, sum: outcomeSum(session, seq, ok, key)}
	if n := len(st.outcomes); n == 0 || st.outcomes[n-1].seq < seq {
		st.outcomes = append(st.outcomes, o)
		s.sessSum += o.sum
		return
	}
	i, found := st.findOutcome(seq)
	if found {
		s.sessSum -= st.outcomes[i].sum
		st.outcomes[i] = o
	} else {
		st.outcomes = slices.Insert(st.outcomes, i, o)
	}
	s.sessSum += o.sum
}

func (st *sessionState) findRecord(seq uint64, attempt uint32) (int, bool) {
	return slices.BinarySearchFunc(st.records, txnID{seq: seq, attempt: attempt}, func(r txnRecord, k txnID) int {
		return txnID{seq: r.seq, attempt: r.attempt}.compare(k)
	})
}

// record returns a transaction attempt's resolved record, if its session
// still keeps it.
func (s *mapSM) record(k txnID) []byte {
	st := s.sessions[k.session]
	if st == nil {
		return nil
	}
	if i, ok := st.findRecord(k.seq, k.attempt); ok {
		return st.records[i].rec
	}
	return nil
}

// setRecord files p, resolved, as its attempt's record, in the place of any
// earlier one: spelled in the scratch buffer, then copied into a string of
// its own, exactly sized. An attempt whose session the shard no longer keeps
// — acknowledged or expired — leaves no record: no retry of it can execute.
func (s *mapSM) setRecord(p *txnPortion) {
	st := s.live(p.ID.session, p.ID.seq)
	if st == nil {
		return
	}
	s.recBuf = appendPortion(s.recBuf[:0], p)
	r := txnRecord{seq: p.ID.seq, attempt: p.ID.attempt, rec: make([]byte, len(s.recBuf))}
	copy(r.rec, s.recBuf)
	r.sum = foldPortion(fnvOffset64, r.rec)
	i, found := st.findRecord(r.seq, r.attempt)
	if found {
		s.sessSum -= st.records[i].sum
		st.records[i] = r
	} else {
		st.records = slices.Insert(st.records, i, r)
	}
	s.sessSum += r.sum
}

// dropRecord forgets one record (a resharding moved all its keys away).
func (s *mapSM) dropRecord(session uint64, i int) {
	st := s.sessions[session]
	s.sessSum -= st.records[i].sum
	st.records = slices.Delete(st.records, i, i+1)
}
