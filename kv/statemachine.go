package kv

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"amoeba/obs"
	"amoeba/shared"
)

// result is the answer one applied command hands its local caller (hand). Of
// an executed write only its outcome is kept, in its session (session.go),
// for retries; a refusal, a read's values and a transaction op's answer are
// kept nowhere — a transaction's are re-answered from its portion or record.
type result struct {
	// OK reports mutation success: CAS swapped, Delete found the key.
	OK bool
	// Values and Found carry read results, aligned with the command's key
	// list: a prepare's captured reads or a sequenced read's.
	Values [][]byte
	Found  []bool
	// Key is the mutated key (write ops only).
	Key string
	// TxnState, Conflict, and CondFailed answer the txn ops (see txn.go):
	// the portion's state after the command, a prepare that lost its keys
	// to another live transaction, and a prepare whose conditions failed.
	TxnState   byte
	Conflict   bool
	CondFailed bool
}

// answerWaiter is one local caller's commands on their way (Store.begin, then
// Store.finish). It registers their ids BEFORE submitting (expect) and the apply
// loop hands each answer over as its command applies (hand), under the replica
// lock; the caller reads first and moved only after done delivers. Beside the
// answers it carries the submission's own outcome (sent). Waiters are
// node-local: never replicated, snapshotted or digested.
type answerWaiter struct {
	regs    []answerReg   // one claim per id
	pending int           // claims not yet answered
	first   result        // the answer to the first id
	moved   bool          // a command was refused: not executed, re-resolve and retry
	stale   bool          // a command was refused as stale: acknowledged, or its session expired
	ids     []uint64      // the ids begin registers, kept to be reused
	done    chan struct{} // one slot, filled when pending reaches zero
	sent    chan error    // one slot: the submission's outcome
	started func(error)   // feeds sent; bound once, when the waiter is made
}

func newAnswerWaiter() *answerWaiter {
	w := &answerWaiter{done: make(chan struct{}, 1), sent: make(chan error, 1)}
	w.started = func(err error) { w.sent <- err }
	return w
}

// wait sleeps until the submission has completed and then until the last
// answer is in — the order a blocking Submit and a wait would see them — or
// until the submission fails, ctx ends or the replica stops. On nil w may be
// recycled; on any other return it must be let go, for a callback may still be
// owed to it.
func (w *answerWaiter) wait(ctx context.Context, stopped <-chan struct{}) error {
	select {
	case err := <-w.sent:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		return ctx.Err()
	case <-stopped:
		return shared.ErrStopped
	}
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-stopped:
		return shared.ErrStopped
	}
}

// answerReg is a waiter's claim on one command id, chained to the other claims
// on it: a request can reach this node twice, over a second path, while its
// first arrival is still held.
type answerReg struct {
	id   uint64
	w    *answerWaiter
	next *answerReg
}

var answerWaiters = sync.Pool{New: func() any { return newAnswerWaiter() }}

// Transaction portion states (see txn.go for the 2PC protocol).
const (
	txnStatePrepared  byte = 1
	txnStateCommitted byte = 2
	txnStateAborted   byte = 3
)

// txnID names one attempt of a transaction: the session and seq of the
// request that started the transaction, and the attempt's number. A
// transaction belongs to that session: its records are freed when the
// session's ack passes seq.
type txnID struct {
	session, seq uint64
	attempt      uint32
}

func (a txnID) String() string { return fmt.Sprintf("%016x/%d/%d", a.session, a.seq, a.attempt) }

// compare orders attempts by session, seq, attempt.
func (a txnID) compare(b txnID) int {
	switch {
	case a.session != b.session:
		return cmp.Compare(a.session, b.session)
	case a.seq != b.seq:
		return cmp.Compare(a.seq, b.seq)
	}
	return cmp.Compare(a.attempt, b.attempt)
}

// txnPortion is one shard's slice of a cross-shard transaction: the local
// reads with the values captured when the prepare sequenced, writes held
// back until the decision, and conditions. It is replicated state — created
// by opTxnPrepare, resolved by opTxnResolve, carried in snapshots and
// migrated with its keys during resharding. Only a prepared portion lives as
// one; a resolved one is kept as its session's record (see setRecord) so
// re-driven prepares and resolves re-answer the decision instead of
// re-executing.
type txnPortion struct {
	ID      txnID
	HomeKey string
	AllKeys []string
	State   byte
	Reads   []txnRead
	Writes  []TxnWrite
	Conds   []TxnCond
}

// txnRead is one read a prepare captured: the key, and its value and presence
// at the prepare's position in the total order.
type txnRead struct {
	Key   string
	Val   []byte
	Found bool
}

// localKeys is the deduplicated union of the portion's read, write, and
// condition keys — the keys this shard locks for the transaction.
func (p *txnPortion) localKeys() []string {
	seen := make(map[string]bool, len(p.Reads)+len(p.Writes)+len(p.Conds))
	out := make([]string, 0, len(p.Reads)+len(p.Writes)+len(p.Conds))
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, r := range p.Reads {
		add(r.Key)
	}
	for _, w := range p.Writes {
		add(w.Key)
	}
	for _, c := range p.Conds {
		add(c.Key)
	}
	return out
}

// everyKey reports whether f holds for every key the portion locks, asking
// in read, write, condition order; a key in two sets is asked twice.
func (p *txnPortion) everyKey(f func(string) bool) bool {
	for _, r := range p.Reads {
		if !f(r.Key) {
			return false
		}
	}
	for _, w := range p.Writes {
		if !f(w.Key) {
			return false
		}
	}
	for _, c := range p.Conds {
		if !f(c.Key) {
			return false
		}
	}
	return true
}

// tombstone is the part of a resolved portion its record keeps: identity,
// outcome and keys. A committed one keeps its captured reads too: a retried
// ReqTxn re-drives attempt 0 and must be answered them again. An aborted
// one's reads are never asked for again: an aborted answer wins every merge
// (mergePrepareAnswers) and the coordinator retries under a fresh attempt.
// The held-back writes and conditions are spent.
func (p *txnPortion) tombstone() txnPortion {
	t := txnPortion{ID: p.ID, HomeKey: p.HomeKey, AllKeys: p.AllKeys, State: p.State}
	if p.State == txnStateCommitted {
		t.Reads = p.Reads
	}
	return t
}

// decodeRecord reads a tombstone record back into a portion, for the rare
// paths that need more than its state byte.
func decodeRecord(rec []byte) *txnPortion {
	r := reader{b: rec}
	return r.portion()
}

// recordState is a record's outcome: its first byte.
func recordState(rec []byte) byte { return rec[0] }

// mergeReads folds t's captured reads into p (keys p lacks only).
func (p *txnPortion) mergeReads(t *txnPortion) {
	have := make(map[string]bool, len(p.Reads))
	for _, r := range p.Reads {
		have[r.Key] = true
	}
	for _, r := range t.Reads {
		if !have[r.Key] {
			have[r.Key] = true
			p.Reads = append(p.Reads, r)
		}
	}
}

// mergeOps folds t's reads, writes, and conds into p (same transaction,
// disjoint or identical per key — dedup by key).
func (p *txnPortion) mergeOps(t *txnPortion) {
	p.mergeReads(t)
	haveW := make(map[string]bool, len(p.Writes))
	for _, w := range p.Writes {
		haveW[w.Key] = true
	}
	for _, w := range t.Writes {
		if !haveW[w.Key] {
			haveW[w.Key] = true
			p.Writes = append(p.Writes, w)
		}
	}
	haveC := make(map[string]bool, len(p.Conds))
	for _, c := range p.Conds {
		haveC[c.Key] = true
	}
	for _, c := range t.Conds {
		if !haveC[c.Key] {
			haveC[c.Key] = true
			p.Conds = append(p.Conds, c)
		}
	}
}

// subPortion extracts the slice of p covering keys, for migration to the
// keys' new owner.
func (p *txnPortion) subPortion(keys []string) *txnPortion {
	in := make(map[string]bool, len(keys))
	for _, k := range keys {
		in[k] = true
	}
	sub := &txnPortion{ID: p.ID, HomeKey: p.HomeKey, AllKeys: p.AllKeys, State: p.State}
	for _, r := range p.Reads {
		if in[r.Key] {
			sub.Reads = append(sub.Reads, r)
		}
	}
	for _, w := range p.Writes {
		if in[w.Key] {
			sub.Writes = append(sub.Writes, w)
		}
	}
	for _, c := range p.Conds {
		if in[c.Key] {
			sub.Conds = append(sub.Conds, c)
		}
	}
	return sub
}

// mapSM is the per-shard replicated state machine: the key-value items, the
// client sessions' outcomes and records (session.go), and the routing table
// the shard operates under. Apply is deterministic; shared serialises all
// access.
type mapSM struct {
	items map[string][]byte
	// sessions is the exactly-once table, by session id; clock is the newest
	// session birth applied, which expires the old ones; sessSum is the
	// wrapping sum of the table's per-entry digest folds, kept current as
	// entries come and go, so digesting the table is O(1).
	sessions map[uint64]*sessionState
	clock    uint64
	sessSum  uint64
	// waiters is node-local: the local callers' claims on the commands they
	// sleep on, by waiter id (see answerWaiter, waitID).
	waiters map[uint64]*answerReg
	// scratch is node-local: the command Apply decodes each command into
	// (decodeCommand), with the arrays it keeps for what a command needs only
	// while it applies; reclaimed after each apply so that it holds nothing
	// between applies. It is in no snapshot or digest.
	scratch command

	// Transaction state (replicated): the prepared portions — the live
	// two-phase state — and the prepare locks derived from them. A resolved
	// portion leaves them for its session's records. Their entries are
	// written only by hold and release.
	txns  map[txnID]*txnPortion
	locks map[string]txnID // key -> the attempt holding its prepare lock

	// lockSeen is node-local (never replicated): when this replica last
	// held each prepared portion, feeding the in-doubt recovery janitor's
	// age check. hold stamps it, so a portion is re-stamped whenever it is
	// held again: a prepare or import that merges into it, a restore, and a
	// migrate-commit that shrinks it.
	lockSeen map[txnID]time.Time

	// Identity (constructor-set, not part of the replicated state: every
	// replica of one shard is built with the same values). initRouting is
	// the constructor's routing table, kept so Restore(nil) can reset to
	// the same state a fresh replica boots with.
	store       string
	shard       int
	initRouting Routing
	// onRouting, when non-nil, is nudged after any apply or restore that
	// changed routing or pending, and after a lock release — the hook the
	// hosting Store uses to keep its node-local routing view current and to
	// wake the callers a hold kept waiting (wake). It runs under the replica
	// lock and must not call back into the replica.
	onRouting func(shard int, cur Routing, pending Routing, hasPending, wake bool)
	// refused is node-local: this replica has handed a local caller a
	// refusal since it last woke the node. It keeps a lock release that
	// holds nobody up from waking anyone.
	refused bool

	// routing is the epoch table this shard currently serves under;
	// pending, when non-nil, is the next table a migrate-begin announced
	// (the shard is mid-handoff: keys moving away are frozen). Both are
	// replicated state, changed only by sequenced migration commands and
	// restores; curRing and pendRing are the rings they materialise. All
	// four are written only by route.
	routing  Routing
	pending  *Routing
	curRing  *ring
	pendRing *ring

	// Observability (node-local, never replicated; nil = no-op). tracer
	// stamps "applied@seq" spans for sampled command ids, flight records
	// migrate phase transitions; seq is the sequence number of the command
	// currently applying, set by ApplySeq for the duration of one Apply.
	tracer    *obs.Tracer
	flight    *obs.Recorder
	flightTag string // labels this shard's flight-recorder events: "kv/<store>/<shard>"
	seq       uint32
	// onAudit, when non-nil, receives the digest this replica computed for
	// each applied audit command (see audit.go). Node-local like onRouting:
	// it runs under the replica lock and must not call back into replicas.
	onAudit func(shard int, d obs.Digest)
}

var _ shared.StateMachine = (*mapSM)(nil)
var _ shared.SeqApplier = (*mapSM)(nil)

func newMapSM(store string, shard int, rt Routing, onRouting func(int, Routing, Routing, bool, bool)) *mapSM {
	s := &mapSM{
		waiters:     make(map[uint64]*answerReg),
		store:       store,
		shard:       shard,
		initRouting: rt,
		onRouting:   onRouting,
		flightTag:   fmt.Sprintf("kv/%s/%d", store, shard),
	}
	s.reset(shardState{})
	return s
}

// route installs cur as the table the shard serves under and pending (nil:
// none) as the next one, with the rings they materialise. It is the only
// writer of routing, pending, curRing and pendRing.
func (s *mapSM) route(cur Routing, pending *Routing) {
	s.routing, s.curRing = cur, cur.ring(s.store)
	s.pending, s.pendRing = pending, nil
	if pending != nil {
		s.pendRing = pending.ring(s.store)
	}
}

// hold files p as a prepared portion: each of its keys is locked to it, and
// it is stamped seen now. With release, it is the only writer of txns, locks
// and lockSeen.
func (s *mapSM) hold(p *txnPortion) {
	s.txns[p.ID] = p
	p.everyKey(func(k string) bool {
		s.locks[k] = p.ID
		return true
	})
	s.lockSeen[p.ID] = time.Now()
}

// release takes p out of the prepared portions, with its locks and stamp.
func (s *mapSM) release(p *txnPortion) {
	delete(s.txns, p.ID)
	delete(s.lockSeen, p.ID)
	p.everyKey(func(k string) bool {
		if s.locks[k] == p.ID {
			delete(s.locks, k)
		}
		return true
	})
}

// What an answer tells its waiter (hand).
const (
	answered     = iota // the command applied, or re-answers its first application
	refusedMoved        // the key is frozen, moved or locked: re-resolve and retry
	refusedStale        // its session acknowledged it, or expired: it never executes
)

// setResult answers a command that executed: its outcome is recorded in its
// session, so that a retry of it is answered with it instead of executing
// again, and the answer is handed to its waiters.
func (s *mapSM) setResult(c *command, st *sessionState, r result) {
	s.setOutcome(c.session, st, c.seq, r.OK, r.Key)
	s.hand(c.waitID(), r, answered)
}

// refuse answers a command that did NOT execute: it touched a key this shard
// does not serve at this point in the total order (frozen mid-handoff, or
// moved: a stale client's routing lags the epoch) or one a prepared
// transaction holds locked. The caller re-resolves the owner and retries;
// nothing is recorded, so the retried command executes normally wherever it
// lands and is answered by that application only.
func (s *mapSM) refuse(id uint64) { s.hand(id, result{}, refusedMoved) }

// hand is the one place an answer leaves the state machine: every local caller
// registered for id gets it, and one whose last answer it is wakes. On every
// replica but the submitter's that is one map miss.
func (s *mapSM) hand(id uint64, r result, how int) {
	reg := s.waiters[id]
	if reg == nil {
		return
	}
	delete(s.waiters, id)
	s.refused = s.refused || how == refusedMoved
	for reg != nil {
		w, next := reg.w, reg.next // a woken caller may recycle w at once, regs included
		if id == w.regs[0].id {
			w.first = r
		}
		w.moved = w.moved || how == refusedMoved
		w.stale = w.stale || how == refusedStale
		if w.pending--; w.pending == 0 {
			w.done <- struct{}{}
		}
		reg = next
	}
}

// expect registers w for the answers to ids, which its caller is about to
// submit. A repeated id is a claim of its own, and all the claims on an id are
// answered together at its first application (a later one is a dedup hit that
// changes nothing). Caller holds the replica lock (Read).
func (s *mapSM) expect(w *answerWaiter, ids []uint64) {
	if cap(w.regs) < len(ids) {
		w.regs = make([]answerReg, len(ids))
	}
	w.regs, w.pending = w.regs[:len(ids)], len(ids)
	for i, id := range ids {
		w.regs[i] = answerReg{id: id, w: w, next: s.waiters[id]}
		s.waiters[id] = &w.regs[i]
	}
}

// forget withdraws the claims w still has registered: its caller is leaving
// without its answers (its context ended, or the replica stopped). An answered
// claim is in no chain any more and is passed over. Caller holds the replica
// lock (Read).
func (s *mapSM) forget(w *answerWaiter) {
	for i := range w.regs {
		reg := &w.regs[i]
		if link := s.waiters[reg.id]; link != reg {
			for ; link != nil; link = link.next {
				if link.next == reg {
					link.next = reg.next
				}
			}
		} else if s.waiters[reg.id] = reg.next; reg.next == nil {
			delete(s.waiters, reg.id)
		}
	}
}

// serves reports whether this shard serves key at this point in the total
// order: the key must be owned under the current table AND not be mid-move
// under a pending one. A key moving away is frozen from migrate-begin until
// this shard's migrate-commit — reads too, so a moved key is never served
// stale from the source while the target may already have accepted a newer
// write (linearizability across the epoch flip).
func (s *mapSM) serves(key string) bool {
	return s.owns(key) && (s.pendRing == nil || s.pendRing.shard(key) == s.shard)
}

// owns reports whether key belongs to this shard under its current table,
// whatever a pending one says.
func (s *mapSM) owns(key string) bool { return s.curRing.shard(key) == s.shard }

// notifyRouting nudges the hosting store after an apply that can clear a
// hold: a routing/pending change, or a lock release (resolvePortion). A
// caller this replica refused sleeps on the store's change channel, so the
// nudge closes it whenever there is such a caller, whether or not the
// store's routing view changed.
func (s *mapSM) notifyRouting() {
	if s.onRouting == nil {
		return
	}
	var pend Routing
	if s.pending != nil {
		pend = *s.pending
	}
	s.onRouting(s.shard, s.routing, pend, s.pending != nil, s.refused)
	s.refused = false
}

// ApplySeq is Apply with the command's sequence number alongside — the
// shared.SeqApplier extension. The sequence number is not state: it only
// feeds the "applied@seq" trace span for sampled command ids.
func (s *mapSM) ApplySeq(seq uint32, cmd []byte) {
	s.seq = seq
	s.Apply(cmd)
	s.seq = 0
}

// Apply executes one committed command. Malformed commands are ignored (a
// byzantine client must not be able to diverge or crash the replicas). Every
// command passes its session first (admit): one the client has acknowledged,
// or whose session expired, is answered Stale and does nothing else, and one
// whose seq already has an outcome is not re-executed — clients retry across
// replica swaps and routing epochs, and a retried CAS must not observe its
// own first execution. A refusal records nothing and so does not suppress the
// retry: the total order decides afresh whether the shard serves the key by
// then.
//
// A batch put is its pairs applied in slice order, each as the opPut it
// replaces: deduplicated, refused and answered under its own seq, so a batch
// that straddles a retry or an epoch flip re-executes only the pairs that did
// not land.
func (s *mapSM) Apply(cmd []byte) {
	c := &s.scratch
	defer c.reclaim()
	if decodeCommand(cmd, c) != nil {
		return
	}
	if c.op != opBatchPut {
		s.applyCommand(c)
		return
	}
	put := command{op: opPut, header: c.header}
	for i, p := range c.pairs {
		put.seq, put.key, put.val = c.seqs[i], p.Key, p.Val
		s.applyCommand(&put)
	}
}

// applyCommand executes one decoded command (never an opBatchPut: Apply
// unpacks those), unless its seq already has an outcome — which is then the
// answer.
func (s *mapSM) applyCommand(c *command) {
	id := c.waitID()
	// Sampled is asked first: Addf's arguments are boxed before it can
	// decline them, on every command of every replica.
	sampled := s.tracer.Sampled(id)
	st := s.admit(c.session, c.seq, c.ack)
	if st == nil && c.op == opTxnResolve {
		switch {
		case s.txns[c.txnID()] != nil:
			// A prepared portion's locks are released whatever its session
			// says: the recovery janitor resolves what a coordinator that
			// gave up left behind.
			s.applyTxnResolve(c)
			return
		case !c.txnCommit && s.sessions[c.session] != nil:
			// An abort of a transaction its session acknowledged (kept, so
			// not expired) that finds no portion is presumed, and answered
			// aborted: the client acknowledges a transaction only once every
			// attempt's decision reached every participant, so no portion of
			// an attempt that committed is left anywhere. This is the home's
			// answer to the janitor for a portion a failed echo left behind.
			s.hand(id, result{TxnState: txnStateAborted}, answered)
			return
		}
	}
	if st == nil {
		if sampled {
			s.tracer.Addf(id, "stale at shard %d (seq %d)", s.shard, s.seq)
		}
		s.hand(id, result{}, refusedStale)
		return
	}
	if c.op != opGet && c.op != opTxnPrepare && c.op != opTxnResolve {
		if o, done := st.outcome(c.seq); done {
			if sampled {
				s.tracer.Addf(id, "dedup hit at shard %d (seq %d)", s.shard, s.seq)
			}
			s.hand(id, result{OK: o.ok, Key: o.key}, answered)
			return
		}
	}
	if sampled {
		s.tracer.Addf(id, "applied@seq %d op=%d shard=%d", s.seq, c.op, s.shard)
	}
	switch c.op {
	case opPut, opDelete, opCAS:
		if s.held(c.key) {
			s.refuse(id)
			return
		}
		ok := true
		switch c.op {
		case opPut:
			s.items[c.key] = c.val
		case opDelete:
			_, ok = s.items[c.key]
			delete(s.items, c.key)
		case opCAS:
			cur, present := s.items[c.key]
			if ok = present == c.expectPresent && (!present || string(cur) == string(c.expect)); ok {
				s.items[c.key] = c.val
			}
		}
		s.setResult(c, st, result{OK: ok, Key: c.key})
	case opGet:
		// A read changes nothing and its answer is no dedup state: it is
		// worked out only where its caller waits.
		if s.waiters[id] == nil {
			return
		}
		r := result{OK: true, Values: make([][]byte, len(c.keys)), Found: make([]bool, len(c.keys))}
		if !s.readKeys(c.keys, r.Values, r.Found) {
			s.refuse(id)
			return
		}
		s.hand(id, r, answered)
	case opMigrateBegin:
		s.setResult(c, st, result{OK: s.applyMigrateBegin(c)})
	case opMigrateCommit:
		s.applyMigrateCommit(c)
		s.setResult(c, st, result{OK: true})
	case opMigrateAbort:
		s.setResult(c, st, result{OK: s.applyMigrateAbort(c)})
	case opMigrateImport:
		if s.routing.Epoch >= c.routing.Epoch {
			s.refuse(id) // late chunk: already flipped
			return
		}
		s.applyMigrateImport(c)
		s.setResult(c, st, result{OK: true})
	case opTxnPrepare:
		s.applyTxnPrepare(c)
	case opTxnResolve:
		s.applyTxnResolve(c)
	case opAudit:
		s.applyAudit(c)
		s.setResult(c, st, result{OK: true})
	}
}

// held reports whether key is temporarily unservable here, the one check
// every ordinary read and write consults: the shard does not serve it at
// this point in the total order (frozen mid-handoff, or moved), or a prepared
// transaction holds its lock — a write slipping between a transaction's
// prepare and its commit would break the transaction's atomicity (its
// conditions were checked and its reads captured at prepare; its writes land
// at resolve). A command on a held key is refused: not executed, retried by
// the client once the hold clears.
func (s *mapSM) held(key string) bool {
	_, locked := s.locks[key]
	return locked || !s.serves(key)
}

// readKeys is the one read body — the sequenced read marker's apply, a lease
// read and a bounded-stale read all answer with it: it fills vals and found
// (one slot per key) from the state as it stands, or reports false if any
// key is held. The values alias the stored ones, which are replaced, never
// written to; a caller handing them out copies them (detach).
func (s *mapSM) readKeys(keys []string, vals [][]byte, found []bool) bool {
	for i, k := range keys {
		if s.held(k) {
			return false
		}
		vals[i], found[i] = s.items[k]
	}
	return true
}

// txnPrepareResultFor renders a prepare answer from a portion, aligning the
// captured read values to the REQUESTED read set (a merged or migrated
// portion may hold a superset).
func (s *mapSM) txnPrepareResultFor(p *txnPortion, reads []string) result {
	r := result{TxnState: p.State, OK: p.State == txnStatePrepared || p.State == txnStateCommitted}
	if len(reads) == 0 {
		return r
	}
	idx := make(map[string]int, len(p.Reads))
	for i, rd := range p.Reads {
		idx[rd.Key] = i
	}
	r.Values = make([][]byte, len(reads))
	r.Found = make([]bool, len(reads))
	for i, k := range reads {
		if j, ok := idx[k]; ok {
			r.Values[i], r.Found[i] = p.Reads[j].Val, p.Reads[j].Found
		}
	}
	return r
}

// applyTxnPrepare locks this shard's slice of a transaction and captures its
// reads, all at one position in the total order. Prepares are idempotent and
// accretive: a re-drive after a routing flip may split the same attempt
// along different shard boundaries, so a request against an existing
// prepared portion merges its ops in (validating only the keys it adds)
// rather than demanding byte equality. A resolved portion answers its
// decision from its record — a late prepare must never relock after the
// outcome — and once the client has acknowledged the transaction a late
// prepare is Stale (admit).
func (s *mapSM) applyTxnPrepare(c *command) {
	id, k := c.waitID(), c.txnID()
	if rec := s.record(k); rec != nil {
		s.hand(id, s.txnPrepareResultFor(decodeRecord(rec), c.keys), answered)
		return
	}
	p := s.txns[k]
	resident := make(map[string]bool)
	if p != nil {
		for _, k := range p.localKeys() {
			resident[k] = true
		}
	}
	var fresh []string
	seen := make(map[string]bool)
	addFresh := func(k string) {
		if !resident[k] && !seen[k] {
			seen[k] = true
			fresh = append(fresh, k)
		}
	}
	for _, k := range c.keys {
		addFresh(k)
	}
	for _, w := range c.writes {
		addFresh(w.Key)
	}
	for _, cc := range c.conds {
		addFresh(cc.Key)
	}
	for _, key := range fresh {
		if !s.serves(key) {
			s.refuse(id)
			return
		}
	}
	for _, key := range fresh {
		if owner, held := s.locks[key]; held && owner != k {
			s.hand(id, result{Conflict: true}, answered)
			return
		}
	}
	// Conditions for already-resident keys were checked when they first
	// prepared and their values cannot have changed since (the lock blocks
	// writes), so re-evaluating everything against items is equivalent.
	for _, cc := range c.conds {
		cur, present := s.items[cc.Key]
		if present != cc.ExpectPresent || (present && !bytes.Equal(cur, cc.Expect)) {
			s.hand(id, result{CondFailed: true}, answered)
			return
		}
	}
	if p == nil {
		p = &txnPortion{ID: k, HomeKey: c.homeKey, AllKeys: c.allKeys, State: txnStatePrepared}
		s.flight.Recordf(s.flightTag, "txn %v prepared: %d reads %d writes %d conds",
			k, len(c.keys), len(c.writes), len(c.conds))
	}
	haveRead := make(map[string]bool, len(p.Reads))
	for _, r := range p.Reads {
		haveRead[r.Key] = true
	}
	for _, key := range c.keys {
		if !haveRead[key] {
			haveRead[key] = true
			v, found := s.items[key]
			p.Reads = append(p.Reads, txnRead{Key: key, Val: copyVal(v), Found: found})
		}
	}
	p.mergeOps(&txnPortion{Writes: c.writes, Conds: c.conds})
	s.hold(p)
	s.hand(id, s.txnPrepareResultFor(p, c.keys), answered)
}

// resolvePortion applies the decision to a prepared portion: commit lands
// the held-back writes, abort discards them; either way the locks clear and
// the portion becomes its session's record (see txnPortion.tombstone).
func (s *mapSM) resolvePortion(p *txnPortion, commit bool) {
	s.release(p)
	if commit {
		for _, w := range p.Writes {
			if w.Delete {
				delete(s.items, w.Key)
			} else {
				s.items[w.Key] = w.Val
			}
		}
		p.State = txnStateCommitted
	} else {
		p.State = txnStateAborted
	}
	t := p.tombstone()
	s.setRecord(&t)
	s.flight.Recordf(s.flightTag, "txn %v resolved: state=%d", p.ID, p.State)
	if s.refused {
		s.notifyRouting()
	}
}

// applyTxnResolve applies a commit/abort decision to this shard's portion.
// The home shard (owner of HomeKey) arbitrates: the first resolve to
// sequence against its prepared portion fixes the transaction's outcome,
// and every later resolve or prepare re-answers it. A portion whose keys
// are frozen mid-reshard is refused — the portion migrates with its keys
// and the decision chases it to the new owner, which is what guarantees a
// reshard serializes entirely before or after the commit. A resolve whose
// session has acknowledged it still resolves a prepared portion; without one
// it changes nothing (applyCommand).
func (s *mapSM) applyTxnResolve(c *command) {
	id, k := c.waitID(), c.txnID()
	if p := s.txns[k]; p != nil {
		if !p.everyKey(s.serves) {
			s.refuse(id)
			return
		}
		s.resolvePortion(p, c.txnCommit)
		s.hand(id, result{OK: p.State == txnStateCommitted, TxnState: p.State}, answered)
		return
	}
	if rec := s.record(k); rec != nil {
		state := recordState(rec)
		s.hand(id, result{OK: state == txnStateCommitted, TxnState: state}, answered)
		return
	}
	// No portion: this shard never saw the prepare, or its record is gone
	// with the acknowledgement. It must at least own one of the
	// transaction's keys — otherwise the decision belongs elsewhere (stale
	// routing) and the caller re-resolves.
	if !slices.ContainsFunc(c.allKeys, s.owns) {
		s.refuse(id)
		return
	}
	if c.txnCommit {
		// Presumed resolved: a commit decision exists only if the prepare
		// phase finished everywhere, so re-answering success is safe.
		s.hand(id, result{OK: true, TxnState: txnStateCommitted}, answered)
		return
	}
	// Abort with no portion: plant a fence so a straggling prepare re-drive
	// cannot lock keys after the decision (presumed abort).
	s.setRecord(&txnPortion{ID: k, HomeKey: c.homeKey, AllKeys: c.allKeys, State: txnStateAborted})
	s.flight.Recordf(s.flightTag, "txn %v fenced aborted", k)
	s.hand(id, result{TxnState: txnStateAborted}, answered)
}

// applyMigrateBegin installs the pending routing table, freezing the key
// ranges that move away from this shard. Begins are idempotent, and a begin
// for an epoch the shard already reached (or passed) is a no-op — the retry
// of a completed handoff must not re-freeze anything. It reports whether the
// shard took the begin.
func (s *mapSM) applyMigrateBegin(c *command) bool {
	ok := false
	switch {
	case c.routing.Epoch <= s.routing.Epoch:
		// Already at (or past) that epoch: the handoff completed.
		ok = true
	case s.pending != nil && *s.pending == c.routing:
		ok = true // duplicate begin of the handoff in progress
	case s.pending == nil && c.routing.Epoch == s.routing.Epoch+1:
		rt := c.routing
		s.route(s.routing, &rt)
		ok = true
		s.flight.Recordf(s.flightTag, "migrate begin: epoch %d -> %d (%d -> %d shards)",
			s.routing.Epoch, rt.Epoch, s.routing.Shards, rt.Shards)
		s.notifyRouting()
	}
	return ok
}

// applyMigrateCommit flips the shard to the new routing table: moved keys
// (exported to their new owners before the commit was sequenced) are
// deleted, the freeze lifts, and from this position in the total order the
// shard serves exactly the ranges the new table assigns it.
func (s *mapSM) applyMigrateCommit(c *command) {
	if c.routing.Epoch <= s.routing.Epoch {
		return // duplicate commit
	}
	s.route(c.routing, nil)
	dropped := 0
	for k := range s.items {
		if !s.owns(k) {
			delete(s.items, k)
			dropped++
		}
	}
	// Transaction portions follow their keys: shrink each prepared one to
	// the keys this shard still owns (the moved slices were exported as
	// sub-portions before the commit sequenced), and drop a portion with
	// nothing left here, or a record none of whose transaction's keys this
	// shard owns. A shrunk portion is held again, and should this loop visit
	// it a second time, finds nothing more to shrink.
	for _, p := range s.txns {
		all := p.localKeys()
		if keep := slices.DeleteFunc(all, func(k string) bool { return !s.owns(k) }); len(keep) < len(all) {
			s.release(p)
			if len(keep) > 0 {
				s.hold(p.subPortion(keep))
			}
		}
	}
	for session, st := range s.sessions {
		for i := len(st.records) - 1; i >= 0; i-- {
			if !slices.ContainsFunc(decodeRecord(st.records[i].rec).AllKeys, s.owns) {
				s.dropRecord(session, i)
			}
		}
	}
	s.flight.Recordf(s.flightTag, "migrate commit: epoch %d, %d moved keys dropped, %d kept",
		c.routing.Epoch, dropped, len(s.items))
	// The store's view first, as begin and abort do: whoever the answer
	// wakes (the coordinator) must find the flip there.
	s.notifyRouting()
}

// applyMigrateAbort rolls a pending handoff back: the freeze lifts and the
// shard keeps serving under its current table. Only the exact pending epoch
// can be aborted, and never after the shard committed it. It reports whether
// it rolled one back.
func (s *mapSM) applyMigrateAbort(c *command) bool {
	ok := false
	if s.pending != nil && s.pending.Epoch == c.routing.Epoch {
		s.route(s.routing, nil)
		ok = true
		s.flight.Recordf(s.flightTag, "migrate abort: epoch %d rolled back, serving epoch %d",
			c.routing.Epoch, s.routing.Epoch)
		s.notifyRouting()
	}
	return ok
}

// applyMigrateImport installs a chunk of keys streamed out of a source shard,
// with what travels with them: every session's ack and the outcomes of the
// moving keys' writes, so that a retry or a late duplicate is answered on the
// new owner as it would have been on the old — and the transaction
// sub-portions covering the keys. Imports are epoch-gated (applyCommand):
// they apply only while this shard has not yet committed the target epoch —
// after the flip clients may write the moved ranges here, and a late
// (re-driven) import must never overwrite a newer client write with the
// source's frozen value.
func (s *mapSM) applyMigrateImport(c *command) {
	for _, p := range c.pairs {
		s.items[p.Key] = p.Val
	}
	s.advanceClock(c.clock)
	for _, m := range c.moved {
		st := s.admit(m.ID, math.MaxUint64, m.Ack) // nil only if the session expired
		for _, o := range m.Outcomes {
			if st != nil && o.seq >= st.ack {
				s.setOutcome(m.ID, st, o.seq, o.ok, o.key)
			}
		}
	}
	for _, t := range c.txns {
		s.importPortion(t)
	}
}

// importPortion merges one migrated transaction sub-portion into this
// shard's state. The interesting cases arise when this shard already holds
// a portion for the same transaction (it was a participant too, or earlier
// chunks arrived first): the resident and incoming states must converge on
// one outcome with every write applied exactly once.
func (s *mapSM) importPortion(t *txnPortion) {
	if rec := s.record(t.ID); rec != nil {
		ex := decodeRecord(rec)
		if ex.State != txnStateCommitted {
			return // aborted: the incoming writes are discarded, and no reads are kept
		}
		if t.State == txnStatePrepared {
			// The resident tombstone says committed, but the incoming keys'
			// writes were still held back on their source when it froze:
			// apply them here, exactly once — this is the only place they
			// can ever land.
			for _, w := range t.Writes {
				if w.Delete {
					delete(s.items, w.Key)
				} else {
					s.items[w.Key] = w.Val
				}
			}
		}
		ex.mergeReads(t)
		s.setRecord(ex)
		return
	}
	ex := s.txns[t.ID]
	switch {
	case ex == nil && t.State == txnStatePrepared:
		s.hold(t) // the decoder copied out all t keeps (reader.portion)
	case ex == nil:
		tomb := t.tombstone()
		s.setRecord(&tomb)
	case t.State == txnStatePrepared:
		ex.mergeOps(t)
		s.hold(ex)
	default:
		// The transaction resolved elsewhere while this slice was in
		// flight: land the decision on the resident portion too, the
		// incoming reads with it.
		ex.mergeReads(t)
		s.resolvePortion(ex, t.State == txnStateCommitted)
	}
}

// importChunk is one migrate-import command's cargo: moved key/value pairs,
// the shard's session clock and the sessions it keeps (movedSession), and the
// transaction sub-portions covering the moved keys.
type importChunk struct {
	Pairs []Pair
	Clock uint64
	Moved []movedSession
	Txns  []*txnPortion
}

// movedSession is what an import carries of one session: its ack — every
// session's, so that a late duplicate is Stale on the new owner too — and the
// outcomes of its writes to the moving keys (deletes included: the outcome
// follows the key even though the item is gone).
type movedSession struct {
	ID       uint64
	Ack      uint64
	Outcomes []outcome
}

// exportChunks enumerates everything this shard loses under next — items,
// the outcomes of their writes and transaction sub-portions — grouped by
// destination shard and chunked to stay under maxBytes per chunk (at least
// one element per chunk). The first chunk for each heir — each shard that
// takes over some of this shard's keys — carries the session clock and every
// session's ack. Caller must hold the replica lock (Read).
func (s *mapSM) exportChunks(next *ring, maxBytes int) map[int][]*importChunk {
	out := make(map[int][]*importChunk)
	size := make(map[int]int)
	chunkFor := func(dest, need int) *importChunk {
		chunks := out[dest]
		if len(chunks) == 0 || size[dest]+need > maxBytes {
			chunks = append(chunks, &importChunk{})
			out[dest] = chunks
			size[dest] = 0
		}
		size[dest] += need
		return chunks[len(chunks)-1]
	}
	// The sessions go first, in each heir's first chunk (chunks apply in
	// order, and a record imported after them finds its session): each
	// session's ack, with the outcomes of its writes to the keys moving
	// there. Every heir needs every ack, even one that receives no item: a
	// late duplicate is routed to the new owner of its key, and the key may
	// be gone, its write's outcome freed. No other shard can be asked for a
	// key of this one. Migration markers and audits, keyless, stay behind.
	heirs := s.curRing.heirs(next, s.shard)
	for id, st := range s.sessions {
		moved := make(map[int][]outcome)
		for _, o := range st.outcomes {
			if dest := next.shard(o.key); o.key != "" && dest != s.shard {
				moved[dest] = append(moved[dest], o)
			}
		}
		for dest, heir := range heirs {
			if heir {
				ch := chunkFor(dest, 24+24*len(moved[dest]))
				ch.Clock = s.clock
				ch.Moved = append(ch.Moved, movedSession{ID: id, Ack: st.ack, Outcomes: moved[dest]})
			}
		}
	}
	for k, v := range s.items {
		dest := next.shard(k)
		if dest == s.shard {
			continue
		}
		ch := chunkFor(dest, len(k)+len(v)+16)
		ch.Pairs = append(ch.Pairs, Pair{Key: k, Val: append([]byte(nil), v...)})
	}
	// Transaction portions follow their keys: a prepared portion's slice
	// moves wherever its locked keys go (the held-back writes included, so
	// an in-flight transaction survives the reshard); a record's slice
	// follows its AllKeys so re-drives keep finding the decision.
	export := func(p *txnPortion, keys []string) {
		byDest := make(map[int][]string)
		for _, k := range keys {
			if d := next.shard(k); d != s.shard {
				byDest[d] = append(byDest[d], k)
			}
		}
		for dest, moved := range byDest {
			sub := p.subPortion(moved)
			need := 64
			for _, w := range sub.Writes {
				need += len(w.Key) + len(w.Val) + 8
			}
			for _, r := range sub.Reads {
				need += len(r.Key) + len(r.Val) + 8
			}
			ch := chunkFor(dest, need)
			ch.Txns = append(ch.Txns, sub)
		}
	}
	for _, p := range s.txns {
		export(p, p.localKeys())
	}
	for _, st := range s.sessions {
		for _, r := range st.records {
			p := decodeRecord(r.rec)
			var keys []string
			for _, k := range p.AllKeys {
				if s.owns(k) {
					keys = append(keys, k)
				}
			}
			export(p, keys)
		}
	}
	return out
}
