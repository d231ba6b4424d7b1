package kv

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"amoeba/obs"
	"amoeba/shared"
)

// defaultResultWindow bounds the replicated result table: the retry horizon. A
// result is evicted after this many further ones are recorded on its shard,
// and a command re-driven later than that — across a replica swap, a failover
// or a routing epoch — executes again. It is not slack for a waiter: an answer
// is handed over when its command applies, whatever the window holds by then.
const defaultResultWindow = 65536

// result is the recorded outcome of one executed command, keyed by command id:
// the exactly-once table. It is part of the state machine (every replica
// computes the identical table) because a retry may reach any replica, at any
// later time, and must be answered with what the first execution did. Only
// what a retry needs is recorded: a refusal (see refuse) and a sequenced
// read's values (re-executing a read under a retry is just a later
// linearizable read) are handed to the local waiter and kept nowhere.
type result struct {
	// OK reports mutation success: CAS swapped, Delete found the key.
	OK bool
	// Values and Found carry read results, aligned with the command's key
	// list: a prepare's captured reads (recorded) or a sequenced read's.
	Values [][]byte
	Found  []bool
	// Key is the mutated key (write ops only). It lets a resharding
	// migrate the result alongside the data: a command retried after the
	// epoch flip routes to the key's NEW owner, and only if the result
	// moved with the key does the dedup window still answer it there —
	// exactly-once across reshardings.
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

// txnTombstoneWindow bounds the tombstones a shard keeps, FIFO like the
// result window but counted in resolved portions, not commands. The 8192 most
// recently resolved transactions on a shard re-answer their decision (and a
// committed one its captured reads) to a re-driven prepare or resolve; past
// that a resolve is presumed decided (a commit re-answers success, an abort
// plants a fence) and a retried ReqTxn executes again under a fresh attempt.
// It is not the result window's horizon: Options.ResultWindow counts commands
// (65 536 by default, 1024 in the benchmark). It is a constant, not an option,
// because every replica of a shard must evict at the same point in the order
// (the queue is snapshotted and digested), and 8192 keeps a shard's
// tombstones to a few megabytes while covering a retry that comes back
// seconds later on a shard resolving a few thousand transactions a second.
const txnTombstoneWindow = 8192

// txnPortion is one shard's slice of a cross-shard transaction: the local
// reads (with the values captured when the prepare sequenced), writes held
// back until the decision, and conditions. It is replicated state — created
// by opTxnPrepare, resolved by opTxnResolve, carried in snapshots and
// migrated with its keys during resharding. Only a prepared portion lives as
// one; a resolved one is kept as a tombstone record (see mapSM.tombs) so
// re-driven prepares and resolves re-answer the decision instead of
// re-executing.
type txnPortion struct {
	TxnID   uint64
	HomeKey string
	AllKeys []string
	State   byte
	Reads   []string
	Writes  []TxnWrite
	Conds   []TxnCond
	Values  [][]byte
	Found   []bool
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
	for _, k := range p.Reads {
		add(k)
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
	for _, k := range p.Reads {
		if !f(k) {
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
// (mergePrepareAnswers) and the coordinator retries under a fresh attempt id.
// The held-back writes and conditions are spent.
func (p *txnPortion) tombstone() txnPortion {
	t := txnPortion{TxnID: p.TxnID, HomeKey: p.HomeKey, AllKeys: p.AllKeys, State: p.State}
	if p.State == txnStateCommitted {
		t.Reads, t.Values, t.Found = p.Reads, p.Values, p.Found
	}
	return t
}

// decodeRecord reads a tombstone record back into a portion, for the rare
// paths that need more than its state byte.
func decodeRecord(rec []byte) *txnPortion {
	r := reader{b: rec}
	return r.portion()
}

// recordState is a tombstone record's outcome: the byte after its id.
func recordState(rec []byte) byte { return rec[8] }

func (p *txnPortion) clone() *txnPortion {
	cp := *p
	cp.AllKeys = append([]string(nil), p.AllKeys...)
	cp.Reads = append([]string(nil), p.Reads...)
	cp.Writes = append([]TxnWrite(nil), p.Writes...)
	cp.Conds = append([]TxnCond(nil), p.Conds...)
	cp.Values = append([][]byte(nil), p.Values...)
	cp.Found = append([]bool(nil), p.Found...)
	return &cp
}

// mergeReads folds t's captured reads into p (keys p lacks only).
func (p *txnPortion) mergeReads(t *txnPortion) {
	have := make(map[string]bool, len(p.Reads))
	for _, k := range p.Reads {
		have[k] = true
	}
	for i, k := range t.Reads {
		if have[k] {
			continue
		}
		have[k] = true
		p.Reads = append(p.Reads, k)
		var v []byte
		var f bool
		if i < len(t.Values) {
			v = t.Values[i]
		}
		if i < len(t.Found) {
			f = t.Found[i]
		}
		p.Values = append(p.Values, v)
		p.Found = append(p.Found, f)
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
	sub := &txnPortion{TxnID: p.TxnID, HomeKey: p.HomeKey, AllKeys: p.AllKeys, State: p.State}
	for i, k := range p.Reads {
		if !in[k] {
			continue
		}
		sub.Reads = append(sub.Reads, k)
		var v []byte
		var f bool
		if i < len(p.Values) {
			v = p.Values[i]
		}
		if i < len(p.Found) {
			f = p.Found[i]
		}
		sub.Values = append(sub.Values, v)
		sub.Found = append(sub.Found, f)
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

// mapSM is the per-shard replicated state machine: the key-value items, a
// bounded FIFO window of command results, and the routing table the shard
// operates under. Apply is deterministic; shared serialises all access.
type mapSM struct {
	items   map[string][]byte
	results resultWindow // executed commands' results by id, oldest evicted first (resultwindow.go)
	// waiters is node-local: the local callers' claims on the commands they
	// sleep on, by command id (see answerWaiter).
	waiters map[uint64]*answerReg

	// Transaction state (replicated): the prepared portions by txn id — the
	// live two-phase state — and the prepare locks derived from them; the
	// resolved portions as tombstone records by txn id, each one immutable
	// byte string in the snapshot's portion spelling (appendPortion), so a
	// window of them costs the collector nothing to scan; and the FIFO
	// eviction queue of tombstone ids. An id is in at most one of the maps.
	txns     map[uint64]*txnPortion
	locks    map[string]uint64 // key -> txn id holding its prepare lock
	tombs    map[uint64][]byte
	txnOrder []uint64
	// recBuf is node-local scratch a record is spelled in before it is copied
	// out at its exact size.
	recBuf []byte

	// lockSeen is node-local (never replicated): when this replica last saw
	// each prepared portion, feeding the in-doubt recovery janitor's age
	// check. Stamped at prepare apply, restore, and import.
	lockSeen map[uint64]time.Time

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
	// replicated state, changed only by sequenced migration commands.
	routing Routing
	pending *Routing
	// curRing/pendRing are derived from routing/pending (deterministic
	// function of the replicated state; rebuilt on restore).
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

func newMapSM(store string, shard int, rt Routing, window int, onRouting func(int, Routing, Routing, bool, bool)) *mapSM {
	if window <= 0 {
		window = defaultResultWindow
	}
	s := &mapSM{
		items:       make(map[string][]byte),
		results:     newResultWindow(window, 0),
		waiters:     make(map[uint64]*answerReg),
		txns:        make(map[uint64]*txnPortion),
		locks:       make(map[string]uint64),
		tombs:       make(map[uint64][]byte),
		lockSeen:    make(map[uint64]time.Time),
		store:       store,
		shard:       shard,
		initRouting: rt,
		onRouting:   onRouting,
		routing:     rt,
		flightTag:   fmt.Sprintf("kv/%s/%d", store, shard),
	}
	if rt.Shards > 0 {
		s.curRing = rt.ring(store)
	}
	return s
}

// setResult answers a command that executed: recorded, so that a retry of the
// id is answered with it instead of executing again, and handed to its waiters.
func (s *mapSM) setResult(id uint64, r result) {
	s.results.set(id, r)
	s.hand(id, r, false)
}

// refuse answers a command that did NOT execute: it touched a key this shard
// does not serve at this point in the total order (frozen mid-handoff, or
// moved: a stale client's routing lags the epoch) or one a prepared
// transaction holds locked. The caller re-resolves the owner and retries;
// nothing is recorded, so the retried id executes normally wherever it lands
// and is answered by that application only.
func (s *mapSM) refuse(id uint64) { s.hand(id, result{}, true) }

// hand is the one place an answer leaves the state machine: every local caller
// registered for id gets it, and one whose last answer it is wakes. On every
// replica but the submitter's that is one map miss.
func (s *mapSM) hand(id uint64, r result, moved bool) {
	reg := s.waiters[id]
	if reg == nil {
		return
	}
	delete(s.waiters, id)
	s.refused = s.refused || moved
	for reg != nil {
		w, next := reg.w, reg.next // a woken caller may recycle w at once, regs included
		if id == w.regs[0].id {
			w.first = r
		}
		w.moved = w.moved || moved
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
	if s.curRing == nil {
		return true // no routing installed: single-table legacy shard
	}
	if s.curRing.shard(key) != s.shard {
		return false
	}
	if s.pendRing != nil && s.pendRing.shard(key) != s.shard {
		return false
	}
	return true
}

// owns reports whether key belongs to this shard under its current table,
// whatever a pending one says.
func (s *mapSM) owns(key string) bool {
	return s.curRing == nil || s.curRing.shard(key) == s.shard
}

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
// byzantine client must not be able to diverge or crash the replicas), and a
// command whose id already has a recorded result is not re-executed: clients
// retry across replica swaps and routing epochs, and a retried CAS must not
// observe its own first execution. A refusal records nothing and so does not
// suppress the retry: the total order decides afresh whether the shard serves
// the key by then.
//
// A batch put is its pairs applied in slice order, each as the opPut it
// replaces: deduplicated, refused and answered under its own id, so a batch
// that straddles a retry or an epoch flip re-executes only the pairs that did
// not land.
func (s *mapSM) Apply(cmd []byte) {
	c, err := decodeCommand(cmd)
	if err != nil {
		return
	}
	if c.op != opBatchPut {
		s.applyCommand(c)
		return
	}
	put := command{op: opPut}
	for i, p := range c.pairs {
		put.id, put.key, put.val = c.ids[i], p.Key, p.Val
		s.applyCommand(put)
	}
}

// applyCommand executes one decoded command (never an opBatchPut: Apply
// unpacks those), unless its id already has a recorded result — which is then
// the answer.
func (s *mapSM) applyCommand(c command) {
	// Sampled is asked first: Addf's arguments are boxed before it can
	// decline them, on every command of every replica.
	sampled := s.tracer.Sampled(c.id)
	if prev, done := s.results.lookup(c.id); done {
		if sampled {
			s.tracer.Addf(c.id, "dedup hit at shard %d (seq %d)", s.shard, s.seq)
		}
		s.hand(c.id, prev, false)
		return
	}
	if sampled {
		s.tracer.Addf(c.id, "applied@seq %d op=%d shard=%d", s.seq, c.op, s.shard)
	}
	switch c.op {
	case opPut, opDelete, opCAS:
		if s.held(c.key) {
			s.refuse(c.id)
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
		s.setResult(c.id, result{OK: ok, Key: c.key})
	case opGet:
		// A read changes nothing and its answer is no dedup state: it is
		// worked out only where its caller waits.
		if s.waiters[c.id] == nil {
			return
		}
		r := result{OK: true, Values: make([][]byte, len(c.keys)), Found: make([]bool, len(c.keys))}
		if !s.readKeys(c.keys, r.Values, r.Found) {
			s.refuse(c.id)
			return
		}
		s.hand(c.id, r, false)
	case opMigrateBegin:
		s.applyMigrateBegin(c)
	case opMigrateCommit:
		s.applyMigrateCommit(c)
	case opMigrateAbort:
		s.applyMigrateAbort(c)
	case opMigrateImport:
		s.applyMigrateImport(c)
	case opTxnPrepare:
		s.applyTxnPrepare(c)
	case opTxnResolve:
		s.applyTxnResolve(c)
	case opAudit:
		s.applyAudit(c)
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

// touchLock stamps the node-local last-seen time for a prepared portion.
func (s *mapSM) touchLock(txnID uint64) {
	s.lockSeen[txnID] = time.Now()
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
	for i, k := range p.Reads {
		idx[k] = i
	}
	r.Values = make([][]byte, len(reads))
	r.Found = make([]bool, len(reads))
	for i, k := range reads {
		if j, ok := idx[k]; ok {
			if j < len(p.Values) {
				r.Values[i] = p.Values[j]
			}
			if j < len(p.Found) {
				r.Found[i] = p.Found[j]
			}
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
// decision — a late prepare must never relock after the outcome.
func (s *mapSM) applyTxnPrepare(c command) {
	if rec := s.tombs[c.txnID]; rec != nil {
		s.setResult(c.id, s.txnPrepareResultFor(decodeRecord(rec), c.keys))
		return
	}
	p := s.txns[c.txnID]
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
	for _, k := range fresh {
		if !s.serves(k) {
			s.refuse(c.id)
			return
		}
	}
	for _, k := range fresh {
		if owner, held := s.locks[k]; held && owner != c.txnID {
			s.setResult(c.id, result{Conflict: true})
			return
		}
	}
	// Conditions for already-resident keys were checked when they first
	// prepared and their values cannot have changed since (the lock blocks
	// writes), so re-evaluating everything against items is equivalent.
	for _, cc := range c.conds {
		cur, present := s.items[cc.Key]
		if present != cc.ExpectPresent || (present && !bytes.Equal(cur, cc.Expect)) {
			s.setResult(c.id, result{CondFailed: true})
			return
		}
	}
	if p == nil {
		p = &txnPortion{TxnID: c.txnID, HomeKey: c.homeKey, AllKeys: c.allKeys, State: txnStatePrepared}
		s.txns[c.txnID] = p
		s.flight.Recordf(s.flightTag, "txn %016x prepared: %d reads %d writes %d conds",
			c.txnID, len(c.keys), len(c.writes), len(c.conds))
	}
	haveRead := make(map[string]bool, len(p.Reads))
	for _, k := range p.Reads {
		haveRead[k] = true
	}
	for _, k := range c.keys {
		if haveRead[k] {
			continue
		}
		haveRead[k] = true
		p.Reads = append(p.Reads, k)
		v, found := s.items[k]
		if found {
			p.Values = append(p.Values, append([]byte(nil), v...))
		} else {
			p.Values = append(p.Values, nil)
		}
		p.Found = append(p.Found, found)
	}
	p.mergeOps(&txnPortion{Writes: c.writes, Conds: c.conds})
	for _, k := range fresh {
		s.locks[k] = c.txnID
	}
	s.touchLock(c.txnID)
	s.setResult(c.id, s.txnPrepareResultFor(p, c.keys))
}

// resolvePortion applies the decision to a prepared portion: commit lands
// the held-back writes, abort discards them; either way the locks clear and
// the portion becomes a tombstone record (see txnPortion.tombstone).
func (s *mapSM) resolvePortion(p *txnPortion, commit bool) {
	p.everyKey(func(k string) bool {
		if s.locks[k] == p.TxnID {
			delete(s.locks, k)
		}
		return true
	})
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
	s.entomb(p.tombstone())
	s.flight.Recordf(s.flightTag, "txn %016x resolved: state=%d", p.TxnID, p.State)
	if s.refused {
		s.notifyRouting()
	}
}

// entomb files t, resolved, as its tombstone record, in the place of whatever
// portion its id had, and queues it for eviction.
func (s *mapSM) entomb(t txnPortion) {
	delete(s.txns, t.TxnID)
	delete(s.lockSeen, t.TxnID)
	s.setRecord(&t)
	s.txnOrder = append(s.txnOrder, t.TxnID)
	s.evictTxns()
}

// setRecord stores p as its tombstone record, as it is: spelled in the scratch
// buffer, then copied into one of its own, exactly sized.
func (s *mapSM) setRecord(p *txnPortion) {
	s.recBuf = appendPortion(s.recBuf[:0], p)
	rec := make([]byte, len(s.recBuf))
	copy(rec, s.recBuf)
	s.tombs[p.TxnID] = rec
}

// applyTxnResolve applies a commit/abort decision to this shard's portion.
// The home shard (owner of HomeKey) arbitrates: the first resolve to
// sequence against its prepared portion fixes the transaction's outcome,
// and every later resolve or prepare re-answers it. A portion whose keys
// are frozen mid-reshard is refused — the portion migrates with its keys
// and the decision chases it to the new owner, which is what guarantees a
// reshard serializes entirely before or after the commit.
func (s *mapSM) applyTxnResolve(c command) {
	if p := s.txns[c.txnID]; p != nil {
		if !p.everyKey(s.serves) {
			s.refuse(c.id)
			return
		}
		s.resolvePortion(p, c.txnCommit)
	}
	if rec := s.tombs[c.txnID]; rec != nil {
		state := recordState(rec)
		s.setResult(c.id, result{OK: state == txnStateCommitted, TxnState: state})
		return
	}
	// No portion: this shard never saw the prepare, or already evicted the
	// tombstone. It must at least own one of the transaction's keys —
	// otherwise the decision belongs elsewhere (stale routing) and the
	// caller re-resolves.
	if s.curRing != nil && !slices.ContainsFunc(c.allKeys, s.owns) {
		s.refuse(c.id)
		return
	}
	if c.txnCommit {
		// Presumed resolved: a commit decision exists only if the prepare
		// phase finished everywhere, so re-answering success is safe even
		// past the tombstone horizon.
		s.setResult(c.id, result{OK: true, TxnState: txnStateCommitted})
		return
	}
	// Abort with no portion: plant a fence so a straggling prepare re-drive
	// cannot lock keys after the decision (presumed abort).
	s.entomb(txnPortion{TxnID: c.txnID, HomeKey: c.homeKey, AllKeys: c.allKeys, State: txnStateAborted})
	s.flight.Recordf(s.flightTag, "txn %016x fenced aborted", c.txnID)
	s.setResult(c.id, result{TxnState: txnStateAborted})
}

// evictTxns trims tombstones past the tombstone window.
func (s *mapSM) evictTxns() {
	for len(s.txnOrder) > txnTombstoneWindow {
		delete(s.tombs, s.txnOrder[0])
		s.txnOrder = s.txnOrder[1:]
	}
}

// applyMigrateBegin installs the pending routing table, freezing the key
// ranges that move away from this shard. Begins are idempotent, and a begin
// for an epoch the shard already reached (or passed) is a no-op — the retry
// of a completed handoff must not re-freeze anything.
func (s *mapSM) applyMigrateBegin(c command) {
	ok := false
	switch {
	case c.routing.Epoch <= s.routing.Epoch:
		// Already at (or past) that epoch: the handoff completed.
		ok = true
	case s.pending != nil && *s.pending == c.routing:
		ok = true // duplicate begin of the handoff in progress
	case s.pending == nil && c.routing.Epoch == s.routing.Epoch+1:
		rt := c.routing
		s.pending = &rt
		s.pendRing = rt.ring(s.store)
		ok = true
		s.flight.Recordf(s.flightTag, "migrate begin: epoch %d -> %d (%d -> %d shards)",
			s.routing.Epoch, rt.Epoch, s.routing.Shards, rt.Shards)
		s.notifyRouting()
	}
	s.setResult(c.id, result{OK: ok})
}

// applyMigrateCommit flips the shard to the new routing table: moved keys
// (exported to their new owners before the commit was sequenced) are
// deleted, the freeze lifts, and from this position in the total order the
// shard serves exactly the ranges the new table assigns it.
func (s *mapSM) applyMigrateCommit(c command) {
	if c.routing.Epoch <= s.routing.Epoch {
		s.setResult(c.id, result{OK: true}) // duplicate commit
		return
	}
	s.routing = c.routing
	s.curRing = c.routing.ring(s.store)
	s.pending = nil
	s.pendRing = nil
	dropped := 0
	for k := range s.items {
		if s.curRing.shard(k) != s.shard {
			delete(s.items, k)
			dropped++
		}
	}
	// Transaction portions follow their keys: shrink each prepared one to
	// the keys this shard still owns (the moved slices were exported as
	// sub-portions before the commit sequenced), and drop a portion with
	// nothing left here, or a tombstone none of whose transaction's keys
	// this shard owns. Locks are rederived from what remains.
	for id, p := range s.txns {
		var keep []string
		for _, k := range p.localKeys() {
			if s.curRing.shard(k) == s.shard {
				keep = append(keep, k)
			}
		}
		if len(keep) == 0 {
			delete(s.txns, id)
			delete(s.lockSeen, id)
			continue
		}
		s.txns[id] = p.subPortion(keep)
	}
	for id, rec := range s.tombs {
		if !slices.ContainsFunc(decodeRecord(rec).AllKeys, s.owns) {
			delete(s.tombs, id) // txnOrder entry left behind; evict tolerates it
		}
	}
	s.locks = make(map[string]uint64)
	for id, p := range s.txns {
		for _, k := range p.localKeys() {
			s.locks[k] = id
		}
	}
	s.flight.Recordf(s.flightTag, "migrate commit: epoch %d, %d moved keys dropped, %d kept",
		c.routing.Epoch, dropped, len(s.items))
	// The store's view first, as begin and abort do: whoever the answer
	// wakes (the coordinator) must find the flip there.
	s.notifyRouting()
	s.setResult(c.id, result{OK: true})
}

// applyMigrateAbort rolls a pending handoff back: the freeze lifts and the
// shard keeps serving under its current table. Only the exact pending epoch
// can be aborted, and never after the shard committed it.
func (s *mapSM) applyMigrateAbort(c command) {
	ok := false
	if s.pending != nil && s.pending.Epoch == c.routing.Epoch {
		s.pending = nil
		s.pendRing = nil
		ok = true
		s.flight.Recordf(s.flightTag, "migrate abort: epoch %d rolled back, serving epoch %d",
			c.routing.Epoch, s.routing.Epoch)
		s.notifyRouting()
	}
	s.setResult(c.id, result{OK: ok})
}

// applyMigrateImport installs a chunk of keys (and the dedup results that
// travel with them) streamed out of a source shard. Imports are epoch-gated:
// they apply only while this shard has not yet committed the target epoch —
// after the flip clients may write the moved ranges here, and a late
// (re-driven) import must never overwrite a newer client write with the
// source's frozen value.
func (s *mapSM) applyMigrateImport(c command) {
	if s.routing.Epoch >= c.routing.Epoch {
		s.refuse(c.id) // late chunk: already flipped
		return
	}
	for _, p := range c.pairs {
		s.items[p.Key] = p.Val
	}
	for _, r := range c.impResults {
		s.setResult(r.ID, result{OK: r.OK, Key: r.Key})
	}
	for _, t := range c.txns {
		s.importPortion(t)
	}
	s.setResult(c.id, result{OK: true})
}

// importPortion merges one migrated transaction sub-portion into this
// shard's state. The interesting cases arise when this shard already holds
// a portion for the same transaction (it was a participant too, or earlier
// chunks arrived first): the resident and incoming states must converge on
// one outcome with every write applied exactly once.
func (s *mapSM) importPortion(t *txnPortion) {
	if rec := s.tombs[t.TxnID]; rec != nil {
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
	ex := s.txns[t.TxnID]
	switch {
	case ex == nil && t.State == txnStatePrepared:
		cp := t.clone()
		s.txns[t.TxnID] = cp
		for _, k := range cp.localKeys() {
			s.locks[k] = cp.TxnID
		}
		s.touchLock(cp.TxnID)
	case ex == nil:
		s.entomb(t.tombstone())
	case t.State == txnStatePrepared:
		ex.mergeOps(t)
		for _, k := range t.localKeys() {
			s.locks[k] = ex.TxnID
		}
		s.touchLock(ex.TxnID)
	default:
		// The transaction resolved elsewhere while this slice was in
		// flight: land the decision on the resident portion too, the
		// incoming reads with it.
		ex.mergeReads(t)
		s.resolvePortion(ex, t.State == txnStateCommitted)
	}
}

// migrationView is a consistent read of the shard's routing state, for the
// handoff coordinator and the resume path.
type migrationView struct {
	Routing Routing
	Pending *Routing
	Keys    int
}

// importChunk is one migrate-import command's cargo: moved key/value pairs
// plus the dedup results whose keys move with them (tombstoned deletes
// included — their result must follow the key even though the item is gone)
// and the transaction sub-portions covering the moved keys.
type importChunk struct {
	Pairs   []Pair
	Results []importResult
	Txns    []*txnPortion
}

// importResult is one migrated dedup-window entry.
type importResult struct {
	ID  uint64
	OK  bool
	Key string
}

// exportChunks enumerates everything this shard loses under next — items
// and keyed results — grouped by destination shard and chunked to stay
// under maxBytes per chunk (at least one element per chunk). Caller must
// hold the replica lock (Read).
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
	for k, v := range s.items {
		dest := next.shard(k)
		if dest == s.shard {
			continue
		}
		ch := chunkFor(dest, len(k)+len(v)+16)
		ch.Pairs = append(ch.Pairs, Pair{Key: k, Val: append([]byte(nil), v...)})
	}
	for _, run := range s.results.fifo() {
		for i := range run {
			id, r := run[i].id, &run[i].res
			if r.Key == "" {
				continue // migration markers, txn answers and audits stay behind
			}
			dest := next.shard(r.Key)
			if dest == s.shard {
				continue
			}
			ch := chunkFor(dest, len(r.Key)+16)
			ch.Results = append(ch.Results, importResult{ID: id, OK: r.OK, Key: r.Key})
		}
	}
	// Transaction portions follow their keys: a prepared portion's slice
	// moves wherever its locked keys go (the held-back writes included, so
	// an in-flight transaction survives the reshard); a tombstone's slice
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
			for i, k := range sub.Reads {
				need += len(k) + 8
				if i < len(sub.Values) {
					need += len(sub.Values[i])
				}
			}
			ch := chunkFor(dest, need)
			ch.Txns = append(ch.Txns, sub)
		}
	}
	for _, p := range s.txns {
		export(p, p.localKeys())
	}
	for _, rec := range s.tombs {
		p := decodeRecord(rec)
		var keys []string
		for _, k := range p.AllKeys {
			if s.owns(k) {
				keys = append(keys, k)
			}
		}
		export(p, keys)
	}
	return out
}
