package kv

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"amoeba/shared"
)

// Cross-shard transactions: sequenced two-phase commit on the total order.
//
// Each shard already has everything a transaction participant needs — a
// total order, exactly-once command dedup, a write-ahead log, and
// epoch-gated routing — so the commit protocol is built entirely out of
// ordinary sequenced commands:
//
//	prepare(txnID, reads, writes, conds)   one per participant shard
//	resolve(txnID, commit|abort)           one per participant shard
//
// A prepare locks the transaction's local keys, checks its conditions, and
// captures its reads, all at one position in the shard's order; ordinary
// writes to a locked key answer Moved and retry after the lock clears. The
// home shard — the owner of the lexicographically first key — arbitrates:
// the first resolve to sequence against its prepared portion fixes the
// outcome, and every later resolve or prepare re-answers that decision from
// the attempt's record. The coordinator (any Client) therefore:
//
//	phase 1: prepare every participant in parallel
//	phase 2: resolve the home portion with commit=true — the commit point
//	phase 3: echo the home's answered decision to the other participants
//
// Because prepares and resolves are journaled like any command, an
// interrupted transaction is crash-resumable exactly the way an interrupted
// reshard handoff is: a shard that logged its resolve re-answers it, a shard
// still prepared holds its locks until recovery — the boot pass and a
// janitor goroutine on every node — asks the home shard to arbitrate
// (resolve with commit=false: presumed abort if the home is still prepared,
// the recorded decision otherwise) and echoes the answer. Prepared portions
// migrate with their keys during live resharding, so a reshard serializes
// entirely before or after the commit, never through it.
//
// A transaction is the (session, seq) of the ReqTxn that started it, and its
// attempts are numbered within it (txnID): every prepare and resolve of an
// attempt carries that header, so a shard files the attempt's record under the
// transaction's session and frees it when the session's ack passes the seq.
// The coordinator's request is acknowledged only after every participant has
// the decision (phase 3 returns), and a transaction that fails leaves its seq
// unacknowledged for good (Client.Do retires the session), so a record is
// never freed while a participant might still ask for its decision.

// TxnWrite is one write in a transaction: set Key to Val, or remove it.
type TxnWrite struct {
	Key    string
	Val    []byte
	Delete bool
}

// TxnCond is one precondition: Key's value must equal Expect
// (ExpectPresent true) or the key must be absent (ExpectPresent false).
// Any failing condition aborts the transaction without retry.
type TxnCond struct {
	Key           string
	ExpectPresent bool
	Expect        []byte
}

// TxnOp describes one transaction: the keys to read, the writes to apply
// atomically, and the conditions gating the commit. Keys may repeat and
// overlap freely across the three sets.
type TxnOp struct {
	Reads  []string
	Writes []TxnWrite
	Conds  []TxnCond
}

// TxnResult is a transaction's outcome. Values and Found align with the
// TxnOp's Reads and were captured while every key was locked — a consistent
// cross-shard snapshot whether or not the transaction committed its writes.
type TxnResult struct {
	Committed  bool
	CondFailed bool
	Values     [][]byte
	Found      []bool
}

// Txn executes one multi-key read-write transaction atomically across
// however many shards its keys span: either every write lands or none does,
// conditions are checked against the same locked snapshot the reads
// observe, and no other operation sees a half-applied state. Conflicts with
// concurrent transactions retry internally under fresh attempts;
// CondFailed aborts are final, like a failed CAS.
func (c *Client) Txn(ctx context.Context, op TxnOp) (*TxnResult, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqTxn, Keys: op.Reads, Writes: op.Writes, Conds: op.Conds})
	if err != nil {
		return nil, err
	}
	return &TxnResult{
		Committed:  resp.OK,
		CondFailed: resp.CondFailed,
		Values:     resp.Values,
		Found:      resp.Found,
	}, nil
}

// txnRequest starts a prepare or resolve of attempt k, sent with ack, the
// transaction's session's ack as its request carried it.
func txnRequest(op byte, k txnID, ack uint64) *Request {
	return &Request{Op: op, Session: k.session, ID: k.seq, Ack: ack, Attempt: k.attempt}
}

// maxTxnAttempts bounds conflict retries before surfacing an error.
const maxTxnAttempts = 64

// txnExecute is the coordinator loop behind ReqTxn: drive attempts until one
// decides (committed, aborted-by-condition) or the attempt budget runs out.
// Attempt numbers start at 0 for every drive of the request, which is what
// makes a RETRIED ReqTxn idempotent: the retry re-drives the same attempts,
// and every portion it touches re-answers instead of re-executing.
func (c *Client) txnExecute(ctx context.Context, req *Request) (*Response, error) {
	allKeys := txnKeys(req)
	if len(allKeys) == 0 {
		return &Response{OK: true, TxnState: txnStateCommitted}, nil
	}
	var t0 time.Time
	if c.txnTotalH != nil {
		t0 = time.Now()
	}
	for n := 0; n < maxTxnAttempts; n++ {
		k := txnID{session: req.Session, seq: req.ID, attempt: uint32(n)}
		res, retry, err := c.txnAttempt(ctx, k, allKeys, req)
		if err != nil {
			return nil, err
		}
		if retry {
			c.txnConflicts.Add(1)
			c.tracer.Addf(req.traceID(), "txn conflict, retrying (attempt %d)", n+1)
			// Jittered backoff so colliding coordinators separate. A timer,
			// not the change channel: the other coordinator may be remote,
			// and only the jitter breaks the symmetry between the two.
			d := time.Duration(n+1) * 2 * time.Millisecond
			d += time.Duration(rand.Int63n(int64(d)))
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
			continue
		}
		if c.txnTotalH != nil {
			c.txnTotalH.Observe(time.Since(t0))
		}
		out := &Response{OK: res.Committed, CondFailed: res.CondFailed, Values: res.Values, Found: res.Found}
		if res.Committed {
			c.txnCommitted.Add(1)
			out.TxnState = txnStateCommitted
		} else {
			c.txnAborted.Add(1)
			out.TxnState = txnStateAborted
		}
		return out, nil
	}
	return nil, fmt.Errorf("kv: transaction %016x/%d: too much contention (%d attempts)", req.Session, req.ID, maxTxnAttempts)
}

// txnKeys is the sorted, deduplicated union of a transaction's keys. Its
// first element is the home key.
func txnKeys(req *Request) []string {
	keys := make([]string, req.numKeys())
	for i := range keys {
		keys[i] = req.keyAt(i)
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}

// txnAttempt drives attempt k of the 2PC. It reports (result, retry, err):
// retry true means the attempt lost a race (conflict, or recovery aborted
// it) and the caller should try again under a fresh attempt. A transport
// error leaves the attempt in doubt — the janitor (or a retry of the same
// request) resolves it.
func (c *Client) txnAttempt(ctx context.Context, k txnID, allKeys []string, req *Request) (*TxnResult, bool, error) {
	homeKey := allKeys[0]
	if id := req.traceID(); c.tracer.Sampled(id) {
		c.tracer.Addf(id, "txn prepare: %d keys, home %q (attempt %d)", len(allKeys), homeKey, k.attempt)
	}

	// Phase 1: prepare every participant. One request covering the whole
	// transaction; Do splits it per shard under the live table and merges
	// the answers (re-splitting across epoch flips as needed — a single
	// attempt's content may end up partitioned differently across re-drives,
	// which the state machine's accretive prepare merge absorbs).
	var prepT0 time.Time
	if c.txnPrepH != nil {
		prepT0 = time.Now()
	}
	prepare := txnRequest(ReqTxnPrepare, k, req.Ack)
	prepare.HomeKey, prepare.AllKeys = homeKey, allKeys
	prepare.Keys, prepare.Writes, prepare.Conds = req.Keys, req.Writes, req.Conds
	prep, err := c.Do(ctx, prepare)
	if err != nil {
		return nil, false, fmt.Errorf("kv: txn %v prepare: %w", k, err)
	}
	if c.txnPrepH != nil {
		c.txnPrepH.Observe(time.Since(prepT0))
	}
	mkResult := func(committed bool) *TxnResult {
		return &TxnResult{Committed: committed, Values: prep.Values, Found: prep.Found}
	}
	switch {
	case prep.TxnState == txnStateCommitted:
		// A prior drive of this same attempt already committed (we are a
		// retried request): make sure the echo finished and re-answer. A
		// commit decision exists only via a sequenced resolve at the home,
		// so the home portion is already resolved.
		if err := c.txnResolveEcho(ctx, k, req.Ack, true, homeKey, allKeys, true); err != nil {
			return nil, false, err
		}
		return mkResult(true), false, nil
	case prep.Conflict || prep.TxnState == txnStateAborted:
		// Lost a key to another live transaction, or recovery already
		// aborted this attempt: release whatever we locked, try afresh. An
		// echo that failed may have left a participant locked, so it fails
		// the transaction, and Do keeps its records for the janitor.
		if err := c.txnResolveEcho(ctx, k, req.Ack, false, homeKey, allKeys, false); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	case prep.CondFailed:
		if err := c.txnResolveEcho(ctx, k, req.Ack, false, homeKey, allKeys, false); err != nil {
			return nil, false, err
		}
		return &TxnResult{CondFailed: true}, false, nil
	}

	// All portions prepared. A read-only transaction is done: the captured
	// values are a consistent snapshot (every key was locked when the last
	// prepare sequenced); the locks just need releasing.
	if len(req.Writes) == 0 {
		if err := c.txnResolveEcho(ctx, k, req.Ack, false, homeKey, allKeys, false); err != nil {
			return nil, false, err
		}
		return mkResult(true), false, nil
	}

	// Phase 2: resolve the home portion — the commit point. The home's
	// sequenced answer IS the decision, whatever we asked for: if recovery
	// aborted the home first, it answers aborted and we retry.
	var resT0 time.Time
	if c.txnResH != nil {
		resT0 = time.Now()
	}
	resolve := txnRequest(ReqTxnResolve, k, req.Ack)
	resolve.Commit, resolve.Key, resolve.HomeKey, resolve.AllKeys = true, homeKey, homeKey, allKeys
	home, err := c.Do(ctx, resolve)
	if err != nil {
		return nil, false, fmt.Errorf("kv: txn %v commit: %w", k, err)
	}
	committed := home.TxnState == txnStateCommitted
	c.tracer.Addf(req.traceID(), "txn home decided: committed=%v", committed)

	// Phase 3: echo the decision to every participant except the home —
	// phase 2's resolve already settled the home shard's whole portion.
	if err := c.txnResolveEcho(ctx, k, req.Ack, committed, homeKey, allKeys, true); err != nil {
		return nil, false, err
	}
	if c.txnResH != nil {
		c.txnResH.Observe(time.Since(resT0))
	}
	if !committed {
		return nil, true, nil
	}
	return mkResult(true), false, nil
}

// txnResolveEcho delivers a decision to every shard serving any of the
// transaction's keys: one resolve per shard group, in parallel, repeated
// until a full round completes at a stable routing epoch (a reshard mid-echo
// can split a group across new shards — the repeat covers the splinters).
//
// homeDone says the home shard's portion was already resolved by the caller
// (phase 2's commit point, or recovery's arbitration), so the first round
// skips the home key's group instead of re-resolving it — on the common
// two-shard transaction that halves the echo. The skip applies only to the
// first round: a repeat round means the epoch flipped mid-echo, and after a
// reshard the home key's group may hold migrated-in keys whose portions the
// phase-2 resolve never saw, so repeats cover every group (resolves
// re-answer idempotently).
func (c *Client) txnResolveEcho(ctx context.Context, k txnID, ack uint64, commit bool, homeKey string, allKeys []string, homeDone bool) error {
	for {
		r, rt := c.routingRing()
		if r == nil {
			return fmt.Errorf("kv: txn %v: resolve echo needs ring knowledge", k)
		}
		// One resolve per shard that serves any of the keys — the groups a
		// read of them all would form — each routed by its group's first key.
		_, parts := group(r, &Request{Op: ReqGet, Keys: allKeys})
		if homeDone {
			homeDone = false
			home := r.shard(homeKey)
			parts = slices.DeleteFunc(parts, func(p shardPart) bool { return p.shard == home })
			c.tracer.Addf(cmdID(k.session, k.seq), "txn echo: home shard skipped (already resolved)")
		}
		// Each resolve is a request of its own: a Moved answer re-drives it
		// in Do, chasing its portion across the epoch flip.
		err := scatter(parts, nil, func(p *shardPart) (*Response, error) {
			resolve := txnRequest(ReqTxnResolve, k, ack)
			resolve.Commit, resolve.Key, resolve.HomeKey, resolve.AllKeys = commit, p.key, homeKey, allKeys
			return c.Do(ctx, resolve)
		})
		if err != nil {
			return fmt.Errorf("kv: txn %v resolve echo: %w", k, err)
		}
		if _, rt2 := c.routingRing(); rt2.Epoch == rt.Epoch {
			return nil
		}
	}
}

// mergePrepareAnswers folds per-shard prepare answers into one response:
// the most decided state wins (aborted > committed > prepared), conflict and
// condition failures accumulate, and read values return to their places in
// the request's key order.
func mergePrepareAnswers(req *Request, parts []shardPart) *Response {
	out := &Response{TxnState: txnStatePrepared}
	if len(req.Keys) > 0 {
		out.Values = make([][]byte, len(req.Keys))
		out.Found = make([]bool, len(req.Keys))
	}
	for p := range parts {
		resp := parts[p].resp
		if resp.Conflict {
			out.Conflict = true
		}
		if resp.CondFailed {
			out.CondFailed = true
		}
		switch resp.TxnState {
		case txnStateAborted:
			out.TxnState = txnStateAborted
		case txnStateCommitted:
			if out.TxnState != txnStateAborted {
				out.TxnState = txnStateCommitted
			}
		}
		for j, i := range parts[p].idx { // a refusal carries no values
			if j < len(resp.Values) {
				out.Values[i] = resp.Values[j]
			}
			if j < len(resp.Found) {
				out.Found[i] = resp.Found[j]
			}
		}
	}
	out.OK = !out.Conflict && !out.CondFailed && out.TxnState != txnStateAborted
	return out
}

// --- In-doubt recovery --------------------------------------------------------

// recoverTxn resolves one in-doubt transaction from the participant side,
// used when the coordinator client died between prepare and resolve. The
// home shard arbitrates: a resolve with commit=false aborts a still-prepared
// home portion (presumed abort — the coordinator cannot have committed
// without the home's sequenced decision) or re-answers the recorded
// decision; either way the answered state is echoed everywhere. The resolves
// carry the transaction's header with no ack: recovery acknowledges nothing.
func (c *Client) recoverTxn(ctx context.Context, p *txnPortion) error {
	resolve := txnRequest(ReqTxnResolve, p.ID, 0)
	resolve.Key, resolve.HomeKey, resolve.AllKeys = p.HomeKey, p.HomeKey, p.AllKeys
	resp, err := c.Do(ctx, resolve)
	if err != nil {
		return err
	}
	commit := resp.TxnState == txnStateCommitted
	c.tracer.Addf(cmdID(p.ID.session, p.ID.seq), "txn recovery: home arbitrated committed=%v", commit)
	return c.txnResolveEcho(ctx, p.ID, 0, commit, p.HomeKey, p.AllKeys, true)
}

// inDoubtTxns lists prepared portions held by this node's replicas whose
// locks have been visible for at least minAge (minAge <= 0: all of them).
// Only identity fields are returned — recovery needs the home and key set,
// not the payload.
func (s *Store) inDoubtTxns(minAge time.Duration) []*txnPortion {
	cutoff := time.Now().Add(-minAge)
	all := minAge <= 0
	seen := make(map[txnID]bool)
	var out []*txnPortion
	for _, r := range s.snapshotShards() {
		if r == nil {
			continue
		}
		r.Read(func(m shared.StateMachine) {
			sm := m.(*mapSM)
			for id, p := range sm.txns {
				if seen[id] {
					continue
				}
				if !all {
					if t, ok := sm.lockSeen[id]; ok && t.After(cutoff) {
						continue
					}
				}
				seen[id] = true
				out = append(out, &txnPortion{
					ID:      p.ID,
					HomeKey: p.HomeKey,
					AllKeys: append([]string(nil), p.AllKeys...),
				})
			}
		})
	}
	return out
}

// recoverInDoubt drives every in-doubt transaction at least minAge old to
// resolution, best effort (failures stay prepared; the janitor or the next
// boot pass retries). Used at durable-bootstrap time with minAge 0 — after a
// kill-all crash the coordinators are certainly gone — and periodically by
// the janitor with Options.TxnRecoveryAfter.
func (s *Store) recoverInDoubt(ctx context.Context, minAge time.Duration) int {
	pending := s.inDoubtTxns(minAge)
	if len(pending) == 0 {
		return 0
	}
	c := s.NewClient()
	defer c.Close()
	resolved := 0
	for _, p := range pending {
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := c.recoverTxn(rctx, p)
		cancel()
		if err != nil {
			s.flight().Recordf("kv/"+s.name, "txn %v recovery failed: %v", p.ID, err)
			continue
		}
		resolved++
		s.flight().Recordf("kv/"+s.name, "txn %v recovered", p.ID)
	}
	return resolved
}

// txnJanitor periodically resolves transactions whose prepare locks outlived
// Options.TxnRecoveryAfter — the coordinator died mid-2PC. Runs on every
// node; recovery is idempotent, so concurrent janitors (and a returning
// coordinator) converge on the home shard's one decision.
func (s *Store) txnJanitor(ctx context.Context) {
	defer s.healWG.Done()
	after := s.opts.TxnRecoveryAfter
	interval := after / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if s.isClosed() {
			return
		}
		s.recoverInDoubt(ctx, after)
	}
}
