// Package fuzz is the adversarial harness of the repository: deterministic,
// seeded fault schedules driven against a live kv cluster under a concurrent
// recorded workload, with a linearizability checker deciding the verdict and
// a shrinker reducing failing schedules to replayable minima.
//
// The paper evaluates the group protocol's fault tolerance by argument and
// by targeted experiments; this package turns that into a machine check.
// A Schedule (schedule.go) is a pure function of its seed: crashes, restarts
// from the write-ahead log, partitions, message loss/reordering/duplication,
// disk-full and torn-tail log faults, reshardings, sequencer kills — all at
// fixed offsets. Harness.Run (harness.go) replays the schedule against a
// cluster while recording every client operation's invocation window
// (History); Check (this file) searches the recorded history for a
// per-key linearization; Shrink (shrink.go) reduces a failing schedule while
// it still fails, and the result prints as one replayable line.
package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The checker implements the Wing & Gong linearizability search with
// Lowe-style memoisation (the algorithm behind porcupine and knossos),
// specialised to the store's per-key register model:
//
//	get          → (value, found) at the op's linearization point
//	put          → value := v
//	delete       → found := false; returns whether the key existed
//	cas(e, v)    → if current matches e: value := v, returns true
//	              (expect absent = atomic create); else returns false
//
// Per-key checking is sound because per-key linearizability is the store's
// documented guarantee: every key lives on exactly one shard at any routing
// epoch, and each shard's total order linearizes its keys. Cross-key
// operations (MGet, BatchPut) decompose into per-key events at recording
// time with shared windows — exactly the claim the API documents.
//
// Failed operations have unknown outcomes: a failed write (Return < 0) may
// commit at any later point, so its window extends to infinity and its
// output is unconstrained; a failed read observed nothing and is dropped.

// CheckResult is the checker's verdict over one history.
type CheckResult struct {
	// Linearizable reports that every key's subhistory has a valid
	// linearization (or the search timed out before refuting one).
	Linearizable bool
	// Timeout reports the search hit its time budget: the history was NOT
	// proven linearizable, but no violation was found either.
	Timeout bool
	// Key is the first key whose subhistory has no linearization (empty
	// when Linearizable).
	Key string
	// Ops counts the events checked (after dropping failed reads).
	Ops int
}

func (r CheckResult) String() string {
	switch {
	case r.Timeout:
		return fmt.Sprintf("undecided (search timeout) over %d ops", r.Ops)
	case r.Linearizable:
		return fmt.Sprintf("linearizable over %d ops", r.Ops)
	default:
		return fmt.Sprintf("NOT linearizable: key %q has no valid linearization (%d ops checked)", r.Key, r.Ops)
	}
}

// Check searches the history for a per-key linearization, spending at most
// budget on the search (0 means a generous default). The search is
// worst-case exponential; the budget turns a pathological history into an
// undecided verdict instead of a hang.
func Check(events []HistoryEvent, budget time.Duration) CheckResult {
	if budget <= 0 {
		budget = 30 * time.Second
	}
	deadline := time.Now().Add(budget)
	byKey := make(map[string][]HistoryEvent)
	ops := 0
	for _, e := range decompose(events) {
		if e.Op == OpGet && e.Failed() {
			continue // observed nothing; constrains nothing
		}
		if e.Op == OpStaleGet {
			// Bounded-staleness reads opt out of linearizability by
			// definition; CheckStale holds them to their own bound.
			continue
		}
		byKey[e.Key] = append(byKey[e.Key], e)
		ops++
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic verdicts and failure attribution
	for _, k := range keys {
		ok, timedOut := checkKey(byKey[k], deadline)
		if timedOut {
			return CheckResult{Linearizable: true, Timeout: true, Ops: ops}
		}
		if !ok {
			return CheckResult{Key: k, Ops: ops}
		}
	}
	return CheckResult{Linearizable: true, Ops: ops}
}

// decompose flattens multi-key OpTxn events into the per-key events the
// register-model search consumes. The per-key claims are sound projections
// of the transactional ones: a committed transaction's write to key k is a
// put on k somewhere in the transaction's window, and each snapshot read is
// a get in the same window. What the projection deliberately drops — that
// the writes share ONE linearization point — is the atomicity claim, which
// CheckAtomic verifies separately over the undecomposed events.
func decompose(events []HistoryEvent) []HistoryEvent {
	out := make([]HistoryEvent, 0, len(events))
	for _, e := range events {
		if e.Op != OpTxn {
			out = append(out, e)
			continue
		}
		if e.Failed() {
			// Unknown outcome: the writes may land at any later point
			// (open window), the reads observed nothing.
			for _, w := range e.Writes {
				out = append(out, HistoryEvent{Client: e.Client, Op: OpPut,
					Key: w.Key, Val: w.Val, Invoke: e.Invoke, Return: -1, Err: e.Err})
			}
			continue
		}
		for i, k := range e.ReadKeys {
			out = append(out, HistoryEvent{Client: e.Client, Op: OpGet, Key: k,
				Val: e.ReadVals[i], Found: e.ReadFound[i], Invoke: e.Invoke, Return: e.Return})
		}
		if !e.Committed {
			continue // known abort: no write landed
		}
		for _, w := range e.Writes {
			pe := HistoryEvent{Client: e.Client, Key: w.Key, Invoke: e.Invoke, Return: e.Return}
			if w.Delete {
				// The txn API reports no per-key existed-before bit, so
				// the delete's output is unobserved: mark the outcome
				// unknown (the weaker, still-sound constraint).
				pe.Op, pe.Err, pe.Return = OpDelete, "txn delete: output unobserved", -1
			} else {
				pe.Op, pe.Val = OpPut, w.Val
			}
			out = append(out, pe)
		}
	}
	return out
}

// StaleResult is the bounded-staleness verdict over a history's OpStaleGet
// reads.
type StaleResult struct {
	// Bounded reports that every examined stale read observed a value that
	// was plausibly the key's value at some instant no earlier than its
	// bound (plus slack) before the invocation.
	Bounded bool
	// Violation describes the first read that observed a value provably
	// older than its bound, or a value no write produced (empty if none).
	Violation string
	// Reads counts the successful stale reads examined.
	Reads int
}

// Ok reports a clean verdict.
func (r StaleResult) Ok() bool { return r.Bounded }

func (r StaleResult) String() string {
	if !r.Bounded {
		return "STALE BOUND VIOLATED: " + r.Violation
	}
	return fmt.Sprintf("stale bound held (%d stale reads)", r.Reads)
}

// CheckStale verifies every OpStaleGet against its bound: the observed value
// must have been the key's value at some instant t in the window
// [Invoke − Bound − slack, Return]. With (near-)unique write values the test
// is exact: the value's producing write w must have invoked by the window's
// end, and no later write (one invoked after w returned) may have completed
// before t — a completed successor proves the value was already replaced.
// Values produced by failed writes pass (their landing time is unknowable),
// and absence observations are not checked (absence has no producing write
// to date). slack absorbs the grant/tick granularity the server's
// conservative freshness accounting already includes.
func CheckStale(events []HistoryEvent, slack time.Duration) StaleResult {
	flat := decompose(events)
	// Per-key writes: value producers and overwrite refuters.
	type write struct {
		val            []byte
		invoke, ret    int64
		failed, erases bool
	}
	writes := make(map[string][]write)
	for _, e := range flat {
		switch e.Op {
		case OpPut:
			writes[e.Key] = append(writes[e.Key], write{val: e.Val, invoke: e.Invoke, ret: e.Return, failed: e.Failed()})
		case OpCAS:
			if e.Failed() || e.Found { // a known-failed compare wrote nothing
				writes[e.Key] = append(writes[e.Key], write{val: e.Val, invoke: e.Invoke, ret: e.Return, failed: e.Failed()})
			}
		case OpDelete:
			writes[e.Key] = append(writes[e.Key], write{invoke: e.Invoke, ret: e.Return, failed: e.Failed(), erases: true})
		}
	}
	res := StaleResult{Bounded: true}
	for _, e := range events {
		if e.Op != OpStaleGet || e.Failed() || !e.Found {
			continue
		}
		res.Reads++
		t0 := e.Invoke - int64(e.Bound+slack)
		plausible := false
		sawProducer := false
		for _, w := range writes[e.Key] {
			if w.erases || string(w.val) != string(e.Val) {
				continue
			}
			sawProducer = true
			if w.failed {
				// The write's landing time is unknown: it may have applied
				// moments before the read. Cannot refute.
				plausible = true
				break
			}
			if w.invoke > e.Return {
				continue // value from the future: not this producer
			}
			t := t0
			if w.invoke > t {
				t = w.invoke // value fresh as of its own write: within bound
			}
			replaced := false
			for _, w2 := range writes[e.Key] {
				if !w2.failed && w2.invoke >= w.ret && w2.ret <= t {
					replaced = true // a successor completed before t
					break
				}
			}
			if !replaced {
				plausible = true
				break
			}
		}
		if !plausible {
			res.Bounded = false
			what := "provably replaced before the bound window"
			if !sawProducer {
				what = "a value no write produced"
			}
			res.Violation = fmt.Sprintf("client %d staleget %q observed %q (bound %s): %s",
				e.Client, e.Key, e.Val, e.Bound, what)
			return res
		}
	}
	return res
}

// BankSpec names the bank-account keys the workload maintains by balance-
// conserving transfers, and the sum every consistent snapshot of all of
// them must observe. Values encode the balance as a decimal prefix
// terminated by '|' (the suffix keeps writes globally unique).
type BankSpec struct {
	Keys  []string
	Total int64
}

// bankBalance parses the balance prefix of a bank value.
func bankBalance(val []byte) (int64, bool) {
	s := string(val)
	if i := strings.IndexByte(s, '|'); i >= 0 {
		s = s[:i]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// AtomicResult is the multi-key atomicity verdict over a history's
// transactions and snapshots.
type AtomicResult struct {
	// Atomic reports that no torn transaction and no bank-invariant
	// violation was found.
	Atomic bool
	// Torn describes the first snapshot observed to contain a partially
	// applied committed transaction (empty if none).
	Torn string
	// BankViolation describes the first full-coverage snapshot whose
	// balances do not sum to the spec total (empty if none).
	BankViolation string
	// Snapshots counts the successful multi-key snapshots examined.
	Snapshots int
}

// Ok reports a clean verdict.
func (r AtomicResult) Ok() bool { return r.Atomic }

func (r AtomicResult) String() string {
	switch {
	case r.Torn != "":
		return "TORN TRANSACTION: " + r.Torn
	case r.BankViolation != "":
		return "BANK INVARIANT VIOLATED: " + r.BankViolation
	default:
		return fmt.Sprintf("atomic over %d snapshots", r.Snapshots)
	}
}

// CheckAtomic verifies the multi-key claims the per-key search cannot see:
//
//   - No torn transactions: a snapshot that observes SOME of a committed
//     transaction's writes must not, for another key the transaction wrote,
//     observe a value that certainly predates the transaction (its writer
//     returned before the transaction was invoked). Real-time certainty
//     makes the test sound under concurrency — overlapping writers are
//     never flagged.
//   - The bank invariant: every successful snapshot covering all of
//     spec.Keys sums to spec.Total. Transfers move balance between
//     accounts atomically, so any other sum is a torn or lost update.
//
// spec may be nil to skip the bank check.
func CheckAtomic(events []HistoryEvent, spec *BankSpec) AtomicResult {
	// writers pins every unique written value to its event, for the
	// predates-the-transaction test.
	writers := make(map[string]HistoryEvent)
	note := func(val []byte, e HistoryEvent) {
		if len(val) > 0 {
			writers[string(val)] = e
		}
	}
	var snaps, txns []HistoryEvent
	for _, e := range events {
		switch e.Op {
		case OpPut:
			note(e.Val, e)
		case OpCAS:
			if !e.Failed() && e.Found {
				note(e.Val, e)
			}
		case OpTxn:
			if e.Failed() {
				continue
			}
			if e.Committed {
				for _, w := range e.Writes {
					if !w.Delete {
						note(w.Val, e)
					}
				}
				if len(e.Writes) >= 2 {
					txns = append(txns, e)
				}
			}
			if len(e.ReadKeys) > 0 {
				snaps = append(snaps, e)
			}
		}
	}

	res := AtomicResult{Atomic: true, Snapshots: len(snaps)}
	for _, s := range snaps {
		obs := make(map[string]int, len(s.ReadKeys))
		for i, k := range s.ReadKeys {
			obs[k] = i
		}
		for _, t := range txns {
			var covered, seen []string
			for _, w := range t.Writes {
				i, ok := obs[w.Key]
				if !ok || w.Delete {
					continue
				}
				covered = append(covered, w.Key)
				if s.ReadFound[i] && bytes.Equal(s.ReadVals[i], w.Val) {
					seen = append(seen, w.Key)
				}
			}
			if len(covered) < 2 || len(seen) == 0 || len(seen) == len(covered) {
				continue
			}
			// Partial observation: torn only if an unseen key's observed
			// value certainly predates the transaction. An absent key is
			// never flagged here — a later delete explains it (the bank
			// check separately rejects absent accounts).
			for _, k := range covered {
				i := obs[k]
				if bytesContains(seen, k) || !s.ReadFound[i] {
					continue
				}
				w, ok := writers[string(s.ReadVals[i])]
				if ok && !w.Failed() && w.Return < t.Invoke {
					res.Atomic = false
					res.Torn = fmt.Sprintf(
						"snapshot by client %d at [%d,%d] observes txn (client %d at [%d,%d]) write to %q but a pre-txn value for %q",
						s.Client, s.Invoke, s.Return, t.Client, t.Invoke, t.Return, seen[0], k)
					return res
				}
			}
		}
	}

	if spec != nil {
		for _, s := range snaps {
			obs := make(map[string]int, len(s.ReadKeys))
			for i, k := range s.ReadKeys {
				obs[k] = i
			}
			sum, full := int64(0), true
			for _, k := range spec.Keys {
				i, ok := obs[k]
				if !ok {
					full = false
					break
				}
				if !s.ReadFound[i] {
					res.Atomic = false
					res.BankViolation = fmt.Sprintf(
						"snapshot by client %d at [%d,%d] finds account %q absent", s.Client, s.Invoke, s.Return, k)
					return res
				}
				b, ok2 := bankBalance(s.ReadVals[i])
				if !ok2 {
					full = false
					break
				}
				sum += b
			}
			if full && sum != spec.Total {
				res.Atomic = false
				res.BankViolation = fmt.Sprintf(
					"snapshot by client %d at [%d,%d] sums to %d, want %d", s.Client, s.Invoke, s.Return, sum, spec.Total)
				return res
			}
		}
	}
	return res
}

// bytesContains reports whether list contains k.
func bytesContains(list []string, k string) bool {
	for _, s := range list {
		if s == k {
			return true
		}
	}
	return false
}

// regState is one key's state: the value, or absence.
type regState struct {
	present bool
	val     []byte
}

// apply linearizes e against s, reporting whether e's recorded output is
// consistent and the post-state. Transitions are deterministic in the
// pre-state; failed ops (unknown output) skip the output check.
func apply(s regState, e HistoryEvent) (regState, bool) {
	unknown := e.Failed()
	switch e.Op {
	case OpGet:
		if !unknown {
			if e.Found != s.present {
				return s, false
			}
			if s.present && !bytes.Equal(e.Val, s.val) {
				return s, false
			}
		}
		return s, true
	case OpPut:
		return regState{present: true, val: e.Val}, true
	case OpDelete:
		if !unknown && e.Found != s.present {
			return s, false
		}
		return regState{}, true
	case OpCAS:
		matched := false
		if e.ExpectPresent {
			matched = s.present && bytes.Equal(s.val, e.Expect)
		} else {
			matched = !s.present
		}
		if !unknown && e.Found != matched {
			return s, false
		}
		if matched {
			return regState{present: true, val: e.Val}, true
		}
		return s, true
	}
	return s, false
}

// checkKey runs the linearization search over one key's events. Reports
// (linearizable, timedOut); timedOut true means the search gave up.
func checkKey(evs []HistoryEvent, deadline time.Time) (bool, bool) {
	n := len(evs)
	if n == 0 {
		return true, false
	}
	inv := make([]int64, n)
	ret := make([]int64, n)
	order := make([]int, n)
	for i := range evs {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return evs[order[a]].Invoke < evs[order[b]].Invoke })
	sorted := make([]HistoryEvent, n)
	for i, idx := range order {
		sorted[i] = evs[idx]
		inv[i] = sorted[i].Invoke
		ret[i] = sorted[i].Return
		if ret[i] < 0 { // never returned / outcome unknown: window open-ended
			ret[i] = math.MaxInt64
		}
	}

	// retOrder lists op indices by ascending return time; the minimality
	// test below needs only the two smallest returns among remaining ops.
	retOrder := make([]int, n)
	for i := range retOrder {
		retOrder[i] = i
	}
	sort.SliceStable(retOrder, func(a, b int) bool { return ret[retOrder[a]] < ret[retOrder[b]] })

	words := (n + 63) / 64
	done := make([]uint64, words)
	// seen memoises refuted (linearized-set, state) configurations.
	seen := make(map[string]bool)
	type frame struct {
		state regState
		// next is the candidate index to try at this depth.
		next int
		// chosen is the op linearized to descend from this frame.
		chosen int
	}
	stack := make([]frame, 1, n+1)
	stack[0] = frame{state: regState{}, chosen: -1}
	linearized := 0
	checks := 0

	memoKey := func(s regState) string {
		b := make([]byte, 0, words*8+1+len(s.val))
		for _, w := range done {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		if s.present {
			b = append(b, '=')
			b = append(b, s.val...)
		}
		return string(b)
	}

	for {
		if checks++; checks&1023 == 0 && time.Now().After(deadline) {
			return true, true
		}
		if linearized == n {
			return true, false
		}
		top := &stack[len(stack)-1]
		// The two earliest returns among remaining ops: candidate i is a
		// legal first op iff no OTHER remaining op returned before i
		// invoked, i.e. the earliest remaining return excluding i is not
		// before inv[i]. The done set is fixed for the whole candidate
		// scan, so two values cover every candidate in O(1).
		min1, min2 := int64(math.MaxInt64), int64(math.MaxInt64)
		min1idx := -1
		for _, idx := range retOrder {
			if done[idx/64]&(1<<(idx%64)) != 0 {
				continue
			}
			if min1idx < 0 {
				min1, min1idx = ret[idx], idx
				continue
			}
			min2 = ret[idx]
			break
		}
		advanced := false
		for i := top.next; i < n; i++ {
			if done[i/64]&(1<<(i%64)) != 0 {
				continue
			}
			minOther := min1
			if i == min1idx {
				minOther = min2
			}
			if minOther < inv[i] {
				continue
			}
			next, ok := apply(top.state, sorted[i])
			if !ok {
				continue
			}
			done[i/64] |= 1 << (i % 64)
			key := memoKey(next)
			if seen[key] {
				done[i/64] &^= 1 << (i % 64)
				continue
			}
			top.next = i + 1
			top.chosen = i
			linearized++
			stack = append(stack, frame{state: next, chosen: -1})
			advanced = true
			break
		}
		if advanced {
			continue
		}
		// Dead end: every remaining choice refuted. Record and backtrack.
		seen[memoKey(top.state)] = true
		if len(stack) == 1 {
			return false, false
		}
		stack = stack[:len(stack)-1]
		parent := &stack[len(stack)-1]
		i := parent.chosen
		done[i/64] &^= 1 << (i % 64)
		linearized--
		parent.chosen = -1
	}
}
