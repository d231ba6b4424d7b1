package fuzz

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// ev builds a history event tersely for synthetic histories.
func ev(client int, op HistoryOp, key, val string, found bool, invoke, ret int64) HistoryEvent {
	e := HistoryEvent{Client: client, Op: op, Key: key, Found: found, Invoke: invoke, Return: ret}
	if val != "" {
		e.Val = []byte(val)
	}
	return e
}

func mustLinearizable(t *testing.T, evs []HistoryEvent) {
	t.Helper()
	res := Check(evs, time.Minute)
	if !res.Linearizable || res.Timeout {
		t.Fatalf("history should be linearizable, got %s", res)
	}
}

func mustViolate(t *testing.T, evs []HistoryEvent) {
	t.Helper()
	res := Check(evs, time.Minute)
	if res.Linearizable {
		t.Fatalf("history should NOT be linearizable, got %s", res)
	}
}

func TestCheckSequentialHistory(t *testing.T) {
	mustLinearizable(t, []HistoryEvent{
		ev(0, OpGet, "k", "", false, 0, 10), // absent before any write
		ev(0, OpPut, "k", "a", false, 20, 30),
		ev(0, OpGet, "k", "a", true, 40, 50),
		ev(0, OpDelete, "k", "", true, 60, 70), // existed
		ev(0, OpGet, "k", "", false, 80, 90),
	})
}

func TestCheckStaleReadViolates(t *testing.T) {
	mustViolate(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		ev(0, OpPut, "k", "b", false, 20, 30),
		ev(1, OpGet, "k", "a", true, 40, 50), // stale: b overwrote a
	})
}

func TestCheckLostWriteViolates(t *testing.T) {
	// The read observes a value nothing wrote.
	mustViolate(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		ev(1, OpGet, "k", "ghost", true, 20, 30),
	})
}

func TestCheckConcurrentWritesEitherOrder(t *testing.T) {
	// Two overlapping puts: a later read may see either, but a pair of
	// sequential reads must not see them flip-flop.
	base := []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 100),
		ev(1, OpPut, "k", "b", false, 0, 100),
	}
	mustLinearizable(t, append(append([]HistoryEvent(nil), base...),
		ev(2, OpGet, "k", "a", true, 200, 210)))
	mustLinearizable(t, append(append([]HistoryEvent(nil), base...),
		ev(2, OpGet, "k", "b", true, 200, 210)))
	mustViolate(t, append(append([]HistoryEvent(nil), base...),
		ev(2, OpGet, "k", "a", true, 200, 210),
		ev(2, OpGet, "k", "b", true, 220, 230),
		ev(2, OpGet, "k", "a", true, 240, 250))) // b..a..b..a impossible
}

func TestCheckCASSemantics(t *testing.T) {
	casEv := func(client int, key, expect, val string, expectPresent, ok bool, inv, ret int64) HistoryEvent {
		e := ev(client, OpCAS, key, val, ok, inv, ret)
		if expect != "" || expectPresent {
			e.Expect = []byte(expect)
		}
		e.ExpectPresent = expectPresent
		return e
	}
	// Atomic create succeeds once, the second create fails.
	mustLinearizable(t, []HistoryEvent{
		casEv(0, "k", "", "a", false, true, 0, 10),
		casEv(1, "k", "", "b", false, false, 20, 30),
		ev(0, OpGet, "k", "a", true, 40, 50),
	})
	// Both creates claiming success cannot linearize.
	mustViolate(t, []HistoryEvent{
		casEv(0, "k", "", "a", false, true, 0, 10),
		casEv(1, "k", "", "b", false, true, 20, 30),
		ev(0, OpGet, "k", "a", true, 40, 50),
		ev(0, OpGet, "k", "a", true, 60, 70),
	})
	// Successful swap is visible.
	mustLinearizable(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		casEv(1, "k", "a", "b", true, true, 20, 30),
		ev(0, OpGet, "k", "b", true, 40, 50),
	})
	// A CAS that reported failure must not have taken effect.
	mustViolate(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		casEv(1, "k", "a", "b", true, false, 20, 30),
		ev(0, OpGet, "k", "b", true, 40, 50),
	})
}

func TestCheckFailedWriteMayOrMayNotApply(t *testing.T) {
	// A write with unknown outcome (Return < 0) can linearize late —
	// explaining a read that sees it…
	mustLinearizable(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		{Client: 1, Op: OpPut, Key: "k", Val: []byte("b"), Invoke: 20, Return: -1, Err: "timeout"},
		ev(2, OpGet, "k", "b", true, 30, 40),
	})
	// …or never apply at all.
	mustLinearizable(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		{Client: 1, Op: OpPut, Key: "k", Val: []byte("b"), Invoke: 20, Return: -1, Err: "timeout"},
		ev(2, OpGet, "k", "a", true, 30, 40),
		ev(2, OpGet, "k", "a", true, 50, 60),
	})
	// But it cannot apply BEFORE its invocation.
	mustViolate(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		ev(2, OpGet, "k", "b", true, 12, 14), // reads b before b was ever invoked
		{Client: 1, Op: OpPut, Key: "k", Val: []byte("b"), Invoke: 20, Return: -1, Err: "timeout"},
	})
}

func TestCheckFailedReadsDropped(t *testing.T) {
	mustLinearizable(t, []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		{Client: 1, Op: OpGet, Key: "k", Invoke: 20, Return: -1, Err: "timeout"},
		ev(0, OpGet, "k", "a", true, 30, 40),
	})
}

func TestCheckKeysIndependent(t *testing.T) {
	// A violation on one key is found even among clean traffic on others.
	mustViolate(t, []HistoryEvent{
		ev(0, OpPut, "x", "1", false, 0, 10),
		ev(0, OpGet, "x", "1", true, 20, 30),
		ev(1, OpPut, "y", "2", false, 0, 10),
		ev(1, OpGet, "y", "ghost", true, 20, 30),
	})
	res := Check([]HistoryEvent{
		ev(0, OpPut, "x", "1", false, 0, 10),
		ev(1, OpPut, "y", "2", false, 0, 10),
		ev(1, OpGet, "y", "ghost", true, 20, 30),
	}, time.Minute)
	if res.Linearizable || res.Key != "y" {
		t.Fatalf("violation should be attributed to key y, got %s", res)
	}
}

func TestCheckPlantedCorruptionsAreCaught(t *testing.T) {
	// The harness's planted-bug corruptions, applied to a clean synthetic
	// history, must flip the verdict — the checker's self-test.
	clean := []HistoryEvent{
		ev(0, OpPut, "k", "a", false, 0, 10),
		ev(1, OpGet, "k", "a", true, 20, 30),
		ev(0, OpPut, "k", "b", false, 40, 50),
		ev(1, OpGet, "k", "b", true, 60, 70),
	}
	mustLinearizable(t, clean)
	mustViolate(t, plantStaleRead(append([]HistoryEvent(nil), clean...)))
	mustViolate(t, plantLostWrite(append([]HistoryEvent(nil), clean...)))
}

// refLinearizable is a brute-force reference: plain exponential DFS with
// the textbook O(n) minimality scan and no memoisation. Cross-validating
// Check against it on many small random histories guards the optimised
// search (two-smallest-returns minimality, memo keys) against drift.
func refLinearizable(evs []HistoryEvent) bool {
	n := len(evs)
	inv := make([]int64, n)
	ret := make([]int64, n)
	for i, e := range evs {
		inv[i] = e.Invoke
		ret[i] = e.Return
		if ret[i] < 0 {
			ret[i] = math.MaxInt64
		}
	}
	used := make([]bool, n)
	var dfs func(s regState, placed int) bool
	dfs = func(s regState, placed int) bool {
		if placed == n {
			return true
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			minimal := true
			for j := 0; j < n; j++ {
				if j == i || used[j] {
					continue
				}
				if ret[j] < inv[i] {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			next, ok := apply(s, evs[i])
			if !ok {
				continue
			}
			used[i] = true
			if dfs(next, placed+1) {
				return true
			}
			used[i] = false
		}
		return false
	}
	return dfs(regState{}, 0)
}

// TestCheckMatchesBruteForce fuzzes the checker itself: random small
// single-key histories (both pure-random and derived-from-a-real-register
// with widened windows, so linearizable and violating cases both occur in
// quantity) must get the same verdict from Check and the reference DFS.
func TestCheckMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	vals := []string{"a", "b", "c"}
	agree := map[bool]int{}
	for trial := 0; trial < 600; trial++ {
		n := 3 + rng.Intn(5)
		evs := make([]HistoryEvent, 0, n)
		if trial%2 == 0 {
			// Pure random: windows, ops, and outputs all arbitrary.
			for i := 0; i < n; i++ {
				invk := int64(rng.Intn(60))
				e := HistoryEvent{
					Client: i, Key: "k",
					Op:     HistoryOp(rng.Intn(4)),
					Val:    []byte(vals[rng.Intn(len(vals))]),
					Found:  rng.Intn(2) == 0,
					Invoke: invk, Return: invk + 1 + int64(rng.Intn(30)),
				}
				if e.Op == OpCAS && rng.Intn(2) == 0 {
					e.Expect = []byte(vals[rng.Intn(len(vals))])
					e.ExpectPresent = true
				}
				evs = append(evs, e)
			}
		} else {
			// Derived: run ops sequentially against a real register, then
			// widen windows (always legal) — mostly linearizable histories.
			var s regState
			at := int64(0)
			for i := 0; i < n; i++ {
				e := HistoryEvent{
					Client: i, Key: "k",
					Op:  HistoryOp(rng.Intn(4)),
					Val: []byte(vals[rng.Intn(len(vals))]),
				}
				if e.Op == OpCAS && rng.Intn(2) == 0 {
					e.Expect = []byte(vals[rng.Intn(len(vals))])
					e.ExpectPresent = true
				}
				switch e.Op {
				case OpGet:
					e.Found, e.Val = s.present, append([]byte(nil), s.val...)
				case OpPut:
					s = regState{present: true, val: e.Val}
				case OpDelete:
					e.Found = s.present
					s = regState{}
				case OpCAS:
					matched := false
					if e.ExpectPresent {
						matched = s.present && string(s.val) == string(e.Expect)
					} else {
						matched = !s.present
					}
					e.Found = matched
					if matched {
						s = regState{present: true, val: e.Val}
					}
				}
				e.Invoke = at - int64(rng.Intn(3))
				e.Return = at + int64(rng.Intn(3))
				at += 2
				evs = append(evs, e)
			}
		}
		want := refLinearizable(evs)
		got := Check(evs, time.Minute)
		if got.Timeout {
			t.Fatalf("trial %d: budget exhausted on a %d-op history", trial, n)
		}
		if got.Linearizable != want {
			t.Fatalf("trial %d: Check=%v reference=%v for history %+v", trial, got.Linearizable, want, evs)
		}
		agree[want]++
	}
	if agree[true] == 0 || agree[false] == 0 {
		t.Fatalf("degenerate trial mix: %d linearizable, %d violating", agree[true], agree[false])
	}
}
