package shared

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"amoeba"
)

// applyLoopFrame is the frame of a replica's own apply goroutine, which only
// durable replicas run.
const applyLoopFrame = "amoeba/shared.(*Replica).start"

// applyLoops returns the stacks of the goroutines running an apply loop that
// were not in before.
func applyLoops(before map[string]string) []string {
	var out []string
	for id, stack := range replicaGoroutines() {
		if _, ok := before[id]; !ok && strings.Contains(stack, applyLoopFrame) {
			out = append(out, stack)
		}
	}
	return out
}

// TestInMemoryReplicaRunsNoApplyGoroutine boots three in-memory replicas, the
// last joining while the others submit, and checks that none of them runs a
// goroutine of its own to apply: each delivery is applied by the goroutine
// that delivers it. A durable replica, which keeps its apply loop, is the
// control that shows the scan finds one.
func TestInMemoryReplicaRunsNoApplyGoroutine(t *testing.T) {
	before := replicaGoroutines()
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	ks := make([]*amoeba.Kernel, 4)
	for i := range ks {
		k, err := net.NewKernel(fmt.Sprintf("inline-%d", i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		ks[i] = k
	}
	r0, err := Create(ctx, ks[0], "inline", newCounter(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r0.Close()
	r1, err := Join(ctx, ks[1], "inline", newCounter(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r1.Close()
	submitAndSettle(t, r0, 8)
	traffic := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			err = r1.Submit(ctx, []byte{1})
		}
		traffic <- err
	}()
	r2, err := Join(ctx, ks[2], "inline", newCounter(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join under traffic: %v", err)
	}
	defer r2.Close()
	if err := <-traffic; err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for _, r := range []*Replica{r0, r1, r2} {
		waitCount(t, r, 16)
	}
	if loops := applyLoops(before); len(loops) > 0 {
		t.Fatalf("in-memory replicas run %d apply goroutines:\n\n%s", len(loops), strings.Join(loops, "\n\n"))
	}

	d, err := Open(ctx, ks[3], "inline-durable", newCounter(), amoeba.GroupOptions{},
		Durability{Dir: filepath.Join(t.TempDir(), "d"), Bootstrap: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()
	if loops := applyLoops(before); len(loops) != 1 {
		t.Fatalf("a durable replica runs %d apply goroutines, want 1: the scan misses them", len(loops))
	}
}

// chainSM logs every command it applies. A command "c/n" of its own chain (c
// is self) with n+1 below length Starts "c/n+1" on its own replica from
// inside Apply.
type chainSM struct {
	self, length int
	r            *Replica // set under the replica's lock once it is up
	failed       *atomic.Int64
	Log          []string
}

func (s *chainSM) Apply(cmd []byte) {
	s.Log = append(s.Log, string(cmd))
	var c, n int
	if _, err := fmt.Sscanf(string(cmd), "%d/%d", &c, &n); err != nil || c != s.self || n+1 >= s.length || s.r == nil {
		return
	}
	s.r.Start([][]byte{[]byte(fmt.Sprintf("%d/%d", c, n+1))}, func(err error) {
		if err != nil {
			s.failed.Add(1)
		}
	})
}

func (s *chainSM) Snapshot() ([]byte, error) { return json.Marshal(s.Log) }

func (s *chainSM) Restore(snap []byte) error { return json.Unmarshal(snap, &s.Log) }

// TestApplyStartsFollowUpOnItsOwnReplica runs three replicas whose Apply
// each Start the next command of their own chain on their own replica — the
// re-entry inline apply must survive, on the sequencer's node and off it.
// Every chain must run to its end, in order, and the three logs be equal.
func TestApplyStartsFollowUpOnItsOwnReplica(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const length = 60
	var failed atomic.Int64
	reps := make([]*Replica, 3)
	for i := range reps {
		k, err := net.NewKernel(fmt.Sprintf("chain-%d", i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		sm := &chainSM{self: i, length: length, failed: &failed}
		if i == 0 {
			reps[i], err = Create(ctx, k, "chain", sm, amoeba.GroupOptions{})
		} else {
			reps[i], err = Join(ctx, k, "chain", sm, amoeba.GroupOptions{})
		}
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		defer reps[i].Close()
		r := reps[i]
		r.Read(func(sm StateMachine) { sm.(*chainSM).r = r })
	}
	for i, r := range reps {
		r.Start([][]byte{[]byte(fmt.Sprintf("%d/0", i))}, func(err error) {
			if err != nil {
				failed.Add(1)
			}
		})
	}
	logs := make([][]string, len(reps))
	for i, r := range reps {
		err := r.Wait(ctx, func(sm StateMachine) bool {
			logs[i] = append([]string(nil), sm.(*chainSM).Log...)
			return len(logs[i]) == len(reps)*length
		})
		if err != nil {
			t.Fatalf("replica %d stopped at %d of %d commands: %v", i, len(logs[i]), len(reps)*length, err)
		}
	}
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d Starts failed", n)
	}
	next := make([]int, len(reps))
	for _, cmd := range logs[0] {
		var c, n int
		if _, err := fmt.Sscanf(cmd, "%d/%d", &c, &n); err != nil || n != next[c] {
			t.Fatalf("applied %q, want step %d of chain %d", cmd, next[c], c)
		}
		next[c]++
	}
	for i := 1; i < len(reps); i++ {
		if strings.Join(logs[i], ",") != strings.Join(logs[0], ",") {
			t.Fatalf("replica %d's log differs from replica 0's:\n%v\n%v", i, logs[i], logs[0])
		}
	}
}
