package shared

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba"
)

// kvSM is a simple replicated map used by the tests.
type kvSM struct {
	M map[string]string
}

func newKV() *kvSM { return &kvSM{M: make(map[string]string)} }

func (s *kvSM) Apply(cmd []byte) {
	var op [2]string
	if err := json.Unmarshal(cmd, &op); err != nil {
		return
	}
	if op[1] == "" {
		delete(s.M, op[0])
		return
	}
	s.M[op[0]] = op[1]
}

func (s *kvSM) Snapshot() ([]byte, error) { return json.Marshal(s.M) }

func (s *kvSM) Restore(snap []byte) error {
	m := make(map[string]string)
	if err := json.Unmarshal(snap, &m); err != nil {
		return err
	}
	s.M = m
	return nil
}

func set(k, v string) []byte {
	b, _ := json.Marshal([2]string{k, v})
	return b
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitApplied blocks until the replica has applied through seq.
func waitApplied(t *testing.T, r *Replica, seq uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Applied() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, want %d", r.Applied(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get reads one key.
func get(r *Replica, k string) string {
	var v string
	r.Read(func(sm StateMachine) { v = sm.(*kvSM).M[k] })
	return v
}

// waitValue blocks until key k reads v at replica r.
func waitValue(t *testing.T, r *Replica, k, v string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get(r, k) != v {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %q, want %q", k, get(r, k), v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicasConverge(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("r1")
	k2, _ := net.NewKernel("r2")
	r1, err := Create(ctx, k1, "conv", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r1.Close()
	r2, err := Join(ctx, k2, "conv", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r2.Close()

	if err := r1.Submit(ctx, set("a", "1")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := r2.Submit(ctx, set("b", "2")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for _, r := range []*Replica{r1, r2} {
		waitValue(t, r, "a", "1")
		waitValue(t, r, "b", "2")
	}
}

func maxSeq(rs ...*Replica) uint32 {
	var hi uint32
	for _, r := range rs {
		if s := r.Applied(); s > hi {
			hi = s
		}
	}
	return hi
}

func TestJoinerReceivesStateTransfer(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("r1")
	r1, err := Create(ctx, k1, "xfer", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r1.Close()

	// Build up state BEFORE the joiner exists; a joiner only receives
	// post-join messages, so this state can arrive only by transfer.
	for i := 0; i < 20; i++ {
		if err := r1.Submit(ctx, set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	waitApplied(t, r1, r1.Applied())

	k2, _ := net.NewKernel("r2")
	r2, err := Join(ctx, k2, "xfer", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r2.Close()
	for i := 0; i < 20; i++ {
		if got := get(r2, fmt.Sprintf("k%d", i)); got != fmt.Sprintf("v%d", i) {
			t.Fatalf("joiner missing pre-join state: k%d = %q", i, got)
		}
	}
	// And post-join commands still apply on top.
	if err := r1.Submit(ctx, set("k0", "overwritten")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for get(r2, "k0") != "overwritten" {
		if time.Now().After(deadline) {
			t.Fatalf("post-join update lost: k0 = %q", get(r2, "k0"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJoinDuringActiveTraffic(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("r1")
	r1, err := Create(ctx, k1, "busy", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r1.Close()

	// A writer hammers the state machine while the joiner transfers. The
	// join waits for the writer to be under way: a transfer takes well under
	// a millisecond, less than a goroutine may take to start.
	stop := make(chan struct{})
	underWay := make(chan struct{})
	var wrote int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r1.Submit(ctx, set("counter", fmt.Sprintf("%d", wrote))); err != nil {
				t.Errorf("Submit %d: %v", wrote, err)
				return
			}
			wrote++
			if wrote == 10 {
				close(underWay)
			}
		}
	}()

	select {
	case <-underWay:
	case <-ctx.Done():
		t.Fatal("writer never got under way")
	}
	k2, _ := net.NewKernel("r2")
	r2, err := Join(ctx, k2, "busy", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join during traffic: %v", err)
	}
	defer r2.Close()
	close(stop)
	wg.Wait()

	if wrote == 0 {
		t.Fatal("writer made no progress; test proved nothing")
	}
	// The invariant is the last acknowledged write, not Applied(): either
	// replica may still trail it when the writer stops.
	last := fmt.Sprintf("%d", wrote-1)
	waitValue(t, r1, "counter", last)
	waitValue(t, r2, "counter", last)
}

func TestReplicaSurvivesSequencerCrash(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("r1")
	k2, _ := net.NewKernel("r2")
	k3, _ := net.NewKernel("r3")
	r1, err := Create(ctx, k1, "ft", newKV(), amoeba.GroupOptions{Resilience: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r2, err := Join(ctx, k2, "ft", newKV(), amoeba.GroupOptions{Resilience: 1})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r2.Close()
	r3, err := Join(ctx, k3, "ft", newKV(), amoeba.GroupOptions{Resilience: 1})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r3.Close()

	if err := r2.Submit(ctx, set("before", "crash")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	r1.Close() // sequencer dies
	if err := r2.group.Reset(ctx, 2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if err := r3.Submit(ctx, set("after", "recovery")); err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	for _, r := range []*Replica{r2, r3} {
		waitValue(t, r, "before", "crash")
		waitValue(t, r, "after", "recovery")
	}
	if r2.Members() != 2 {
		t.Fatalf("members = %d", r2.Members())
	}
}

func TestLeaveStopsReplica(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("r1")
	k2, _ := net.NewKernel("r2")
	r1, err := Create(ctx, k1, "lv", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r1.Close()
	r2, err := Join(ctx, k2, "lv", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := r2.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := r2.Submit(ctx, set("x", "y")); err == nil {
		t.Fatal("submit after leave succeeded")
	}
	// The survivor keeps going.
	if err := r1.Submit(ctx, set("still", "here")); err != nil {
		t.Fatalf("survivor submit: %v", err)
	}
}

func TestThreeWayConvergenceUnderConcurrency(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	replicas := make([]*Replica, 3)
	for i := range replicas {
		k, _ := net.NewKernel(fmt.Sprintf("c%d", i))
		var err error
		if i == 0 {
			replicas[i], err = Create(ctx, k, "threeway", newKV(), amoeba.GroupOptions{})
		} else {
			replicas[i], err = Join(ctx, k, "threeway", newKV(), amoeba.GroupOptions{})
		}
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		defer replicas[i].Close()
	}
	var wg sync.WaitGroup
	for i, r := range replicas {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 15; n++ {
				// All replicas fight over the same key: total order
				// decides, identically everywhere.
				if err := r.Submit(ctx, set("contested", fmt.Sprintf("r%d-%d", i, n))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
			// Per-sender FIFO: whoever has applied this marker has applied
			// every contested write this replica submitted before it.
			if err := r.Submit(ctx, set(fmt.Sprintf("done-%d", i), "yes")); err != nil {
				t.Errorf("submit marker: %v", err)
			}
		}()
	}
	wg.Wait()
	for _, r := range replicas {
		for i := range replicas {
			waitValue(t, r, fmt.Sprintf("done-%d", i), "yes")
		}
	}
	want := get(replicas[0], "contested")
	for i, r := range replicas[1:] {
		if got := get(r, "contested"); got != want {
			t.Fatalf("replica %d: contested = %q, replica 0 has %q", i+1, got, want)
		}
	}
}

// slowSM is a kvSM whose applies take a while, so its replica runs behind
// the total order; it counts the snapshots it is asked for.
type slowSM struct {
	*kvSM
	apply     time.Duration
	snapshots *int
}

func (s slowSM) Apply(cmd []byte) {
	time.Sleep(s.apply)
	s.kvSM.Apply(cmd)
}

func (s slowSM) Snapshot() ([]byte, error) {
	*s.snapshots++ // under the replica's lock, like every call
	return s.kvSM.Snapshot()
}

// TestConcurrentJoinsDoNotWaitOnEachOther boots a three-member group the way
// a store boots a shard — one creator, two members joining at once — while
// the creator is still applying a few milliseconds of earlier commands, so
// both joiners find their only donor behind their join. They must wait for
// that apply at the donor, which then serialises exactly one snapshot a
// joiner. Giving up on a donor that is merely behind, for the next member,
// asks the other joiner, whose transfer service is not up until its own join
// is done: a 560 ms RPC timeout, which used to be the slow mode of a store's
// boot (and polling the donor cost the common case 20 ms a round).
func TestConcurrentJoinsDoNotWaitOnEachOther(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	kernels := make([]*amoeba.Kernel, 3)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("boot-%d", i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		kernels[i] = k
	}
	var worst time.Duration
	for round := 0; round < 25; round++ {
		name := fmt.Sprintf("boot-%d", round)
		reps := make([]*Replica, len(kernels))
		errs := make([]error, len(kernels))
		snapshots := 0
		reps[0], errs[0] = Create(ctx, kernels[0], name, slowSM{newKV(), time.Millisecond, &snapshots}, amoeba.GroupOptions{})
		if errs[0] != nil {
			t.Fatalf("round %d: Create: %v", round, errs[0])
		}
		for i := 0; i < 5; i++ {
			if err := reps[0].Submit(ctx, set("k", fmt.Sprint(i))); err != nil {
				t.Fatalf("round %d: Submit: %v", round, err)
			}
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := 1; i < len(kernels); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i], errs[i] = Join(ctx, kernels[i], name, newKV(), amoeba.GroupOptions{})
			}(i)
		}
		wg.Wait()
		took := time.Since(start)
		for i, r := range reps {
			if errs[i] != nil {
				t.Errorf("round %d: member %d: %v", round, i, errs[i])
				continue
			}
			if i > 0 && get(r, "k") != "4" {
				t.Errorf("round %d: member %d joined with k = %q, want the state as of its join (4)", round, i, get(r, "k"))
			}
			r.Close()
		}
		if snapshots != 2 {
			t.Errorf("round %d: the donor serialised %d snapshots for two joiners", round, snapshots)
		}
		worst = max(worst, took)
		if took > 300*time.Millisecond {
			t.Fatalf("round %d: two concurrent joins took %v", round, took)
		}
	}
	t.Logf("worst of 25 boots: %v", worst)
}
