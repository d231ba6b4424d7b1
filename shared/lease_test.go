package shared

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"amoeba"
)

// gateSM is a register: it holds the last command applied. While it has a
// gate, its Apply of a command starting "block" reports on entered and waits
// for a value on release.
type gateSM struct {
	last string
	gate *applyGate
}

type applyGate struct {
	entered chan struct{}
	release chan struct{}
}

func (s *gateSM) Apply(cmd []byte) {
	if g := s.gate; g != nil && strings.HasPrefix(string(cmd), "block") {
		g.entered <- struct{}{}
		<-g.release
	}
	s.last = string(cmd)
}

func (s *gateSM) Snapshot() ([]byte, error) { return []byte(s.last), nil }

func (s *gateSM) Restore(snap []byte) error {
	s.last = string(snap)
	return nil
}

// TestLeaseReadWaitsForApplyInFlight: a lease holder whose state is behind
// its lease watermark waits for the apply in flight instead of giving up. A
// LeaseRead started while the holder's Apply of a command blocks returns
// true only once that apply is done, and sees its write; one whose lease runs
// out while the apply still blocks returns false then, without waiting for it.
func TestLeaseReadWaitsForApplyInFlight(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	opts := amoeba.GroupOptions{LeaseDur: time.Second, SyncInterval: 50 * time.Millisecond}
	ks := make([]*amoeba.Kernel, 2)
	for i := range ks {
		k, err := net.NewKernel(fmt.Sprintf("leasewait-%d", i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		ks[i] = k
	}
	r0, err := Create(ctx, ks[0], "leasewait", &gateSM{}, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r0.Close()
	gate := &applyGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r1, err := Join(ctx, ks[1], "leasewait", &gateSM{gate: gate}, opts)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r1.Close()
	defer close(gate.release) // before Close, which waits for a blocked apply

	type result struct {
		v  string
		ok bool
	}
	read := func() result {
		var res result
		res.ok = r1.LeaseRead(ctx, func(sm StateMachine) { res.v = sm.(*gateSM).last })
		return res
	}
	// Grants ride the sequencer's sync ticks, and stop while the holder is
	// unheard: read until the holder serves what it has applied.
	awaitLease := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for res := read(); !res.ok || res.v != want; res = read() {
			if time.Now().After(deadline) {
				t.Fatalf("no lease read of %q within 10s (last: %+v)", want, res)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// block submits cmd and returns once the holder's Apply of it blocks,
	// with a LeaseRead started then.
	block := func(cmd string) <-chan result {
		t.Helper()
		if err := r0.Submit(ctx, []byte(cmd)); err != nil {
			t.Fatalf("Submit %s: %v", cmd, err)
		}
		select {
		case <-gate.entered:
		case <-ctx.Done():
			t.Fatalf("the holder never applied %s", cmd)
		}
		done := make(chan result, 1)
		go func() { done <- read() }()
		return done
	}

	if err := r0.Submit(ctx, []byte("first")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitLease("first")
	done := block("block-1")
	select {
	case res := <-done:
		t.Fatalf("LeaseRead returned %+v while the apply it must wait for still ran", res)
	case <-time.After(100 * time.Millisecond):
	}
	gate.release <- struct{}{}
	select {
	case res := <-done:
		if !res.ok || res.v != "block-1" {
			t.Fatalf("LeaseRead after the apply = %+v, want the write it waited for", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LeaseRead still waits after the apply is done")
	}

	awaitLease("block-1")
	done = block("block-2")
	select {
	case res := <-done:
		if res.ok {
			t.Fatalf("LeaseRead = %+v: it served past its lease while the apply still ran", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LeaseRead still waits for the apply after its lease ran out")
	}
	gate.release <- struct{}{}
}
