package core

import (
	"errors"
	"testing"
	"time"

	"amoeba/internal/netw/memnet"
)

// TestSequencerOrdersNothingAfterItsLeave: a sequencer's own send deferred to
// the end of the drain cycle (deferSelfOrderLocked) in which the sequencer
// orders its own leave is never ordered after the leave — it fails with
// ErrNotMember — so the successor, which orders from the seqno after the
// leave, finds no entry of the old regime above it. An entry there would be
// delivered past the successor's globalSeq and let its history floor pass
// globalSeq+1; the successor's next order then found room in the ring but was
// refused by the history, and ordering dereferenced the refusal.
func TestSequencerOrdersNothingAfterItsLeave(t *testing.T) {
	g := newGroup(t, 2, memnet.Config{}, nil)
	old, succ := g.nodes[0], g.nodes[1]
	if err := g.send(0, []byte("before")); err != nil {
		t.Fatalf("send: %v", err)
	}

	sent, left := make(chan error, 1), make(chan error, 1)
	old.ep.mu.Lock()
	if err := old.ep.queueSendLocked([]byte("raced the leave"), func(err error) { sent <- err }); err != nil {
		t.Fatalf("queueSendLocked: %v", err)
	}
	old.ep.pumpSendLocked() // defers the order to the end of the drain
	old.ep.leaveDone = append(old.ep.leaveDone, func(err error) { left <- err })
	old.ep.startLeaveLocked() // orders the leave now, ahead of the deferred send
	old.ep.mu.Unlock()
	old.ep.drain()

	select {
	case err := <-left:
		if err != nil {
			t.Fatalf("leave: %v", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("the sequencer's leave never completed")
	}
	// The successor sequences alone now; its sends must order.
	for i := 0; i < 3; i++ {
		if err := g.send(1, []byte("after")); err != nil {
			t.Fatalf("successor send %d: %v", i, err)
		}
	}
	select {
	case err := <-sent:
		if !errors.Is(err, ErrNotMember) {
			t.Fatalf("a send the sequencer's leave overtook completed with %v, want ErrNotMember", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("a send the sequencer's leave overtook never completed")
	}
	for _, d := range succ.waitDeliveries(0) {
		if d.Kind == KindData && string(d.Payload) == "raced the leave" {
			t.Fatalf("seq %d delivers a send ordered after its sender's leave", d.Seq)
		}
	}
}
