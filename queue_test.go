package amoeba

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"amoeba/internal/core"
)

func TestDeliveryQueueOrderAndBlocking(t *testing.T) {
	q := newDeliveryQueue()
	for i := 0; i < 5; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i + 1)})
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		m, err := q.pop(ctx)
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		if m.Seq != uint32(i+1) {
			t.Fatalf("pop %d: seq %d", i, m.Seq)
		}
	}
	// Empty queue blocks until push.
	got := make(chan Message, 1)
	go func() {
		m, _ := q.pop(ctx)
		got <- m
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(core.Delivery{Kind: core.KindData, Seq: 99})
	select {
	case m := <-got:
		if m.Seq != 99 {
			t.Fatalf("blocked pop got seq %d", m.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked pop never woke")
	}
}

func TestDeliveryQueueCloseUnblocksPoppers(t *testing.T) {
	q := newDeliveryQueue()
	errCh := make(chan error, 1)
	go func() {
		_, err := q.pop(context.Background())
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNotMember) {
			t.Fatalf("pop after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop never unblocked after close")
	}
	// Pushes after close are dropped, not panics.
	q.push(core.Delivery{Kind: core.KindData})
}

// TestDeliveryQueueCloseWakesAllPoppers is the regression test for the
// single-waiter wakeup bug class (Signal where Broadcast is needed): close()
// hands out ONE notify token, so every exiting popper must re-arm it for the
// next blocked one. With many receivers blocked concurrently, all of them —
// not just the first — must unblock with ErrNotMember.
func TestDeliveryQueueCloseWakesAllPoppers(t *testing.T) {
	q := newDeliveryQueue()
	const poppers = 16
	errs := make(chan error, poppers)
	var started sync.WaitGroup
	for i := 0; i < poppers; i++ {
		started.Add(1)
		go func() {
			started.Done()
			_, err := q.pop(context.Background())
			errs <- err
		}()
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let every popper block in select
	q.close()
	for i := 0; i < poppers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrNotMember) {
				t.Fatalf("popper %d: %v, want ErrNotMember", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d poppers woke after close (lost wakeup)", i, poppers)
		}
	}
	// A popper arriving after close must not block either.
	if _, err := q.pop(context.Background()); !errors.Is(err, ErrNotMember) {
		t.Fatalf("late pop: %v", err)
	}
}

// TestDeliveryQueuePushWakesBlockedPopperPerMessage pins the push-side
// cascade: N poppers blocked, N pushes, every message must come out even
// though the token channel holds one entry.
func TestDeliveryQueuePushWakesBlockedPopperPerMessage(t *testing.T) {
	q := newDeliveryQueue()
	const n = 8
	seen := make(chan uint32, n)
	for i := 0; i < n; i++ {
		go func() {
			m, err := q.pop(context.Background())
			if err == nil {
				seen <- m.Seq
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i + 1)})
	}
	got := map[uint32]bool{}
	for i := 0; i < n; i++ {
		select {
		case s := <-seen:
			if got[s] {
				t.Fatalf("seq %d delivered twice", s)
			}
			got[s] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d messages reached blocked poppers", i, n)
		}
	}
	q.close()
}

// TestDeliveryQueueReusesItsArray: a consumer that keeps up without ever quite
// emptying the queue must neither lose order nor make the backing array grow —
// popped slots are reclaimed by sliding the queue down, not by reallocating.
func TestDeliveryQueueReusesItsArray(t *testing.T) {
	q := newDeliveryQueue()
	ctx := context.Background()
	next := uint32(1)
	push := func() {
		q.push(core.Delivery{Kind: core.KindData, Seq: next})
		next++
	}
	push()
	push()
	push()
	for want := uint32(1); want <= 10000; want++ {
		push()
		m, err := q.pop(ctx)
		if err != nil || m.Seq != want {
			t.Fatalf("pop = seq %d, %v; want seq %d", m.Seq, err, want)
		}
	}
	if c := cap(q.msgs); c > 16 {
		t.Fatalf("a queue never more than 4 deep grew its array to %d slots", c)
	}
}

func TestDeliveryQueueConcurrentPoppers(t *testing.T) {
	q := newDeliveryQueue()
	const n = 50
	var wg sync.WaitGroup
	seen := make(chan uint32, n)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := q.pop(context.Background())
				if err != nil {
					return
				}
				seen <- m.Seq
			}
		}()
	}
	for i := 0; i < n; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i + 1)})
	}
	got := map[uint32]bool{}
	for i := 0; i < n; i++ {
		select {
		case s := <-seen:
			if got[s] {
				t.Fatalf("seq %d delivered twice", s)
			}
			got[s] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d messages popped", i, n)
		}
	}
	q.close()
	wg.Wait()
}

func TestGroupNameAndKindMapping(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k, _ := net.NewKernel("m")
	g, err := k.CreateGroup(ctx, "named", GroupOptions{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if g.Name() != "named" {
		t.Fatalf("Name = %q", g.Name())
	}
	// kindOf maps every core kind; unknown maps to zero.
	pairs := map[core.MsgKind]MsgKind{
		core.KindData: Data, core.KindJoin: Join, core.KindLeave: Leave,
		core.KindReset: Reset, core.KindExpelled: Expelled, core.MsgKind(200): 0,
	}
	for in, want := range pairs {
		if got := kindOf(in); got != want {
			t.Fatalf("kindOf(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestLeaveViaPublicAPIThenRejoin(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	g1, _ := k1.CreateGroup(ctx, "revolving", GroupOptions{})
	_ = g1
	for round := 0; round < 3; round++ {
		g2, err := k2.JoinGroup(ctx, "revolving", GroupOptions{})
		if err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		if err := g1.Send(ctx, []byte{byte(round)}); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		for {
			m, err := g2.Receive(ctx)
			if err != nil {
				t.Fatalf("round %d receive: %v", round, err)
			}
			if m.Kind == Data {
				if m.Payload[0] != byte(round) {
					t.Fatalf("round %d payload %d", round, m.Payload[0])
				}
				break
			}
		}
		if err := g2.Leave(ctx); err != nil {
			t.Fatalf("round %d leave: %v", round, err)
		}
	}
}
