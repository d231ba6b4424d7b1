package amoeba

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"amoeba/internal/core"
)

// receiveOne takes one message, as Group.Receive does.
func receiveOne(ctx context.Context, q *deliveryQueue) (Message, error) {
	var one [1]Message
	_, err := q.receive(ctx, one[:])
	return one[0], err
}

func TestDeliveryQueueOrderAndBlocking(t *testing.T) {
	q := newDeliveryQueue()
	for i := 0; i < 5; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i + 1)})
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		m, err := receiveOne(ctx, q)
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
		m, _ := receiveOne(ctx, q)
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
		_, err := receiveOne(context.Background(), q)
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
			_, err := receiveOne(context.Background(), q)
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
	if _, err := receiveOne(context.Background(), q); !errors.Is(err, ErrNotMember) {
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
			m, err := receiveOne(context.Background(), q)
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
		m, err := receiveOne(ctx, q)
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
				m, err := receiveOne(context.Background(), q)
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

// TestReceiveManyLeavesTheRestQueued: a burst takes at most len(buf) messages,
// in order, and what it leaves stays queued for the next receiver — which,
// if it was already asleep, the burst wakes: a single token announced all the
// messages, and the receiver that took it must pass it on.
func TestReceiveManyLeavesTheRestQueued(t *testing.T) {
	q := newDeliveryQueue()
	for i := 1; i <= 5; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i)})
	}
	var buf [3]Message
	n, err := q.receive(context.Background(), buf[:])
	if err != nil || n != 3 || buf[0].Seq != 1 || buf[1].Seq != 2 || buf[2].Seq != 3 {
		t.Fatalf("receive = %d %v, seqs %d %d %d; want 3 messages, seqs 1 2 3", n, err, buf[0].Seq, buf[1].Seq, buf[2].Seq)
	}
	if left := len(q.msgs) - q.head; left != 2 {
		t.Fatalf("%d messages left queued, want 2", left)
	}
	if _, err := q.receive(context.Background(), buf[:]); err != nil {
		t.Fatal(err)
	}

	// Two receivers asleep on an empty queue; five messages arrive behind
	// one token. Whichever takes the token takes three and must re-arm it.
	got := make(chan []uint32, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var buf [3]Message
			n, _ := q.receive(context.Background(), buf[:])
			seqs := make([]uint32, n)
			for i := range seqs {
				seqs[i] = buf[i].Seq
			}
			got <- seqs
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both block on the token
	q.mu.Lock()
	for i := 1; i <= 5; i++ {
		q.msgs = append(q.msgs, queued{m: Message{Kind: Data, Seq: uint32(10 + i)}})
	}
	q.mu.Unlock()
	q.notify <- struct{}{}
	total := 0
	for i := 0; i < 2; i++ {
		select {
		case seqs := <-got:
			if len(seqs) != 3 && len(seqs) != 2 {
				t.Fatalf("a receiver got %v, want 3 messages or the 2 left", seqs)
			}
			total += len(seqs)
		case <-time.After(2 * time.Second):
			t.Fatal("the second receiver never woke: the burst did not re-arm the token for what it left")
		}
	}
	if total != 5 {
		t.Fatalf("receivers got %d messages, want 5", total)
	}
}

// TestReceiveManyDrainsBeforeItFails: what is queued is handed out first —
// under a context cancelled before the call, and after the queue closed —
// and the error comes only once nothing is left.
func TestReceiveManyDrainsBeforeItFails(t *testing.T) {
	q := newDeliveryQueue()
	for i := 1; i <= 3; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i)})
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var buf [2]Message
	next := uint32(1)
	take := func(ctx context.Context, want int) {
		t.Helper()
		n, err := q.receive(ctx, buf[:])
		if err != nil || n != want {
			t.Fatalf("receive = %d, %v; want %d messages", n, err, want)
		}
		for _, m := range buf[:n] {
			if m.Seq != next {
				t.Fatalf("got seq %d, want %d", m.Seq, next)
			}
			next++
		}
	}
	take(cancelled, 2)
	take(cancelled, 1)
	if n, err := q.receive(cancelled, buf[:]); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("receive on an empty queue under a cancelled ctx = %d, %v", n, err)
	}
	for i := 4; i <= 6; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i)})
	}
	q.close()
	take(context.Background(), 2)
	take(cancelled, 1)
	if n, err := q.receive(context.Background(), buf[:]); n != 0 || !errors.Is(err, ErrNotMember) {
		t.Fatalf("receive on a closed, drained queue = %d, %v; want ErrNotMember", n, err)
	}
}

// TestReceiveManyConcurrentReceivers: receivers with bursts of different sizes
// racing a pusher each get their messages in order, and between them every
// message exactly once.
func TestReceiveManyConcurrentReceivers(t *testing.T) {
	q := newDeliveryQueue()
	const n = 2000
	sizes := []int{1, 2, 7, 32}
	var wg sync.WaitGroup
	got := make([][]uint32, len(sizes))
	for r, size := range sizes {
		r, size := r, size
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]Message, size)
			for {
				k, err := q.receive(context.Background(), buf)
				if err != nil {
					return
				}
				for _, m := range buf[:k] {
					got[r] = append(got[r], m.Seq)
				}
			}
		}()
	}
	for i := 1; i <= n; i++ {
		q.push(core.Delivery{Kind: core.KindData, Seq: uint32(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		empty := q.head == len(q.msgs)
		q.mu.Unlock()
		if empty || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	q.close()
	wg.Wait()
	seen := make([]bool, n+1)
	for r, seqs := range got {
		for i, s := range seqs {
			if i > 0 && s <= seqs[i-1] {
				t.Fatalf("receiver %d got seq %d after %d", r, s, seqs[i-1])
			}
			if seen[s] {
				t.Fatalf("seq %d received twice", s)
			}
			seen[s] = true
		}
	}
	for s := 1; s <= n; s++ {
		if !seen[s] {
			t.Fatalf("seq %d never received", s)
		}
	}
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
	if name := g.Info().Name; name != "named" {
		t.Fatalf("Info().Name = %q", name)
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
