package amoeba

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is a Deliver consumer that keeps every message it is handed.
type recorder struct {
	mu       sync.Mutex
	got      []Message
	maxBurst int
}

func (r *recorder) apply(ms []Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, ms...)
	r.maxBurst = max(r.maxBurst, len(ms))
}

// data returns the Data messages applied so far, in order.
func (r *recorder) data() []Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Message
	for _, m := range r.got {
		if m.Kind == Data {
			out = append(out, m)
		}
	}
	return out
}

// twoMembers creates a group on one kernel and joins it from a second: the
// first handle sequences.
func twoMembers(ctx context.Context, t *testing.T, net *MemoryNetwork, name string) (*Group, *Group) {
	t.Helper()
	k1, err := net.NewKernel(name + "-1")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	k2, err := net.NewKernel(name + "-2")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	g1, err := k1.CreateGroup(ctx, name, GroupOptions{})
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	g2, err := k2.JoinGroup(ctx, name, GroupOptions{})
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	return g1, g2
}

// queuedLen reports how many deliveries wait in g's queue.
func queuedLen(g *Group) int {
	g.queue.mu.Lock()
	defer g.queue.mu.Unlock()
	return len(g.queue.msgs) - g.queue.head
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkGapFree fails unless ms is one run of consecutive sequence numbers.
func checkGapFree(t *testing.T, who string, ms []Message) {
	t.Helper()
	for i := range ms {
		if ms[i].Seq != ms[0].Seq+uint32(i) {
			t.Fatalf("%s: delivery %d has seq %d, want %d (gap or reorder)", who, i, ms[i].Seq, ms[0].Seq+uint32(i))
		}
	}
}

// TestInlineDeliveryKeepsOrder queues a backlog at a member before it calls
// Deliver, then sends from both members while deliveries apply inline. The
// Deliver call applies the backlog before it returns, no burst exceeds the
// buffer, and each member applies one gap-free sequence, the same at both.
func TestInlineDeliveryKeepsOrder(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	g1, g2 := twoMembers(ctx, t, net, "inline-order")
	defer g1.Close()
	defer g2.Close()
	var rec1, rec2 recorder
	var buf1 [8]Message
	g1.Deliver(buf1[:], rec1.apply)

	const backlog, perSender, senders = 40, 50, 4
	for i := 0; i < backlog; i++ {
		if err := g1.Send(ctx, []byte(fmt.Sprintf("backlog-%d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// g2's own join, then the backlog.
	waitFor(t, "the backlog to queue", func() bool { return queuedLen(g2) == backlog+1 })
	var buf2 [4]Message
	g2.Deliver(buf2[:], rec2.apply)
	if n := len(rec2.data()); n != backlog {
		t.Fatalf("Deliver returned having applied %d of the %d queued messages", n, backlog)
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		g := g1
		if s%2 == 1 {
			g = g2
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := g.Send(ctx, []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	total := backlog + senders*perSender
	waitFor(t, "every message to apply", func() bool {
		return len(rec1.data()) == total && len(rec2.data()) == total
	})

	rec2.mu.Lock()
	all2, burst := rec2.got, rec2.maxBurst
	rec2.mu.Unlock()
	if all2[0].Kind != Join {
		t.Fatalf("g2's first delivery is %v, want its own join", all2[0].Kind)
	}
	if burst > len(buf2) {
		t.Fatalf("a burst of %d messages, buffer %d", burst, len(buf2))
	}
	checkGapFree(t, "g2", all2)
	d1, d2 := rec1.data(), rec2.data()
	checkGapFree(t, "g1 data", d1)
	for i := range d1 {
		if d1[i].Seq != d2[i].Seq || string(d1[i].Payload) != string(d2[i].Payload) {
			t.Fatalf("delivery %d: g1 has seq %d %q, g2 seq %d %q", i, d1[i].Seq, d1[i].Payload, d2[i].Seq, d2[i].Payload)
		}
	}
}

// TestInlineDeliveryReentrantStart has each member's apply Start the next
// message of its own chain on its own group, so submissions begin on the
// goroutine that is applying (on the sequencer's node, inside the delivery
// that applies). Every message must apply once, in chain order, in the same
// total order at both members, without deadlock.
func TestInlineDeliveryReentrantStart(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	g1, g2 := twoMembers(ctx, t, net, "inline-reentrant")
	defer g1.Close()
	defer g2.Close()

	const chain = 100
	var failed atomic.Int64
	done := func(err error) {
		if err != nil {
			failed.Add(1)
		}
	}
	recs := []*recorder{{}, {}}
	for i, g := range []*Group{g1, g2} {
		rec, g, self := recs[i], g, byte(i)
		buf := make([]Message, 4)
		g.Deliver(buf, func(ms []Message) {
			rec.apply(ms)
			for _, m := range ms {
				if m.Kind == Data && m.Payload[0] == self && m.Payload[1]+1 < chain {
					g.Start([][]byte{{self, m.Payload[1] + 1}}, done)
				}
			}
		})
	}
	g1.Start([][]byte{{0, 0}}, done)
	g2.Start([][]byte{{1, 0}}, done)
	waitFor(t, "both chains to apply at both members", func() bool {
		return len(recs[0].data()) == 2*chain && len(recs[1].data()) == 2*chain
	})
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d Starts failed", n)
	}
	d1, d2 := recs[0].data(), recs[1].data()
	checkGapFree(t, "g1", d1)
	next := [2]byte{}
	for i, m := range d1 {
		if m.Seq != d2[i].Seq || string(m.Payload) != string(d2[i].Payload) {
			t.Fatalf("delivery %d: g1 has seq %d %v, g2 seq %d %v", i, m.Seq, m.Payload, d2[i].Seq, d2[i].Payload)
		}
		c, n := m.Payload[0], m.Payload[1]
		if n != next[c] {
			t.Fatalf("chain %d: applied step %d, want %d", c, n, next[c])
		}
		next[c]++
	}
}

// TestCloseWaitsForInlineApply holds the apply token in a slow apply (on
// the goroutine that called Deliver, draining a backlog) while further
// deliveries queue behind it, and closes the group meanwhile. Close must
// return only once that apply has returned, and nothing may be applied
// afterwards: neither what queued behind the slow burst nor what the group
// delivers later.
func TestCloseWaitsForInlineApply(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	g1, g2 := twoMembers(ctx, t, net, "inline-close")
	defer g1.Close()
	if err := g1.Send(ctx, []byte("slow")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "the slow message to queue", func() bool { return queuedLen(g2) == 2 })

	var applied atomic.Int64
	var inApply atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		var buf [1]Message
		g2.Deliver(buf[:], func(ms []Message) {
			inApply.Store(true)
			defer inApply.Store(false)
			if ms[0].Kind == Data && string(ms[0].Payload) == "slow" {
				close(entered)
				<-release
			}
			applied.Add(1)
		})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver did not apply the queued slow message")
	}
	const behind = 5
	for i := 0; i < behind; i++ {
		if err := g1.Send(ctx, []byte("behind")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, "deliveries to queue behind the slow apply", func() bool { return queuedLen(g2) == behind })
	closed := make(chan struct{})
	go func() {
		g2.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an apply was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if inApply.Load() {
		t.Fatal("Close returned before the apply in flight did")
	}
	<-delivered
	if n := applied.Load(); n != 2 {
		t.Fatalf("%d bursts applied, want 2 (the join and the slow message): some were applied after Close", n)
	}
	for i := 0; i < behind; i++ {
		if err := g1.Send(ctx, []byte("after")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := applied.Load(); n != 2 {
		t.Fatalf("%d bursts applied after Close returned, want none", n-2)
	}
}
