package cm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba/internal/flip"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
)

const testTimeout = 10 * time.Second

type ring struct {
	t    *testing.T
	net  *memnet.Network
	eps  []*Endpoint
	recv []*recorder
}

type recorder struct {
	mu     sync.Mutex
	ds     []Delivery
	notify chan struct{}
}

func (r *recorder) on(d Delivery) {
	r.mu.Lock()
	r.ds = append(r.ds, d)
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

func (r *recorder) wait(t *testing.T, n int) []Delivery {
	t.Helper()
	deadline := time.After(testTimeout)
	for {
		r.mu.Lock()
		if len(r.ds) >= n {
			out := make([]Delivery, len(r.ds))
			copy(out, r.ds)
			r.mu.Unlock()
			return out
		}
		r.mu.Unlock()
		select {
		case <-r.notify:
		case <-deadline:
			r.mu.Lock()
			got := len(r.ds)
			r.mu.Unlock()
			t.Fatalf("timeout waiting for %d deliveries, have %d", n, got)
		}
	}
}

func newRing(t *testing.T, n int, netCfg memnet.Config) *ring {
	t.Helper()
	r := &ring{t: t, net: memnet.New(netCfg)}
	t.Cleanup(r.net.Close)
	group := flip.AddressForName("cm-group")
	stacks := make([]*flip.Stack, n)
	members := make([]flip.Address, n)
	for i := 0; i < n; i++ {
		st, err := r.net.Attach("node")
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		stacks[i] = flip.NewStack(flip.Config{
			Station:        st,
			Clock:          sim.NewRealClock(),
			LocateInterval: 5 * time.Millisecond,
		})
		members[i] = stacks[i].AllocAddress()
	}
	for i := 0; i < n; i++ {
		rec := &recorder{notify: make(chan struct{}, 1024)}
		r.recv = append(r.recv, rec)
		ep, err := New(Config{
			Group:         group,
			Self:          members[i],
			Members:       members,
			Stack:         stacks[i],
			Clock:         sim.NewRealClock(),
			RetryInterval: 20 * time.Millisecond,
			NakDelay:      2 * time.Millisecond,
			OnDeliver:     rec.on,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r.eps = append(r.eps, ep)
	}
	return r
}

func (r *ring) send(i int, payload []byte) error {
	r.t.Helper()
	done := make(chan error, 1)
	r.eps[i].Send(payload, func(e error) { done <- e })
	select {
	case e := <-done:
		return e
	case <-time.After(testTimeout):
		r.t.Fatalf("send from %d timed out", i)
		return nil
	}
}

func TestSingleSenderTotalOrder(t *testing.T) {
	r := newRing(t, 3, memnet.Config{})
	for i := 0; i < 10; i++ {
		if err := r.send(0, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for n, rec := range r.recv {
		ds := rec.wait(t, 10)
		for i := 0; i < 10; i++ {
			if string(ds[i].Payload) != fmt.Sprintf("m%d", i) {
				t.Fatalf("member %d delivery %d = %q", n, i, ds[i].Payload)
			}
			if ds[i].Seq != uint32(i+1) {
				t.Fatalf("member %d delivery %d seq %d", n, i, ds[i].Seq)
			}
		}
	}
}

func TestTokenRotatesAcrossMembers(t *testing.T) {
	r := newRing(t, 3, memnet.Config{})
	const msgs = 9
	for i := 0; i < msgs; i++ {
		if err := r.send(i%3, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	r.recv[0].wait(t, msgs)
	ackers := 0
	for _, ep := range r.eps {
		if ep.Stats().Acked > 0 {
			ackers++
		}
	}
	if ackers < 2 {
		t.Fatalf("token never rotated: %d members acked", ackers)
	}
}

func TestConcurrentSendersAgreeOnOrder(t *testing.T) {
	r := newRing(t, 3, memnet.Config{})
	const per = 10
	var wg sync.WaitGroup
	errs := make(chan error, 3*per)
	for s := 0; s < 3; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				done := make(chan error, 1)
				r.eps[s].Send([]byte(fmt.Sprintf("s%d-%d", s, i)), func(e error) { done <- e })
				errs <- <-done
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ref := r.recv[0].wait(t, 3*per)
	for n := 1; n < 3; n++ {
		ds := r.recv[n].wait(t, 3*per)
		for i := range ref {
			if ds[i].Seq != ref[i].Seq || string(ds[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("member %d diverges at %d: %q vs %q", n, i, ds[i].Payload, ref[i].Payload)
			}
		}
	}
}

func TestRecoveryUnderLoss(t *testing.T) {
	r := newRing(t, 3, memnet.Config{DropRate: 0.15, Seed: 21})
	const msgs = 15
	for i := 0; i < msgs; i++ {
		if err := r.send(i%3, []byte(fmt.Sprintf("l%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ref := r.recv[0].wait(t, msgs)
	for n := 1; n < 3; n++ {
		ds := r.recv[n].wait(t, msgs)
		for i := range ref {
			if ds[i].Seq != ref[i].Seq || string(ds[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("member %d diverges at %d under loss", n, i)
			}
		}
	}
	if r.net.Dropped() == 0 {
		t.Fatal("no drops: test proved nothing")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	r := newRing(t, 2, memnet.Config{})
	r.eps[1].Close()
	done := make(chan error, 1)
	r.eps[1].Send([]byte("x"), func(e error) { done <- e })
	if err := <-done; err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
}

func TestFIFOPerOrigin(t *testing.T) {
	r := newRing(t, 2, memnet.Config{})
	const msgs = 20
	for i := 0; i < msgs; i++ {
		if err := r.send(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ds := r.recv[0].wait(t, msgs)
	for i := 0; i < msgs; i++ {
		if ds[i].Payload[0] != byte(i) {
			t.Fatalf("FIFO broken at %d", i)
		}
		if ds[i].Origin != 1 {
			t.Fatalf("origin = %d", ds[i].Origin)
		}
	}
}

// Stats snapshots the counters.
func (ep *Endpoint) Stats() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.stats
}

// Close detaches the endpoint.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	for _, op := range ep.pending {
		if op.timer != nil {
			op.timer.Stop()
		}
		op := op
		ep.enqueue(func() { op.done(errors.New("cm: endpoint closed")) })
	}
	ep.pending = map[uint32]*sendOp{}
	if ep.nakTimer != nil {
		ep.nakTimer.Stop()
	}
	ep.mu.Unlock()
	ep.drain()
	ep.cfg.Stack.Unregister(ep.cfg.Self)
	ep.cfg.Stack.LeaveGroup(ep.cfg.Group)
}
