package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"amoeba/internal/flip"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
)

func newStack(t *testing.T, net *memnet.Network) *flip.Stack {
	t.Helper()
	st, err := net.Attach("node")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return flip.NewStack(flip.Config{
		Station:        st,
		Clock:          sim.NewRealClock(),
		LocateInterval: 5 * time.Millisecond,
	})
}

func cfg(stack *flip.Stack) Config {
	return Config{
		Stack:         stack,
		Clock:         sim.NewRealClock(),
		RetryInterval: 15 * time.Millisecond,
		MaxRetries:    20,
	}
}

func TestCallReply(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("echo:"), req...), 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	reply, err := cl.Call(srv.Addr(), []byte("ping"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestCallSurvivesLoss(t *testing.T) {
	net := memnet.New(memnet.Config{DropRate: 0.3, Seed: 5})
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		return req, 0
	})
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	for i := 0; i < 20; i++ {
		req := []byte(fmt.Sprintf("r%d", i))
		reply, err := cl.Call(srv.Addr(), req)
		if err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
		if !bytes.Equal(reply, req) {
			t.Fatalf("reply %d = %q", i, reply)
		}
	}
}

func TestAtMostOnceExecution(t *testing.T) {
	// Heavy duplication: the server must execute each transaction once.
	net := memnet.New(memnet.Config{DupRate: 0.8, Seed: 9})
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	var mu sync.Mutex
	counts := map[string]int{}
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		mu.Lock()
		counts[string(req)]++
		mu.Unlock()
		return req, 0
	})
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Call(srv.Addr(), []byte(fmt.Sprintf("tx%d", i))); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
	// Allow trailing duplicates to drain, then verify single execution.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("request %q executed %d times", k, n)
		}
	}
}

func TestCallTimesOutWithoutServer(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	cs := newStack(t, net)
	c := cfg(cs)
	c.MaxRetries = 3
	cl, _ := NewClient(c)
	defer cl.Close()
	if _, err := cl.Call(12345, []byte("void")); err == nil {
		t.Fatal("call into the void succeeded")
	}
}

func TestForwardRequest(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	s1, s2, cs := newStack(t, net), newStack(t, net), newStack(t, net)
	// Backend actually answers.
	backend, _ := NewServer(cfg(s2), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("backend:"), req...), 0
	})
	defer backend.Close()
	// Frontend forwards everything to the backend.
	front, _ := NewServer(cfg(s1), 0, func(req []byte) ([]byte, flip.Address) {
		return nil, backend.Addr()
	})
	defer front.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	reply, err := cl.Call(front.Addr(), []byte("work"))
	if err != nil {
		t.Fatalf("forwarded call: %v", err)
	}
	if string(reply) != "backend:work" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		return req, 0
	})
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := []byte(fmt.Sprintf("c%d", i))
			reply, err := cl.Call(srv.Addr(), req)
			if err == nil && !bytes.Equal(reply, req) {
				err = fmt.Errorf("reply %q for %q", reply, req)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestClosedClientFailsPending(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	cs := newStack(t, net)
	cl, _ := NewClient(cfg(cs))
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call(999, []byte("hang"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed")
	}
	if _, err := cl.Call(999, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestServerCloseStopsServing(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) { return req, 0 })
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()
	if _, err := cl.Call(srv.Addr(), []byte("a")); err != nil {
		t.Fatalf("pre-close call: %v", err)
	}
	srv.Close()
	c2 := cfg(cs)
	_ = c2
	clFast, _ := NewClient(Config{Stack: cs, Clock: sim.NewRealClock(), RetryInterval: 10 * time.Millisecond, MaxRetries: 3})
	defer clFast.Close()
	if _, err := clFast.Call(srv.Addr(), []byte("b")); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestHeaderCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, txn uint32, replyTo uint64, body []byte) bool {
		if typ == 0 {
			typ = 1
		}
		h := header{typ: pktType(typ), txn: txn, replyTo: flip.Address(replyTo)}
		got, payload, err := decode(encode(h, body))
		if err != nil {
			return false
		}
		return got == h && bytes.Equal(payload, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsShort(t *testing.T) {
	if _, _, err := decode(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) { return req, 0 })
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()
	big := make([]byte, 8000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	reply, err := cl.Call(srv.Addr(), big)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(reply, big) {
		t.Fatal("large payload corrupted")
	}
}

// TestCallContextCancelStopsRetransmission is the regression test for the
// per-call deadline story: when the caller's context expires mid-retransmit,
// the pending transaction is withdrawn — the retry timer stops, retransmission
// traffic ceases, and no goroutine lingers blocked on the reply.
func TestCallContextCancelStopsRetransmission(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)

	// A black hole: receives requests, counts them, never replies.
	var reqs atomic.Uint64
	hole := ss.AllocAddress()
	ss.Register(hole, func(m flip.Message) {
		if h, _, err := decode(m.Payload); err == nil && h.typ == ptRequest {
			reqs.Add(1)
		}
	})

	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.CallContext(ctx, hole, []byte("into the void"))
		done <- err
	}()
	// Let at least two retransmission rounds happen, then cancel.
	deadline := time.Now().Add(2 * time.Second)
	for reqs.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if reqs.Load() < 3 {
		t.Fatalf("only %d requests reached the server", reqs.Load())
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CallContext returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("CallContext did not return after cancellation")
	}
	// No retransmissions after the withdrawal: the retry timer is dead.
	time.Sleep(3 * cfg(cs).RetryInterval)
	settled := reqs.Load()
	time.Sleep(5 * cfg(cs).RetryInterval)
	if got := reqs.Load(); got != settled {
		t.Fatalf("retransmissions continued after cancel: %d -> %d", settled, got)
	}
	// The client is still usable, and the pending table holds no corpse.
	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d pending calls after cancellation", pending)
	}
}

// TestConcurrentServerDoesNotBlockDelivery: with Concurrent set, a handler
// that itself waits for another inbound packet completes instead of
// deadlocking the stack's delivery goroutine.
func TestConcurrentServerDoesNotBlockDelivery(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)

	c := cfg(ss)
	c.Concurrent = true
	unblock := make(chan struct{})
	inner, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		close(unblock)
		return []byte("inner"), 0
	})
	if err != nil {
		t.Fatalf("inner server: %v", err)
	}
	defer inner.Close()
	outer, err := NewServer(c, 0, func(req []byte) ([]byte, flip.Address) {
		// Block until the inner handler — reached over the SAME stack's
		// delivery path — has run. With a synchronous server this would
		// deadlock on a remote-to-remote deployment; concurrent handlers
		// must survive it.
		<-unblock
		return []byte("outer"), 0
	})
	if err != nil {
		t.Fatalf("outer server: %v", err)
	}
	defer outer.Close()

	clOuter, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer clOuter.Close()
	clInner, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer clInner.Close()

	outerDone := make(chan error, 1)
	go func() {
		_, err := clOuter.Call(outer.Addr(), []byte("o"))
		outerDone <- err
	}()
	// The outer handler is now (soon) blocked; the inner call must still
	// get through the same server stack.
	if _, err := clInner.Call(inner.Addr(), []byte("i")); err != nil {
		t.Fatalf("inner call: %v", err)
	}
	select {
	case err := <-outerDone:
		if err != nil {
			t.Fatalf("outer call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outer call never completed")
	}
}

// TestForwardRewrite: a forwarding handler that returns a non-nil reply
// replaces the request payload — the backend sees the rewritten bytes and
// the client gets the backend's reply.
func TestForwardRewrite(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	fs, bs, cs := newStack(t, net), newStack(t, net), newStack(t, net)

	backend, err := NewServer(cfg(bs), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("saw:"), req...), 0
	})
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	defer backend.Close()
	front, err := NewServer(cfg(fs), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("stamped+"), req...), backend.Addr()
	})
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	defer front.Close()

	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer cl.Close()
	reply, err := cl.Call(front.Addr(), []byte("x"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "saw:stamped+x" {
		t.Fatalf("reply = %q, want %q", reply, "saw:stamped+x")
	}
}

// TestReplyCachePerTransaction: the at-most-once cache is keyed by (client,
// txn), so a retransmission of an OLD transaction must be answered from the
// cache even after the same client completed a NEWER one — the single-slot
// thrash the LRU replaces.
func TestReplyCachePerTransaction(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	var executions atomic.Uint64
	srv, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		executions.Add(1)
		return append([]byte("r:"), req...), 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// Drive the wire protocol directly so the duplicate is under test
	// control: a client address that records replies.
	clientAddr := cs.AllocAddress()
	type rep struct {
		txn     uint32
		payload []byte
	}
	replies := make(chan rep, 16)
	cs.Register(clientAddr, func(m flip.Message) {
		if txn, payload, ok := DecodeReply(m.Payload); ok {
			replies <- rep{txn: txn, payload: append([]byte(nil), payload...)} // m.Payload is borrowed
		}
	})
	defer cs.Unregister(clientAddr)

	send := func(txn uint32, body string) {
		if err := cs.Send(clientAddr, srv.Addr(), EncodeRequest(txn, clientAddr, []byte(body))); err != nil {
			t.Fatalf("send txn %d: %v", txn, err)
		}
	}
	recv := func(wantTxn uint32, wantBody string) {
		t.Helper()
		select {
		case r := <-replies:
			if r.txn != wantTxn || string(r.payload) != wantBody {
				t.Fatalf("reply = txn %d %q, want txn %d %q", r.txn, r.payload, wantTxn, wantBody)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply for txn %d", wantTxn)
		}
	}

	send(1, "a")
	recv(1, "r:a")
	send(2, "b") // a newer transaction from the same client
	recv(2, "r:b")
	send(1, "a") // retransmission of the OLD transaction
	recv(1, "r:a")
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executed %d times, want 2 (the txn-1 retransmission must hit the cache)", got)
	}
}

// TestReplyCacheEvictsOldest: the reply cache holds the last replyCacheSize
// transactions. Once replyCacheSize newer replies are cached, a
// retransmission of the first transaction executes again, while one of the
// second is still answered from the cache.
func TestReplyCacheEvictsOldest(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	var executions atomic.Uint64
	srv, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		executions.Add(1)
		return req, 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	clientAddr := cs.AllocAddress()
	replies := make(chan uint32, 1)
	cs.Register(clientAddr, func(m flip.Message) {
		if txn, _, ok := DecodeReply(m.Payload); ok {
			replies <- txn
		}
	})
	defer cs.Unregister(clientAddr)
	call := func(txn uint32) {
		t.Helper()
		if err := cs.Send(clientAddr, srv.Addr(), EncodeRequest(txn, clientAddr, []byte("x"))); err != nil {
			t.Fatalf("send txn %d: %v", txn, err)
		}
		select {
		case got := <-replies:
			if got != txn {
				t.Fatalf("reply for txn %d, want %d", got, txn)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply for txn %d", txn)
		}
	}

	for txn := uint32(1); txn <= 1+replyCacheSize; txn++ {
		call(txn)
	}
	call(2) // replyCacheSize-1 newer replies: still cached
	if got, want := executions.Load(), uint64(1+replyCacheSize); got != want {
		t.Fatalf("handler executed %d times, want %d (txn 2's retransmission must hit the cache)", got, want)
	}
	call(1) // replyCacheSize newer replies: evicted
	if got, want := executions.Load(), uint64(2+replyCacheSize); got != want {
		t.Fatalf("handler executed %d times, want %d (txn 1's reply must have been evicted)", got, want)
	}
}

// workerGoroutines returns the ids of the goroutines running a Concurrent
// server's worker loop.
func workerGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(stack, "amoeba/internal/rpc.(*Server).worker(") {
			ids[strings.Fields(stack)[1]] = true
		}
	}
	return ids
}

// TestConcurrentServerStartsWorkersOnDemand: a Concurrent server starts a
// worker only when a request finds none idle, keeps it for later requests,
// and lets every one go at Close. Workers of other tests' servers, still
// exiting, are not counted.
func TestConcurrentServerStartsWorkersOnDemand(t *testing.T) {
	before := workerGoroutines()
	workers := func() int {
		n := 0
		for id := range workerGoroutines() {
			if !before[id] {
				n++
			}
		}
		return n
	}
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)

	var held atomic.Int64
	gate := make(chan struct{})
	scfg := cfg(ss)
	scfg.Concurrent = true
	srv, err := NewServer(scfg, 0, func(req []byte) ([]byte, flip.Address) {
		if string(req) == "hold" {
			held.Add(1)
			<-gate
		}
		return req, 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	if n := workers(); n != 0 {
		t.Fatalf("NewServer started %d workers, want 0", n)
	}

	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	for i := 0; i < 200; i++ {
		req := []byte(fmt.Sprintf("seq-%d", i))
		if reply, err := cl.Call(srv.Addr(), req); err != nil || !bytes.Equal(reply, req) {
			t.Fatalf("call %d: %q, %v", i, reply, err)
		}
	}
	if n := workers(); n != 1 {
		t.Fatalf("200 sequential calls left %d workers, want 1", n)
	}

	const concurrent = 8
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		go func() {
			reply, err := cl.Call(srv.Addr(), []byte("hold"))
			if err == nil && string(reply) != "hold" {
				err = fmt.Errorf("reply %q", reply)
			}
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for held.Load() < concurrent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h := held.Load(); h != concurrent {
		t.Fatalf("%d handlers held, want %d", h, concurrent)
	}
	if n := workers(); n != concurrent {
		t.Fatalf("%d calls held at once left %d workers, want %d", concurrent, n, concurrent)
	}
	close(gate)
	for i := 0; i < concurrent; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("held call: %v", err)
		}
	}

	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); workers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers outlived Close", workers())
		}
	}
}

// TestConcurrentPoolBounded: Concurrent mode must cap handler parallelism at
// maxConcurrent — a burst beyond the cap is shed (and retransmits), never
// spawns unbounded goroutines — while every call still completes, with its
// own request echoed: a request reaches its worker after the frame it arrived
// in was recycled, so the server must have copied it (under -race a borrowed
// slice would echo poison).
func TestConcurrentPoolBounded(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss := newStack(t, net)

	var (
		running atomic.Int64
		peak    atomic.Int64
	)
	gate := make(chan struct{})
	scfg := cfg(ss)
	scfg.Concurrent = true
	srv, err := NewServer(scfg, 0, func(req []byte) ([]byte, flip.Address) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-gate
		running.Add(-1)
		return req, 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// Four clients, each multiplexing a quarter of the calls: a client per
	// call would flood the fabric with locates once calls start to
	// retransmit.
	const calls = maxConcurrent + 16
	clients := make([]*Client, 4)
	for i := range clients {
		ccfg := cfg(newStack(t, net))
		// A shed request retransmits until the gate opens at 300 ms;
		// give it twice that, not the default budget's bare 315 ms.
		ccfg.MaxRetries = 40
		if clients[i], err = NewClient(ccfg); err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		defer clients[i].Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := clients[i%len(clients)].Call(srv.Addr(), []byte{byte(i)})
			if err == nil && !bytes.Equal(reply, []byte{byte(i)}) {
				err = fmt.Errorf("echoed %x, sent %x", reply, i)
			}
			errs[i] = err
		}()
	}
	// Let the burst saturate the workers, then release the handlers.
	time.Sleep(300 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if p := peak.Load(); p > maxConcurrent {
		t.Fatalf("handler parallelism peaked at %d, cap is %d", p, maxConcurrent)
	}
	if p := peak.Load(); p == 0 {
		t.Fatal("no handler ever ran")
	}
}
