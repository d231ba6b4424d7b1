package amoeba

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestQuickstartFlow(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, err := net.NewKernel("m1")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	k2, err := net.NewKernel("m2")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	g1, err := k1.CreateGroup(ctx, "workers", GroupOptions{})
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	g2, err := k2.JoinGroup(ctx, "workers", GroupOptions{})
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	if err := g1.Send(ctx, []byte("hello, group")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// g2's stream: its own join, then the data.
	m, err := g2.Receive(ctx)
	if err != nil || m.Kind != Join {
		t.Fatalf("first receive = %+v, %v", m, err)
	}
	m, err = g2.Receive(ctx)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if m.Kind != Data || string(m.Payload) != "hello, group" || m.Sender != 0 {
		t.Fatalf("message = %+v", m)
	}
}

func TestJoinNonexistentGroupFails(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	net := NewMemoryNetwork()
	defer net.Close()
	k, _ := net.NewKernel("m")
	_, err := k.JoinGroup(ctx, "ghost", GroupOptions{})
	if !errors.Is(err, ErrNoGroup) {
		t.Fatalf("err = %v, want ErrNoGroup", err)
	}
}

func TestTotalOrderAcrossManyMembers(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	const members = 5
	groups := make([]*Group, members)
	for i := 0; i < members; i++ {
		k, _ := net.NewKernel(fmt.Sprintf("m%d", i))
		var err error
		if i == 0 {
			groups[i], err = k.CreateGroup(ctx, "order", GroupOptions{})
		} else {
			groups[i], err = k.JoinGroup(ctx, "order", GroupOptions{})
		}
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	// Concurrent senders.
	const per = 10
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := groups[i].Send(ctx, []byte(fmt.Sprintf("%d:%d", i, j))); err != nil {
					t.Errorf("send %d:%d: %v", i, j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every member receives the identical data stream.
	var ref []string
	for i := 0; i < members; i++ {
		var got []string
		for len(got) < members*per {
			m, err := groups[i].Receive(ctx)
			if err != nil {
				t.Fatalf("receive at %d: %v", i, err)
			}
			if m.Kind == Data {
				got = append(got, fmt.Sprintf("%d@%s", m.Seq, m.Payload))
			}
		}
		if i == 0 {
			ref = got
			continue
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("member %d delivery %d = %s, member 0 saw %s", i, j, got[j], ref[j])
			}
		}
	}
}

func TestMembershipEventsInStream(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	g1, err := k1.CreateGroup(ctx, "events", GroupOptions{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	g2, err := k2.JoinGroup(ctx, "events", GroupOptions{})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	// g1 sees: own join, g2's join.
	m, _ := g1.Receive(ctx)
	if m.Kind != Join || m.Sender != 0 || m.Members != 1 {
		t.Fatalf("first event = %+v", m)
	}
	m, _ = g1.Receive(ctx)
	if m.Kind != Join || m.Sender != 1 || m.Members != 2 {
		t.Fatalf("second event = %+v", m)
	}
	if err := g2.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	m, _ = g1.Receive(ctx)
	if m.Kind != Leave || m.Sender != 1 || m.Members != 1 {
		t.Fatalf("leave event = %+v", m)
	}
	// The departed handle is dead.
	if err := g2.Send(ctx, []byte("x")); err == nil {
		t.Fatal("send after leave succeeded")
	}
}

func TestInfoAndSequencerIdentity(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	g1, _ := k1.CreateGroup(ctx, "info", GroupOptions{Resilience: 1})
	g2, err := k2.JoinGroup(ctx, "info", GroupOptions{Resilience: 1})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	i1, i2 := g1.Info(), g2.Info()
	if !i1.IsSequencer || i2.IsSequencer {
		t.Fatalf("sequencer flags: %+v %+v", i1, i2)
	}
	if i1.Members != 2 || i2.Members != 2 || i2.Sequencer != 0 {
		t.Fatalf("info: %+v %+v", i1, i2)
	}
	if i2.Resilience != 1 || i2.Name != "info" {
		t.Fatalf("info: %+v", i2)
	}
	if len(i2.MemberIDs) != 2 || i2.MemberIDs[0] != 0 || i2.MemberIDs[1] != 1 {
		t.Fatalf("member ids: %v", i2.MemberIDs)
	}
}

func TestResetAfterSequencerCrash(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	k3, _ := net.NewKernel("m3")
	g1, _ := k1.CreateGroup(ctx, "crashy", GroupOptions{})
	g2, err := k2.JoinGroup(ctx, "crashy", GroupOptions{})
	if err != nil {
		t.Fatalf("join2: %v", err)
	}
	g3, err := k3.JoinGroup(ctx, "crashy", GroupOptions{})
	if err != nil {
		t.Fatalf("join3: %v", err)
	}
	if err := g2.Send(ctx, []byte("before")); err != nil {
		t.Fatalf("send: %v", err)
	}
	g1.Close() // sequencer crashes
	if err := g2.Reset(ctx, 2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	info := g2.Info()
	if !info.IsSequencer || info.Members != 2 || info.Incarnation < 2 {
		t.Fatalf("post-reset info: %+v", info)
	}
	if err := g3.Send(ctx, []byte("after")); err != nil {
		t.Fatalf("post-reset send: %v", err)
	}
	// g3 sees: joins (its own), "before", reset, "after" — with data
	// payloads intact and in order.
	var data []string
	var sawReset bool
	for len(data) < 2 {
		m, err := g3.Receive(ctx)
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		switch m.Kind {
		case Data:
			data = append(data, string(m.Payload))
		case Reset:
			sawReset = true
		}
	}
	if data[0] != "before" || data[1] != "after" {
		t.Fatalf("data = %v", data)
	}
	if !sawReset {
		t.Fatal("reset event not delivered in stream")
	}
}

func TestContextCancellationUnblocksReceive(t *testing.T) {
	net := NewMemoryNetwork()
	defer net.Close()
	k, _ := net.NewKernel("m")
	g, err := k.CreateGroup(context.Background(), "quiet", GroupOptions{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Drain the self-join, then block on an empty queue.
	if _, err := g.Receive(context.Background()); err != nil {
		t.Fatalf("receive join: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := g.Receive(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestSendUnderFaultyNetwork(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetworkWithFaults(MemoryNetworkConfig{DropRate: 0.15, CorruptRate: 0.05, Seed: 3})
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	g1, err := k1.CreateGroup(ctx, "lossy", GroupOptions{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	g2, err := k2.JoinGroup(ctx, "lossy", GroupOptions{})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := g1.Send(ctx, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	seen := 0
	for seen < 10 {
		m, err := g2.Receive(ctx)
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		if m.Kind == Data {
			if m.Payload[0] != byte(seen) {
				t.Fatalf("out of order under loss: got %d want %d", m.Payload[0], seen)
			}
			seen++
		}
	}
}

func TestRPCAndForwardRequest(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	k3, _ := net.NewKernel("m3")

	backend, err := k2.NewRPCServer(0, func(req []byte) ([]byte, Addr) {
		return append([]byte("did:"), req...), 0
	})
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	defer backend.Close()
	front, err := k1.NewRPCServer(AddrForName("frontdoor"), func(req []byte) ([]byte, Addr) {
		return nil, backend.Addr() // ForwardRequest
	})
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	defer front.Close()

	cl, err := k3.NewRPCClient()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer cl.Close()
	reply, err := cl.Call(ctx, AddrForName("frontdoor"), []byte("work"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(reply) != "did:work" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestMsgKindStrings(t *testing.T) {
	for k, want := range map[MsgKind]string{
		Data: "data", Join: "join", Leave: "leave",
		Reset: "reset", Expelled: "expelled", MsgKind(0): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestManyGroupsOnOneKernel(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("m1")
	k2, _ := net.NewKernel("m2")
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("g%d", i)
		ga, err := k1.CreateGroup(ctx, name, GroupOptions{})
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		gb, err := k2.JoinGroup(ctx, name, GroupOptions{})
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		if err := ga.Send(ctx, []byte(name)); err != nil {
			t.Fatalf("send %s: %v", name, err)
		}
		for {
			m, err := gb.Receive(ctx)
			if err != nil {
				t.Fatalf("receive %s: %v", name, err)
			}
			if m.Kind == Data {
				if string(m.Payload) != name {
					t.Fatalf("cross-group leak: got %q in %s", m.Payload, name)
				}
				break
			}
		}
	}
}

func TestFullStackOverUDP(t *testing.T) {
	ctx := ctxT(t)
	net := NewUDPNetwork()
	defer net.Close()
	k1, err := net.NewKernel("udp-1")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	k2, err := net.NewKernel("udp-2")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	g1, err := k1.CreateGroup(ctx, "over-udp", GroupOptions{Resilience: 1})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	g2, err := k2.JoinGroup(ctx, "over-udp", GroupOptions{Resilience: 1})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := g1.Send(ctx, []byte("real datagrams")); err != nil {
		t.Fatalf("send: %v", err)
	}
	for {
		m, err := g2.Receive(ctx)
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		if m.Kind == Data {
			if string(m.Payload) != "real datagrams" {
				t.Fatalf("payload = %q", m.Payload)
			}
			return
		}
	}
}

// TestFirstSeqSeedsSequenceSpace: a group created with FirstSeq continues a
// recovered timeline — its first entries are ordered past the seed, and a
// joiner's deliveries carry the continued numbering.
func TestFirstSeqSeedsSequenceSpace(t *testing.T) {
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	defer net.Close()
	k1, err := net.NewKernel("m1")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	k2, err := net.NewKernel("m2")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	const seed = 500
	g1, err := k1.CreateGroup(ctx, "reformed", GroupOptions{FirstSeq: seed})
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	defer g1.Close()
	// The creator's own join is the first entry of the continued history.
	m, err := g1.Receive(ctx)
	if err != nil || m.Kind != Join || m.Seq != seed+1 {
		t.Fatalf("creator's first delivery = %+v, %v; want join at seq %d", m, err, seed+1)
	}
	g2, err := k2.JoinGroup(ctx, "reformed", GroupOptions{})
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	defer g2.Close()
	if err := g1.Send(ctx, []byte("post-recovery")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err = g2.Receive(ctx) // own join
	if err != nil || m.Kind != Join || m.Seq != seed+2 {
		t.Fatalf("joiner's join = %+v, %v; want seq %d", m, err, seed+2)
	}
	m, err = g2.Receive(ctx)
	if err != nil || m.Kind != Data || m.Seq != seed+3 {
		t.Fatalf("data = %+v, %v; want seq %d", m, err, seed+3)
	}
	if info := g1.Info(); info.NextSeq != seed+4 {
		t.Fatalf("NextSeq = %d, want %d", info.NextSeq, seed+4)
	}
}

// goroutineRE picks a goroutine's id out of its stack header.
var goroutineRE = regexp.MustCompile(`^goroutine (\d+) `)

// moduleGoroutines returns, by id, the stack of every goroutine but the
// caller's that runs any of this module's code.
func moduleGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for i, stack := range bytes.Split(buf, []byte("\n\n")) {
		m := goroutineRE.FindSubmatch(stack)
		if i == 0 || m == nil || !bytes.Contains(stack, []byte("\namoeba")) {
			continue // the caller's own goroutine comes first
		}
		out[string(m[1])] = string(stack)
	}
	return out
}

// TestNoGoroutineOutlivesTeardown runs what starts this package's
// goroutines — a resilient group whose members both send, and a concurrent
// RPC server answering parallel calls — and requires every goroutine running
// module code gone once the groups, the RPC endpoints, the kernels and the
// network are closed. Goroutines of other tests that were already running
// are not counted.
func TestNoGoroutineOutlivesTeardown(t *testing.T) {
	before := moduleGoroutines()
	ctx := ctxT(t)
	net := NewMemoryNetwork()
	k1, err := net.NewKernel("m1")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	k2, err := net.NewKernel("m2")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	opts := GroupOptions{Resilience: 1}
	g1, err := k1.CreateGroup(ctx, "teardown", opts)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	g2, err := k2.JoinGroup(ctx, "teardown", opts)
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	const perMember = 16
	for i := 0; i < perMember; i++ {
		if err := g1.Send(ctx, []byte("from m1")); err != nil {
			t.Fatalf("Send m1: %v", err)
		}
		if err := g2.Send(ctx, []byte("from m2")); err != nil {
			t.Fatalf("Send m2: %v", err)
		}
	}
	for _, g := range []*Group{g1, g2} {
		for data := 0; data < 2*perMember; {
			m, err := g.Receive(ctx)
			if err != nil {
				t.Fatalf("Receive: %v", err)
			}
			if m.Kind == Data {
				data++
			}
		}
	}

	srv, err := k1.NewRPCServerWith(0, func(req []byte) ([]byte, Addr) {
		return append([]byte("re:"), req...), 0
	}, RPCServerOptions{Concurrent: true})
	if err != nil {
		t.Fatalf("NewRPCServerWith: %v", err)
	}
	cl, err := k2.NewRPCClient()
	if err != nil {
		t.Fatalf("NewRPCClient: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := cl.Call(ctx, srv.Addr(), []byte("ping")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Call: %v", err)
	}

	cl.Close()
	srv.Close()
	g2.Close()
	g1.Close()
	k2.Close()
	k1.Close()
	net.Close()

	var left map[string]string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		left = moduleGoroutines()
		for id := range before {
			delete(left, id)
		}
		if len(left) == 0 {
			return
		}
	}
	var stacks []string
	for _, s := range left {
		stacks = append(stacks, s)
	}
	t.Fatalf("%d goroutines outlived their network:\n\n%s", len(left), strings.Join(stacks, "\n\n"))
}
