package core

import (
	"bytes"
	"testing"
	"time"

	"amoeba/internal/bufpool"
	"amoeba/internal/flip"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
)

func TestLeaveUnderLossRetriesUntilOrdered(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{DropRate: 0.35, Seed: 31}, func(c *Config) {
		c.RetryInterval = 15 * time.Millisecond
		c.MaxRetries = 200
	})
	if err := await(t, "lossy leave", func(d func(error)) { g.nodes[1].ep.Leave(d) }); err != nil {
		t.Fatalf("leave under loss: %v", err)
	}
	deadline := time.After(testTimeout)
	for len(g.nodes[0].ep.Info().Members) != 2 {
		select {
		case <-deadline:
			t.Fatalf("leave never took effect: %+v", g.nodes[0].ep.Info())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Exactly one Leave delivery at the survivors despite duplicates of
	// the request.
	ds := g.nodes[2].waitForSeq(4)
	leaves := 0
	for _, d := range ds {
		if d.Kind == KindLeave {
			leaves++
		}
	}
	if leaves != 1 {
		t.Fatalf("delivered %d leave events, want 1", leaves)
	}
}

func TestJoinAckStashEviction(t *testing.T) {
	// Admit more joiners than the ack stash retains; the protocol must
	// keep working (old acks are only needed for retransmission, and
	// their owners have long since joined).
	g := newGroup(t, 1, memnet.Config{}, func(c *Config) {
		c.HistorySize = 512
	})
	const joiners = maxJoinAcksRetained + 5
	for i := 0; i < joiners; i++ {
		g.addNode(false)
	}
	info := g.nodes[0].ep.Info()
	if len(info.Members) != joiners+1 {
		t.Fatalf("members = %d, want %d", len(info.Members), joiners+1)
	}
	g.nodes[0].ep.mu.Lock()
	stash := len(g.nodes[0].ep.joinAcks)
	g.nodes[0].ep.mu.Unlock()
	if stash > maxJoinAcksRetained {
		t.Fatalf("ack stash grew to %d, bound %d", stash, maxJoinAcksRetained)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	c := Config{}
	c.applyDefaults()
	if c.HistorySize != 128 {
		t.Fatalf("HistorySize default = %d, want the paper's 128", c.HistorySize)
	}
	if c.BBThreshold != 1024 || c.MaxMessage != 64<<10 {
		t.Fatalf("size defaults: %d %d", c.BBThreshold, c.MaxMessage)
	}
	if c.RetryInterval <= 0 || c.NakDelay <= 0 || c.SyncInterval <= 0 ||
		c.StatusTimeout <= 0 || c.ResetTimeout <= 0 {
		t.Fatal("timeout defaults missing")
	}
	if c.MaxRetries <= 0 || c.StatusRetries <= 0 || c.ResetRetries <= 0 || c.MinSurvivors != 1 {
		t.Fatal("retry defaults missing")
	}
	if c.Meter == nil {
		t.Fatal("meter default missing")
	}
}

func TestEndpointConstructorValidation(t *testing.T) {
	base := Config{
		Group: 1, Self: 2,
		Transport: nopTransport{}, Clock: newTestClock(),
	}
	if _, err := NewCreator(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mod := range map[string]func(*Config){
		"no group":     func(c *Config) { c.Group = 0 },
		"no self":      func(c *Config) { c.Self = 0 },
		"no transport": func(c *Config) { c.Transport = nil },
		"no clock":     func(c *Config) { c.Clock = nil },
	} {
		c := base
		mod(&c)
		if _, err := NewCreator(c); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if _, err := NewJoiner(c, nil); err == nil {
			t.Fatalf("joiner with %s accepted", name)
		}
	}
}

type nopTransport struct{}

func (nopTransport) Send(flip.Address, []byte) error { return nil }
func (nopTransport) Multicast([]byte) error          { return nil }

func TestResolveMethodPolicy(t *testing.T) {
	mk := func(mod func(*Config)) *Endpoint {
		c := Config{Group: 1, Self: 2, Transport: nopTransport{}, Clock: newTestClock()}
		if mod != nil {
			mod(&c)
		}
		ep, err := NewCreator(c)
		if err != nil {
			t.Fatalf("NewCreator: %v", err)
		}
		return ep
	}
	auto := mk(nil)
	if auto.resolveMethod(10) != MethodPB || auto.resolveMethod(4096) != MethodBB {
		t.Fatal("auto switching wrong")
	}
	if auto.resolveMethod(1024) != MethodBB { // threshold is inclusive
		t.Fatal("threshold not inclusive")
	}
	forcedPB := mk(func(c *Config) { c.Method = MethodPB })
	if forcedPB.resolveMethod(1<<15) != MethodPB {
		t.Fatal("forced PB ignored")
	}
	forcedBB := mk(func(c *Config) { c.Method = MethodBB })
	if forcedBB.resolveMethod(0) != MethodBB {
		t.Fatal("forced BB ignored")
	}
	// Resilience forces PB regardless.
	resilient := mk(func(c *Config) { c.Resilience = 2; c.Method = MethodBB })
	if resilient.resolveMethod(1<<15) != MethodPB {
		t.Fatal("resilience did not force PB")
	}
}

func TestDoubleCloseAndLateCallbacks(t *testing.T) {
	g := newGroup(t, 2, memnet.Config{}, nil)
	ep := g.nodes[1].ep
	done1 := make(chan error, 1)
	ep.Send([]byte("in-flight"), func(e error) { done1 <- e })
	ep.Close()
	ep.Close() // idempotent
	select {
	case <-done1:
	case <-time.After(testTimeout):
		t.Fatal("in-flight send never resolved on Close")
	}
	// Operations after close resolve immediately.
	for name, start := range map[string]func(func(error)){
		"send":  func(d func(error)) { ep.Send(nil, d) },
		"leave": func(d func(error)) { ep.Leave(d) },
		"reset": func(d func(error)) { ep.Reset(1, d) },
	} {
		ch := make(chan error, 1)
		start(func(e error) { ch <- e })
		select {
		case err := <-ch:
			if err == nil {
				t.Fatalf("%s after close succeeded", name)
			}
		case <-time.After(testTimeout):
			t.Fatalf("%s after close hung", name)
		}
	}
}

// keepingTransport breaks Transport's borrow rule on purpose: it keeps every
// packet slice it is handed.
type keepingTransport struct{ kept [][]byte }

func (k *keepingTransport) Send(_ flip.Address, p []byte) error {
	k.kept = append(k.kept, p)
	return nil
}

func (k *keepingTransport) Multicast(p []byte) error {
	k.kept = append(k.kept, p)
	return nil
}

// TestRetainedTransportPayloadReadsPoison: what the endpoint hands its
// Transport is a pooled encode buffer, recycled when the call returns. Race
// builds overwrite it then, so a transport that queues the slice instead of
// copying it is caught by `go test -race`.
func TestRetainedTransportPayloadReadsPoison(t *testing.T) {
	if !bufpool.Poison {
		t.Skip("released buffers are poisoned only in -race builds")
	}
	tr := &keepingTransport{}
	ep, err := NewCreator(Config{Group: flipAddr("lent"), Self: 1, Transport: tr, Clock: sim.NewEngineClock(sim.NewEngine(1))})
	if err != nil {
		t.Fatalf("NewCreator: %v", err)
	}
	defer ep.Close()
	ep.Start() // orders the creator's own join: one multicast, sent before Start returns
	if len(tr.kept) == 0 {
		t.Fatal("the creator's join was never multicast")
	}
	for _, p := range tr.kept {
		if want := bytes.Repeat([]byte{bufpool.PoisonByte}, len(p)); !bytes.Equal(p, want) {
			t.Fatalf("packet kept past the transport call reads %x, want poison", p)
		}
	}
}
