package udpnet

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba/internal/bufpool"
	"amoeba/internal/netw"
)

type sink struct {
	mu     sync.Mutex
	frames []netw.Frame
	notify chan struct{}
}

func newSink(s netw.Station) *sink {
	k := &sink{notify: make(chan struct{}, 256)}
	s.SetHandler(func(f netw.Frame) {
		f.Payload = append([]byte(nil), f.Payload...) // borrowed: the next datagram overwrites it
		k.mu.Lock()
		k.frames = append(k.frames, f)
		k.mu.Unlock()
		select {
		case k.notify <- struct{}{}:
		default:
		}
	})
	return k
}

func (k *sink) waitFor(t *testing.T, n int) []netw.Frame {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		k.mu.Lock()
		if len(k.frames) >= n {
			out := make([]netw.Frame, len(k.frames))
			copy(out, k.frames)
			k.mu.Unlock()
			return out
		}
		k.mu.Unlock()
		select {
		case <-k.notify:
		case <-deadline:
			t.Fatalf("timed out waiting for %d frames", n)
		}
	}
}

func (k *sink) count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.frames)
}

func TestUnicastOverUDP(t *testing.T) {
	n := New()
	defer n.Close()
	a, err := n.Attach("a")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	kb := newSink(b)
	if err := a.Send(b.ID(), []byte("over-udp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	frames := kb.waitFor(t, 1)
	if frames[0].Src != a.ID() || !bytes.Equal(frames[0].Payload, []byte("over-udp")) {
		t.Fatalf("frame = %+v", frames[0])
	}
}

func TestMulticastFiltersByChannel(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	kb, kc := newSink(b), newSink(c)
	const ch netw.ChannelID = 9
	b.Subscribe(ch)
	// c does not subscribe: the datagram arrives but is filtered.
	if err := a.Multicast(ch, []byte("mc")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	frames := kb.waitFor(t, 1)
	if frames[0].Channel != ch || frames[0].Dst != netw.Broadcast {
		t.Fatalf("frame = %+v", frames[0])
	}
	time.Sleep(50 * time.Millisecond)
	if kc.count() != 0 {
		t.Fatal("unsubscribed station delivered a multicast")
	}
}

// TestSendsAllocateNothing: a unicast and a multicast over loopback allocate
// nothing — the frame is written into a pooled buffer, the peers are kept as
// netip.AddrPort and a multicast reads a peer list AddPeer built. The count
// is the whole process's: the receivers read concurrently whenever the
// scheduler lets them, so a receive loop that allocates per datagram (as
// ReadFromUDP does, for the source address) fails it on a busy host. The
// receivers have no handler, so the rest is the sending side's.
func TestSendsAllocateNothing(t *testing.T) {
	if bufpool.Poison {
		t.Skip("allocation counts are for builds without the race detector")
	}
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.Attach("c")
	payload := make([]byte, 256)
	for name, send := range map[string]func() error{
		"Send":      func() error { return a.Send(b.ID(), payload) },
		"Multicast": func() error { return a.Multicast(7, payload) },
	} {
		if err := send(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = send() }); got != 0 {
			t.Errorf("a loopback %s allocates %.1f objects", name, got)
		}
	}
}

func TestSendToUnknownPeerVanishes(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	if err := a.Send(42, []byte("x")); err != nil {
		t.Fatalf("send to unknown peer errored: %v", err)
	}
}

func TestOversizeRejected(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	if err := a.Send(0, make([]byte, netw.MTU+1)); err == nil {
		t.Fatal("oversize send accepted")
	}
	if err := a.Multicast(1, make([]byte, netw.MTU+1)); err == nil {
		t.Fatal("oversize multicast accepted")
	}
}

func TestClosedStationFailsSends(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.Send(a.ID(), []byte("x")); err == nil {
		t.Fatal("send on closed station accepted")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestCrossProcessStyleStaticPeers(t *testing.T) {
	// Build two stations the way separate processes would: explicit
	// binds and static peer tables.
	s1, err := NewStation(Config{ID: 0})
	if err != nil {
		t.Fatalf("NewStation: %v", err)
	}
	defer s1.Close()
	s2, err := NewStation(Config{ID: 1, Peers: map[netw.NodeID]string{0: s1.Addr()}})
	if err != nil {
		t.Fatalf("NewStation: %v", err)
	}
	defer s2.Close()
	if err := s1.AddPeer(1, s2.Addr()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	k1 := newSink(s1)
	if err := s2.Send(0, []byte("static")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	frames := k1.waitFor(t, 1)
	if !bytes.Equal(frames[0].Payload, []byte("static")) {
		t.Fatalf("payload = %q", frames[0].Payload)
	}
}

// TestGroupProtocolOverUDP runs the full public API over real UDP sockets:
// the complete stack (group protocol → FLIP → UDP) exchanging totally
// ordered messages through the kernel's loopback interface.
func TestGroupProtocolOverUDP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	net := New()
	defer net.Close()

	groups, err := formUDPGroup(ctx, t, net, 3)
	if err != nil {
		t.Fatalf("forming group: %v", err)
	}
	for i, g := range groups {
		if err := g.send(ctx, []byte(fmt.Sprintf("udp-%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// All members deliver the same three messages in the same order.
	var ref []string
	for i, g := range groups {
		var got []string
		for len(got) < 3 {
			payload, err := g.receiveData(ctx)
			if err != nil {
				t.Fatalf("receive at %d: %v", i, err)
			}
			got = append(got, payload)
		}
		if i == 0 {
			ref = got
			continue
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("member %d diverges at %d: %q vs %q", i, j, got[j], ref[j])
			}
		}
	}
}
