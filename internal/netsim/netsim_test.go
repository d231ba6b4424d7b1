package netsim

import (
	"testing"
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/netw"
	"amoeba/internal/sim"
)

func newNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine(7)
	return e, New(e, DefaultCostModel())
}

func TestFrameTime(t *testing.T) {
	m := DefaultCostModel()
	// 0-byte payload: 116 header bytes → 92.8 µs at 10 Mbit/s.
	got := m.FrameTime(0)
	want := 92800 * time.Nanosecond
	if got != want {
		t.Fatalf("FrameTime(0) = %v, want %v", got, want)
	}
	// Minimum frame applies below 64 bytes total.
	small := CostModel{BitRate: 10_000_000, FrameOverheadBytes: 10, MinFrameBytes: 64}
	if small.FrameTime(0) != small.FrameTime(50) {
		t.Fatal("minimum frame size not applied")
	}
	if small.FrameTime(100) <= small.FrameTime(0) {
		t.Fatal("frame time not increasing with payload")
	}
}

func TestUnicastDeliveryTiming(t *testing.T) {
	e, n := newNet(t)
	a := n.AttachStation("a")
	b := n.AttachStation("b")
	var deliveredAt time.Duration
	b.SetHandler(func(f netw.Frame) { deliveredAt = e.Now() })
	a.SetHandler(func(netw.Frame) {})

	e.After(0, func() {
		if err := a.Send(b.ID(), []byte{1, 2, 3}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	drain(e)
	if deliveredAt == 0 {
		t.Fatal("frame not delivered")
	}
	m := n.Model()
	// Delivery must be at least driver + wire time after the send.
	min := m.SendDriver + m.FrameTime(3)
	if deliveredAt < min {
		t.Fatalf("delivered at %v, want ≥ %v", deliveredAt, min)
	}
}

func TestChargeExtendsStationClock(t *testing.T) {
	e, n := newNet(t)
	s := n.AttachStation("s")
	e.After(0, func() {
		before := s.Now()
		s.Charge(cost.GroupIn, 0)
		after := s.Now()
		if after <= before {
			t.Error("Charge did not advance station clock")
		}
		if got := after - before; got != n.Model().GroupIn {
			t.Errorf("charge = %v, want %v", got, n.Model().GroupIn)
		}
	})
	drain(e)
	if s.CPUBusy() != n.Model().GroupIn {
		t.Fatalf("CPUBusy = %v", s.CPUBusy())
	}
}

func TestProtocolFactorScalesCharges(t *testing.T) {
	e := sim.NewEngine(1)
	m := DefaultCostModel()
	m.ProtocolFactor = 2.0
	n := New(e, m)
	s := n.AttachStation("s")
	s.Charge(cost.GroupIn, 0)
	if s.CPUBusy() != 2*DefaultCostModel().GroupIn {
		t.Fatalf("CPUBusy = %v, want doubled GroupIn", s.CPUBusy())
	}
	// User-layer costs are not scaled: they are context switches, not
	// protocol processing.
	s2 := n.AttachStation("s2")
	s2.Charge(cost.UserSend, 0)
	if s2.CPUBusy() != DefaultCostModel().UserSend {
		t.Fatalf("UserSend scaled: %v", s2.CPUBusy())
	}
}

func TestCPUSerializesFrameProcessing(t *testing.T) {
	e, n := newNet(t)
	a := n.AttachStation("a")
	b := n.AttachStation("b")
	var times []time.Duration
	b.SetHandler(func(f netw.Frame) {
		b.Charge(cost.GroupIn, 0) // heavy per-frame processing
		times = append(times, b.Now())
	})
	e.After(0, func() {
		for i := 0; i < 5; i++ {
			_ = a.Send(b.ID(), []byte{byte(i)})
		}
	})
	drain(e)
	if len(times) != 5 {
		t.Fatalf("processed %d frames, want 5", len(times))
	}
	m := n.Model()
	perFrame := m.RecvInterrupt + m.RecvDriver + m.RecvCopyPerByte + m.GroupIn
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < perFrame {
			t.Fatalf("frames %d,%d processed %v apart, want ≥ %v", i-1, i, gap, perFrame)
		}
	}
}

func TestRingOverflowDropsFrames(t *testing.T) {
	e := sim.NewEngine(1)
	m := DefaultCostModel()
	m.RingSize = 4
	// Make processing very slow so the ring certainly fills.
	m.GroupIn = 50 * time.Millisecond
	n := New(e, m)
	a := n.AttachStation("a")
	b := n.AttachStation("b")
	received := 0
	b.SetHandler(func(netw.Frame) {
		b.Charge(cost.GroupIn, 0)
		received++
	})
	e.After(0, func() {
		for i := 0; i < 20; i++ {
			_ = a.Send(b.ID(), []byte{byte(i)})
		}
	})
	drain(e)
	if b.RingDrops() == 0 {
		t.Fatal("expected ring drops")
	}
	if received+int(b.RingDrops()) != 20 {
		t.Fatalf("received %d + dropped %d != 20", received, b.RingDrops())
	}
}

func TestMulticastOnlySubscribersInterrupted(t *testing.T) {
	e, n := newNet(t)
	src := n.AttachStation("src")
	sub := n.AttachStation("sub")
	non := n.AttachStation("non")
	got := map[netw.NodeID]int{}
	handler := func(id netw.NodeID) netw.Handler {
		return func(netw.Frame) { got[id]++ }
	}
	sub.SetHandler(handler(sub.ID()))
	non.SetHandler(handler(non.ID()))
	const ch netw.ChannelID = 5
	sub.Subscribe(ch)
	src.Subscribe(ch) // sender never hears its own multicast

	e.After(0, func() { _ = src.Multicast(ch, []byte("x")) })
	drain(e)
	if got[sub.ID()] != 1 {
		t.Fatalf("subscriber got %d frames, want 1", got[sub.ID()])
	}
	if got[non.ID()] != 0 {
		t.Fatal("non-subscriber was interrupted")
	}
	if non.Interrupts() != 0 {
		t.Fatal("non-subscriber counted an interrupt")
	}
}

func TestCollisionsOccurWithConcurrentSenders(t *testing.T) {
	e, n := newNet(t)
	const stations = 10
	recv := n.AttachStation("recv")
	recv.SetHandler(func(netw.Frame) {})
	var senders []*Station
	for i := 0; i < stations; i++ {
		s := n.AttachStation("s")
		s.SetHandler(func(netw.Frame) {})
		senders = append(senders, s)
	}
	// Everyone transmits a burst starting at the same instant.
	e.After(0, func() {
		for _, s := range senders {
			for j := 0; j < 20; j++ {
				_ = s.Send(recv.ID(), make([]byte, 100))
			}
		}
	})
	drain(e)
	if n.Collisions() == 0 {
		t.Fatal("no collisions with 10 simultaneous senders")
	}
	// Every frame is accounted for: delivered, dropped at the ring, or
	// aborted after excessive collisions.
	total := recv.Interrupts() + recv.RingDrops() + n.AbortedFrames()
	if total != stations*20 {
		t.Fatalf("delivered %d + dropped %d + aborted %d, want %d",
			recv.Interrupts(), recv.RingDrops(), n.AbortedFrames(), stations*20)
	}
}

func TestUtilizationBounded(t *testing.T) {
	e, n := newNet(t)
	a := n.AttachStation("a")
	b := n.AttachStation("b")
	b.SetHandler(func(netw.Frame) {})
	e.After(0, func() {
		for i := 0; i < 100; i++ {
			_ = a.Send(b.ID(), make([]byte, 1000))
		}
	})
	drain(e)
	u := n.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, uint64) {
		e := sim.NewEngine(99)
		n := New(e, DefaultCostModel())
		recv := n.AttachStation("recv")
		recv.SetHandler(func(netw.Frame) { recv.Charge(cost.GroupIn, 0) })
		for i := 0; i < 6; i++ {
			s := n.AttachStation("s")
			s.SetHandler(func(netw.Frame) {})
			e.After(0, func() {
				for j := 0; j < 30; j++ {
					_ = s.Send(recv.ID(), make([]byte, 200))
				}
			})
		}
		drain(e)
		return e.Now(), n.Collisions()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, c1, t2, c2)
	}
}

func TestClosedStationStopsTraffic(t *testing.T) {
	e, n := newNet(t)
	a := n.AttachStation("a")
	b := n.AttachStation("b")
	delivered := 0
	b.SetHandler(func(netw.Frame) { delivered++ })
	e.After(0, func() {
		_ = b.Close()
		if err := b.Send(a.ID(), []byte("x")); err == nil {
			t.Error("send from closed station succeeded")
		}
		_ = a.Send(b.ID(), []byte("y"))
	})
	drain(e)
	if delivered != 0 {
		t.Fatal("closed station received a frame")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	e, n := newNet(t)
	a := n.AttachStation("a")
	_ = e
	if err := a.Send(1, make([]byte, netw.MTU+1)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestPerMemberSendCost(t *testing.T) {
	e, n := newNet(t)
	src := n.AttachStation("src")
	const ch netw.ChannelID = 2
	const members = 8
	for i := 0; i < members; i++ {
		s := n.AttachStation("m")
		s.SetHandler(func(netw.Frame) {})
		s.Subscribe(ch)
	}
	e.After(0, func() {
		busyBefore := src.CPUBusy()
		_ = src.Multicast(ch, []byte("x"))
		extra := src.CPUBusy() - busyBefore
		base := n.Model().SendDriver + 1*n.Model().SendCopyPerByte
		want := base + members*n.Model().PerMemberSend
		if extra != want {
			t.Errorf("multicast charged %v, want %v", extra, want)
		}
	})
	drain(e)
}

// Model returns the cost model in effect.
func (n *Network) Model() CostModel { return n.model }

// Collisions reports the number of collision events on the medium.
func (n *Network) Collisions() uint64 { return n.collisions }

// AbortedFrames reports frames abandoned after MaxAttempts collisions
// (Ethernet "excessive collision" aborts).
func (n *Network) AbortedFrames() uint64 { return n.abortedFrames }

// CPUBusy reports the total CPU time charged to this station.
func (s *Station) CPUBusy() time.Duration { return s.cpuBusy }

// drain runs the engine until its queue is empty.
func drain(e *sim.Engine) { e.RunWhile(func() bool { return true }) }
