// Package netsim implements netw.Network as a deterministic discrete-event
// model of the paper's experimental substrate: a single 10 Mbit/s Ethernet
// segment with CSMA/CD contention, Lance-style network interfaces with a
// 32-frame receive ring, and single-CPU stations whose per-layer processing
// costs follow the paper's Table 3 breakdown for a 20-MHz MC68030.
//
// Protocol code runs unmodified on top: frame handlers and timers execute on
// the simulation goroutine, and the layers charge their processing time
// through the cost.Meter interface, so a station's CPU is genuinely busy
// while it processes a message. That serialisation is what reproduces the
// paper's sequencer-bound throughput ceiling, the receive-ring overflow
// collapse for large messages, and the collision-driven decline with many
// parallel groups.
package netsim

import (
	"fmt"
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/netw"
	"amoeba/internal/sim"
)

// Network is a simulated Ethernet segment.
type Network struct {
	engine   *sim.Engine
	model    CostModel
	stations []*Station

	// Medium state (CSMA/CD).
	busyUntil time.Duration // carrier present until
	active    []*txAttempt  // transmissions in flight (≥2 ⇒ collision)
	txDone    *sim.Event    // completion event of the active transmission

	// Statistics.
	collisions    uint64
	wireBusy      time.Duration
	abortedFrames uint64
}

var _ netw.Network = (*Network)(nil)

type txAttempt struct {
	station  *Station
	frame    netw.Frame
	start    time.Duration
	attempts int
}

// New returns a Network driven by engine under the given cost model.
func New(engine *sim.Engine, model CostModel) *Network {
	return &Network{engine: engine, model: model}
}

// Engine returns the driving simulation engine.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Model returns the cost model in effect.
func (n *Network) Model() CostModel { return n.model }

// Collisions reports the number of collision events on the medium.
func (n *Network) Collisions() uint64 { return n.collisions }

// Utilization reports the fraction of elapsed virtual time the medium
// carried a successful frame.
func (n *Network) Utilization() float64 {
	if n.engine.Now() == 0 {
		return 0
	}
	return float64(n.wireBusy) / float64(n.engine.Now())
}

// AbortedFrames reports frames abandoned after MaxAttempts collisions
// (Ethernet "excessive collision" aborts).
func (n *Network) AbortedFrames() uint64 { return n.abortedFrames }

// Attach implements netw.Network.
func (n *Network) Attach(name string) (netw.Station, error) {
	return n.AttachStation(name), nil
}

// AttachStation creates a station and returns its concrete type, giving
// experiments access to per-station statistics and the virtual CPU clock.
func (n *Network) AttachStation(name string) *Station {
	s := &Station{
		net:  n,
		id:   netw.NodeID(len(n.stations)),
		name: name,
		subs: make(map[netw.ChannelID]bool),
	}
	n.stations = append(n.stations, s)
	return s
}

// send enqueues a frame on the station's transmit queue. Like a real NIC,
// each station contends for the medium with one frame at a time; the rest
// wait in FIFO order. readyAt is the sender CPU time when the frame reaches
// the NIC.
func (n *Network) send(s *Station, f netw.Frame, readyAt time.Duration) {
	at := &txAttempt{station: s, frame: f, start: readyAt}
	s.txq = append(s.txq, at)
	if len(s.txq) == 1 {
		n.engine.At(readyAt, func() { n.attempt(at) })
	}
}

// txNext starts the station's next queued frame after the current one ends.
func (n *Network) txNext(s *Station) {
	s.txq = s.txq[1:]
	if len(s.txq) == 0 {
		return
	}
	next := s.txq[0]
	at := next.start // NIC-ready time
	if now := n.engine.Now(); at < now {
		at = now
	}
	n.engine.At(at, func() { n.attempt(next) })
}

// attempt runs CSMA/CD carrier sense for one queued frame.
func (n *Network) attempt(at *txAttempt) {
	now := n.engine.Now()
	if len(n.active) > 0 {
		head := n.active[0]
		if now < head.start+n.model.CollisionWindow && head.station != at.station {
			// Within the vulnerable window of an in-progress
			// transmission — the carrier has not propagated yet:
			// collision.
			n.collide(at, now)
			return
		}
		// Carrier sensed: defer until the medium goes idle, with a
		// little per-station skew so boundary pile-ups usually
		// serialise (and occasionally still collide).
		n.engine.At(n.deferTime(at), func() { n.attempt(at) })
		return
	}
	if now < n.busyUntil {
		// Inter-frame gap or jam residue.
		n.engine.At(n.deferTime(at), func() { n.attempt(at) })
		return
	}
	// Medium idle: start transmitting.
	at.start = now
	n.active = append(n.active, at)
	ft := n.model.FrameTime(len(at.frame.Payload))
	n.busyUntil = now + ft + n.model.InterFrameGap
	n.txDone = n.engine.At(now+ft, func() { n.complete(at, ft) })
}

// deferTime is the moment a deferring frame re-attempts: end of the busy
// period plus sensing skew. The skew window widens linearly with the frame's
// collision history, preserving some of the separation binary exponential
// backoff established — without any widening, every deferral would collapse
// contenders back onto the same boundary instant and collision chains would
// run to the 16-attempt abort under synchronized bursts; exponential widening
// would let a busy station capture the medium and starve collided peers.
func (n *Network) deferTime(at *txAttempt) time.Duration {
	jitter := time.Duration(0)
	if n.model.DeferJitter > 0 {
		mult := 1 + at.attempts
		if mult > 8 {
			mult = 8
		}
		window := time.Duration(mult) * n.model.DeferJitter
		jitter = time.Duration(n.engine.Rand().Int63n(int64(window)))
	}
	return n.busyUntil + jitter
}

// collide aborts the in-flight transmission(s) and backs everyone off.
func (n *Network) collide(at *txAttempt, now time.Duration) {
	n.collisions++
	jamEnd := now + n.model.SlotTime
	if n.busyUntil < jamEnd {
		n.busyUntil = jamEnd
	}
	if n.txDone != nil {
		n.txDone.Stop()
		n.txDone = nil
	}
	victims := append(n.active, at)
	n.active = nil
	for _, v := range victims {
		v.attempts++
		if v.attempts >= n.model.MaxAttempts {
			// Excessive collisions: the frame is dropped and the
			// station moves on to its next one.
			n.abortedFrames++
			n.txNext(v.station)
			continue
		}
		exp := v.attempts
		if exp > n.model.MaxBackoffExp {
			exp = n.model.MaxBackoffExp
		}
		slots := n.engine.Rand().Intn(1 << exp)
		retry := jamEnd + time.Duration(slots)*n.model.SlotTime
		v := v
		n.engine.At(retry, func() { n.attempt(v) })
	}
}

// complete delivers a successfully transmitted frame.
func (n *Network) complete(at *txAttempt, ft time.Duration) {
	n.active = nil
	n.txDone = nil
	n.txNext(at.station)
	n.wireBusy += ft

	f := at.frame
	if f.Dst == netw.Broadcast {
		for _, s := range n.stations {
			if s.id == f.Src || s.closed || !s.subs[f.Channel] {
				continue
			}
			s.receive(f)
		}
		return
	}
	if int(f.Dst) >= 0 && int(f.Dst) < len(n.stations) {
		dst := n.stations[f.Dst]
		if !dst.closed {
			dst.receive(f)
		}
	}
}

// Station is one simulated machine: a Lance NIC plus a single CPU.
type Station struct {
	net     *Network
	id      netw.NodeID
	name    string
	handler netw.Handler
	subs    map[netw.ChannelID]bool
	closed  bool

	// CPU: busy until cpuFree; frames queue in the receive ring while the
	// CPU works.
	cpuFree    time.Duration
	ring       []netw.Frame
	processing bool

	// Transmit queue: the NIC contends for the medium with the head
	// frame only.
	txq []*txAttempt

	// Statistics.
	framesIn   uint64
	framesOut  uint64
	interrupts uint64
	ringDrops  uint64
	cpuBusy    time.Duration
}

var (
	_ netw.Station = (*Station)(nil)
	_ cost.Meter   = (*Station)(nil)
)

// ID implements netw.Station.
func (s *Station) ID() netw.NodeID { return s.id }

// SetHandler implements netw.Station.
func (s *Station) SetHandler(h netw.Handler) { s.handler = h }

// Subscribe implements netw.Station.
func (s *Station) Subscribe(ch netw.ChannelID) { s.subs[ch] = true }

// Unsubscribe implements netw.Station.
func (s *Station) Unsubscribe(ch netw.ChannelID) { delete(s.subs, ch) }

// Now returns the station's effective virtual time: the engine clock, pushed
// forward by any processing charged during the current event. Measurements
// of protocol completion must use this clock so that charged CPU time is
// visible in delays.
func (s *Station) Now() time.Duration {
	if s.cpuFree > s.net.engine.Now() {
		return s.cpuFree
	}
	return s.net.engine.Now()
}

// Charge implements cost.Meter: protocol layers account their processing
// here, extending the station's CPU busy period.
func (s *Station) Charge(k cost.Kind, bytes int) {
	s.charge(s.net.model.chargeFor(k, bytes))
}

func (s *Station) charge(d time.Duration) {
	now := s.net.engine.Now()
	if s.cpuFree < now {
		s.cpuFree = now
	}
	s.cpuFree += d
	s.cpuBusy += d
}

// RingDrops reports frames lost to receive-ring overflow.
func (s *Station) RingDrops() uint64 { return s.ringDrops }

// Interrupts reports frames accepted into the receive ring (one interrupt
// each).
func (s *Station) Interrupts() uint64 { return s.interrupts }

// FramesOut reports frames this station put on the wire.
func (s *Station) FramesOut() uint64 { return s.framesOut }

// CPUBusy reports the total CPU time charged to this station.
func (s *Station) CPUBusy() time.Duration { return s.cpuBusy }

// Send implements netw.Station: charge the driver, then contend for the
// medium.
func (s *Station) Send(dst netw.NodeID, payload []byte) error {
	return s.transmit(netw.Frame{Src: s.id, Dst: dst, Payload: payload})
}

// Multicast implements netw.Station.
func (s *Station) Multicast(ch netw.ChannelID, payload []byte) error {
	// Setting up the Lance multicast send costs a little per destination
	// (the paper's ≈4 µs/member).
	nsubs := 0
	for _, o := range s.net.stations {
		if o.id != s.id && !o.closed && o.subs[ch] {
			nsubs++
		}
	}
	s.charge(time.Duration(nsubs) * s.net.model.PerMemberSend)
	return s.transmit(netw.Frame{Src: s.id, Dst: netw.Broadcast, Channel: ch, Payload: payload})
}

func (s *Station) transmit(f netw.Frame) error {
	if len(f.Payload) > netw.MTU {
		return fmt.Errorf("%w: %d bytes", netw.ErrFrameTooLarge, len(f.Payload))
	}
	if s.closed {
		return netw.ErrClosed
	}
	// The simulator owns frame buffers from here on; copy so protocol
	// buffer reuse cannot corrupt in-flight frames.
	p := make([]byte, len(f.Payload))
	copy(p, f.Payload)
	f.Payload = p

	s.charge(s.net.model.SendDriver + time.Duration(len(f.Payload))*s.net.model.SendCopyPerByte)
	s.framesOut++
	s.net.send(s, f, s.cpuFree)
	return nil
}

// Close implements netw.Station: the machine crashes. In-flight and queued
// frames are lost.
func (s *Station) Close() error {
	s.closed = true
	s.ring = nil
	return nil
}

// receive is called by the network when a frame arrives at the NIC.
func (s *Station) receive(f netw.Frame) {
	if len(s.ring) >= s.net.model.RingSize {
		// Lance overflow: silently dropped; the sender's protocol
		// timers will eventually notice.
		s.ringDrops++
		return
	}
	s.ring = append(s.ring, f)
	s.interrupts++
	s.framesIn++
	if !s.processing {
		s.processing = true
		s.scheduleProcess()
	}
}

func (s *Station) scheduleProcess() {
	at := s.net.engine.Now()
	if s.cpuFree > at {
		at = s.cpuFree
	}
	s.net.engine.At(at, s.processNext)
}

// processNext pops one frame from the ring and runs the full receive path:
// interrupt, driver, copy, then the protocol handler (which adds its own
// charges).
func (s *Station) processNext() {
	if s.closed || len(s.ring) == 0 {
		s.processing = false
		return
	}
	f := s.ring[0]
	s.ring = s.ring[1:]
	m := s.net.model
	s.charge(m.RecvInterrupt + m.RecvDriver + time.Duration(len(f.Payload))*m.RecvCopyPerByte)
	if s.handler != nil {
		s.handler(f)
	}
	if len(s.ring) > 0 {
		s.scheduleProcess()
		return
	}
	s.processing = false
}
