// Package memnet implements netw.Network with goroutines and channels.
//
// memnet is the "real" transport used by tests, examples, and native
// benchmarks: frames move between stations through buffered channels and each
// station delivers inbound frames serially from its own goroutine, modelling
// a NIC interrupt handler. Delivery is FIFO per (sender, receiver) pair and
// unreliable: a full receive ring drops frames, and the network can inject
// drops, duplicates, and corruption deterministically from a seed, which the
// protocol test suites use to exercise recovery paths.
package memnet

import (
	"fmt"
	"math/rand"
	"sync"

	"amoeba/internal/bufpool"
	"amoeba/internal/netw"
)

// Config controls fault injection and buffering for a Network.
type Config struct {
	// DropRate is the probability in [0,1) that any frame is silently
	// discarded in transit.
	DropRate float64
	// DuplicateRate is the probability that a delivered frame is delivered
	// twice.
	DuplicateRate float64
	// ReorderRate is the probability that a frame is held back and
	// delivered after the next frame bound for the same station: the
	// pairwise swap real switches and retransmission races produce.
	// A held frame with no successor is released when the rate is set
	// back to zero (or the station closes).
	ReorderRate float64
	// CorruptRate is the probability that a delivered frame has one byte
	// flipped. Corruption is detected by the FLIP checksum, so corrupted
	// frames exercise the "garbled message" recovery path.
	CorruptRate float64
	// RingSize is each station's receive buffer in frames. Frames arriving
	// at a full ring are dropped, as on the paper's Lance interfaces.
	// Defaults to 1024; the simulator uses the paper's 32.
	RingSize int
	// Seed drives the fault-injection randomness. All fault decisions are
	// drawn from one seeded source under the network lock, so a fixed seed
	// and a fixed transmit sequence produce identical faults — the
	// reproducibility the fuzz harness's schedules rely on.
	Seed int64
}

// Network is an in-memory netw.Network.
type Network struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	stations []*station
	isolated map[netw.NodeID]bool
	// cut holds pairwise partitions installed by Partition: frames between
	// the two stations (either direction) are silently dropped.
	cut     map[[2]netw.NodeID]bool
	dropped uint64
}

var _ netw.Network = (*Network)(nil)

// New returns a Network with the given fault-injection configuration.
func New(cfg Config) *Network {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	return &Network{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		isolated: make(map[netw.NodeID]bool),
		cut:      make(map[[2]netw.NodeID]bool),
	}
}

// Isolate partitions a station from the network: frames to and from it are
// silently dropped, modelling a cable pull or a partition. Unlike closing
// the station, the victim keeps running and can be Rejoined.
func (n *Network) Isolate(id netw.NodeID, partitioned bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if partitioned {
		n.isolated[id] = true
	} else {
		delete(n.isolated, id)
	}
}

// cutKey orders a station pair canonically.
func cutKey(a, b netw.NodeID) [2]netw.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]netw.NodeID{a, b}
}

// Partition cuts the link between two stations: frames between them, in
// either direction, are silently dropped until Heal. Unlike Isolate, both
// stations keep talking to everyone else — the asymmetric split that drives
// a group's members to conflicting failure suspicions.
func (n *Network) Partition(a, b netw.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[cutKey(a, b)] = true
}

// Heal removes every pairwise partition installed by Partition (isolations
// installed by Isolate are independent and stay).
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[[2]netw.NodeID]bool)
}

// SetDropRate changes the frame-loss probability at runtime.
func (n *Network) SetDropRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DropRate = p
}

// SetDuplicateRate changes the frame-duplication probability at runtime.
func (n *Network) SetDuplicateRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DuplicateRate = p
}

// SetReorderRate changes the frame-reordering probability at runtime.
// Setting it to zero releases any frames still held back for a swap.
func (n *Network) SetReorderRate(p float64) {
	n.mu.Lock()
	n.cfg.ReorderRate = p
	var flush []*station
	if p <= 0 {
		for _, s := range n.stations {
			if s.held != nil {
				flush = append(flush, s)
			}
		}
	}
	n.mu.Unlock()
	for _, s := range flush {
		n.mu.Lock()
		f := s.held
		s.held = nil
		n.mu.Unlock()
		if f != nil {
			n.enqueue(s, *f, 1)
		}
	}
}

// NewReliable returns a Network that never drops, duplicates, or corrupts
// frames (beyond receive-ring overflow, which the large default ring makes
// unlikely).
func NewReliable() *Network { return New(Config{}) }

// Dropped reports the number of frames discarded so far, from both fault
// injection and ring overflow.
func (n *Network) Dropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Attach creates a new station on the network.
func (n *Network) Attach(name string) (netw.Station, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := &station{
		net:  n,
		id:   netw.NodeID(len(n.stations)),
		ring: make(chan netw.Frame, n.cfg.RingSize),
		subs: make(map[netw.ChannelID]bool),
		done: make(chan struct{}),
	}
	n.stations = append(n.stations, s)
	s.wg.Add(1)
	go s.deliverLoop()
	return s, nil
}

// Close detaches every station and waits for their delivery goroutines.
func (n *Network) Close() {
	n.mu.Lock()
	stations := make([]*station, len(n.stations))
	copy(stations, n.stations)
	n.mu.Unlock()
	for _, s := range stations {
		_ = s.Close()
	}
}

// target is one station a transmit delivers to, with the frame a reorder hold
// was keeping back for it, if any: released now, behind the new frame.
type target struct {
	s        *station
	released *netw.Frame
}

// transmit routes one frame, applying fault injection. The payload is the
// sender's and is only read: every receiver gets its own copy (enqueue).
func (n *Network) transmit(f netw.Frame) {
	n.mu.Lock()
	if n.isolated[f.Src] {
		n.dropped++
		n.mu.Unlock()
		return
	}
	if n.roll(n.cfg.DropRate) {
		n.dropped++
		n.mu.Unlock()
		return
	}
	copies := 1
	if n.roll(n.cfg.DuplicateRate) {
		copies = 2
	}
	corrupt := n.roll(n.cfg.CorruptRate)
	// The plan lives on the stack for the group sizes the stack runs; a
	// multicast to more than eight receivers spills to the heap.
	var planArr [8]target
	plan := planArr[:0]
	// Reorder decisions draw once per target while the lock still
	// serialises the rng, keeping the draw sequence a pure function of the
	// transmit sequence. A held-back frame is released behind the next
	// frame bound for the same station — the pairwise swap.
	route := func(s *station) {
		if prev := s.held; prev != nil {
			s.held = nil
			plan = append(plan, target{s: s, released: prev})
		} else if n.roll(n.cfg.ReorderRate) {
			held := f
			held.Payload = append([]byte(nil), f.Payload...)
			s.held = &held
		} else {
			plan = append(plan, target{s: s})
		}
	}
	if f.Dst == netw.Broadcast {
		for _, s := range n.stations {
			if s.id == f.Src || n.isolated[s.id] || n.cut[cutKey(f.Src, s.id)] {
				continue
			}
			s.mu.Lock()
			subscribed := !s.closed && s.subs[f.Channel]
			s.mu.Unlock()
			if subscribed {
				route(s)
			}
		}
	} else if int(f.Dst) < len(n.stations) && f.Dst >= 0 && !n.isolated[f.Dst] && !n.cut[cutKey(f.Src, f.Dst)] {
		route(n.stations[f.Dst])
	}
	n.mu.Unlock()

	if corrupt && len(f.Payload) > 0 {
		// Flip one bit of a copy, so the sender's buffer — and any frame
		// just held back, or released now — keeps the original bytes.
		b := make([]byte, len(f.Payload))
		copy(b, f.Payload)
		n.mu.Lock()
		i := n.rng.Intn(len(b))
		n.mu.Unlock()
		b[i] ^= 0x40
		f.Payload = b
	}

	for _, t := range plan {
		n.enqueue(t.s, f, copies)
		if t.released != nil {
			n.enqueue(t.s, *t.released, copies)
		}
	}
}

// enqueue delivers one frame to a station's receive ring, copies times,
// dropping on overflow. This is the fabric's one copy: each receiver's bytes
// live in a pooled ring buffer that is the station's until its handler returns.
func (n *Network) enqueue(s *station, f netw.Frame, copies int) {
	for c := 0; c < copies; c++ {
		dup := f
		dup.Payload = bufpool.Get(len(f.Payload))
		copy(dup.Payload, f.Payload)
		select {
		case s.ring <- dup:
		default: // receive ring overflow: drop, as the Lance does
			bufpool.Put(dup.Payload)
			n.mu.Lock()
			n.dropped++
			n.mu.Unlock()
		}
	}
}

// roll must be called with n.mu held.
func (n *Network) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return n.rng.Float64() < p
}

type station struct {
	net  *Network
	id   netw.NodeID
	ring chan netw.Frame // payloads are pooled buffers, put back by deliverLoop
	done chan struct{}
	wg   sync.WaitGroup
	// held is a frame delayed by ReorderRate, waiting for the next frame
	// bound for this station to swap behind. Guarded by net.mu.
	held *netw.Frame

	mu      sync.Mutex
	handler netw.Handler
	subs    map[netw.ChannelID]bool
	closed  bool
}

var _ netw.Station = (*station)(nil)

func (s *station) ID() netw.NodeID { return s.id }

func (s *station) SetHandler(h netw.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

func (s *station) Subscribe(ch netw.ChannelID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[ch] = true
}

func (s *station) Unsubscribe(ch netw.ChannelID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, ch)
}

func (s *station) Send(dst netw.NodeID, payload []byte) error {
	if err := s.checkSend(payload); err != nil {
		return err
	}
	s.net.transmit(netw.Frame{Src: s.id, Dst: dst, Payload: payload})
	return nil
}

func (s *station) Multicast(ch netw.ChannelID, payload []byte) error {
	if err := s.checkSend(payload); err != nil {
		return err
	}
	s.net.transmit(netw.Frame{Src: s.id, Dst: netw.Broadcast, Channel: ch, Payload: payload})
	return nil
}

func (s *station) checkSend(payload []byte) error {
	if len(payload) > netw.MTU {
		return fmt.Errorf("%w: %d bytes", netw.ErrFrameTooLarge, len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return netw.ErrClosed
	}
	return nil
}

func (s *station) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	return nil
}

func (s *station) deliverLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			// Give back what the ring still holds; frames sent to a
			// closed station afterwards are left to the collector.
			for {
				select {
				case f := <-s.ring:
					bufpool.Put(f.Payload)
				default:
					return
				}
			}
		case f := <-s.ring:
			s.mu.Lock()
			h := s.handler
			closed := s.closed
			s.mu.Unlock()
			if h != nil && !closed {
				h(f)
			}
			// The handler only borrowed the payload.
			bufpool.Put(f.Payload)
		}
	}
}
