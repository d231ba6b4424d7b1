// Package rpc implements Amoeba-style remote procedure call over FLIP: the
// point-to-point primitive the paper compares group communication against
// (§4: a null group send is about 0.1 ms faster than a null RPC on the same
// hardware).
//
// The protocol is the classic blocking request/reply: the client retransmits
// until a reply (or a server-side acknowledgement of a long-running call)
// arrives — every RetryInterval after a call's last send, on one
// retransmission clock per client (a single timer armed for the earliest of
// its pending calls' deadlines, the way a group endpoint's send retry works).
// ForwardRequest — the Table 1 primitive that bounces a request to another
// group member — is supported by letting a handler return a forward address:
// the server hands the original request to the new destination, and the
// reply flows back to the client directly.
//
// A server executes at most once by default, as the paper's RPC does: it
// suppresses duplicate transaction ids and caches replies — the last
// replyCacheSize, keyed by (client, transaction), so pipelined calls from one
// client each keep their own at-most-once slot — for retransmission. The
// paper's experiments (internal/experiments) run such servers. A server
// configured Idempotent keeps no replies: its handlers give the same effect
// when they run again, so a retransmission that arrives after the reply runs
// the handler again, and exactly-once, where it is wanted, lives with the
// data (a kv shard deduplicates by client session). The public amoeba RPC
// servers are all of this kind.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/flip"
	"amoeba/internal/sim"
)

// HeaderSize is the RPC header added to every packet.
const HeaderSize = 20

type pktType uint8

const (
	ptRequest pktType = iota + 1
	ptReply
	ptForwarded // a request arriving via ForwardRequest; replyTo differs from src
)

// header layout (20 bytes):
//
//	off size field
//	0   1    type
//	1   3    reserved
//	4   4    transaction id
//	4   8    client address (reply destination)
//	12  8    (forwarded requests) original client address
type header struct {
	typ     pktType
	txn     uint32
	replyTo flip.Address
}

func encode(h header, payload []byte) []byte {
	buf := make([]byte, HeaderSize+len(payload))
	putHeader(buf, h)
	copy(buf[HeaderSize:], payload)
	return buf
}

// putHeader writes h over the first HeaderSize bytes of buf.
func putHeader(buf []byte, h header) {
	clear(buf[:HeaderSize])
	buf[0] = byte(h.typ)
	binary.BigEndian.PutUint32(buf[4:], h.txn)
	binary.BigEndian.PutUint64(buf[12:], uint64(h.replyTo))
}

var errShort = errors.New("rpc: packet shorter than header")

// EncodeRequest renders a raw request packet. It exists for simulation
// harnesses that drive the client wire protocol from a discrete-event loop
// (where the blocking CallContext cannot run); ordinary users call
// Client.CallContext.
func EncodeRequest(txn uint32, replyTo flip.Address, payload []byte) []byte {
	return encode(header{typ: ptRequest, txn: txn, replyTo: replyTo}, payload)
}

// DecodeReply parses a raw reply packet, returning its transaction id and
// payload. The counterpart of EncodeRequest for simulation harnesses.
func DecodeReply(buf []byte) (uint32, []byte, bool) {
	h, payload, err := decode(buf)
	if err != nil || h.typ != ptReply {
		return 0, nil, false
	}
	return h.txn, payload, true
}

func decode(buf []byte) (header, []byte, error) {
	if len(buf) < HeaderSize {
		return header{}, nil, errShort
	}
	return header{
		typ:     pktType(buf[0]),
		txn:     binary.BigEndian.Uint32(buf[4:]),
		replyTo: flip.Address(binary.BigEndian.Uint64(buf[12:])),
	}, buf[HeaderSize:], nil
}

// Errors surfaced by the RPC layer.
var (
	// ErrTimeout reports exhausted client retransmissions.
	ErrTimeout = errors.New("rpc: request timed out")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("rpc: endpoint closed")
)

// Handler serves one request. req is the handler's own copy of the request
// body, to keep or alias as it likes. Returning a non-zero forward address
// instead of a reply hands the request to that server (the ForwardRequest
// primitive); the reply then reaches the client from wherever the request
// lands. When
// forwarding, a non-nil reply REPLACES the request payload — the handler may
// rewrite the request before handing it on (e.g. to stamp an already-forwarded
// marker); a nil reply forwards the original bytes unchanged.
type Handler func(req []byte) (reply []byte, forward flip.Address)

// Config assembles a Client or Server.
type Config struct {
	// Stack is the FLIP stack to run over. Required.
	Stack *flip.Stack
	// Clock drives retransmission timers. Required.
	Clock sim.Clock
	// Meter accounts per-layer processing; nil disables.
	Meter cost.Meter
	// RetryInterval spaces client retransmissions (default 50 ms): a call
	// unanswered RetryInterval after its last send is sent again. One timer
	// per client serves all its calls, armed for the earliest such deadline.
	RetryInterval time.Duration
	// MaxRetries bounds them (default 10).
	MaxRetries int
	// Concurrent makes a Server run request handlers on worker goroutines,
	// started as requests need them, so handlers may block — perform group
	// sends, wait on other RPCs — without stalling the stack's delivery
	// goroutine (which would deadlock a handler that needs inbound packets
	// to make progress). Duplicate requests arriving while a handler runs
	// are dropped; the client's retransmissions are answered once the
	// handler completes.
	Concurrent bool
	// Idempotent makes a Server keep no reply cache, for handlers that give
	// the same effect when they run again: a retransmission that arrives
	// after the reply was sent runs the handler again, and its reply is the
	// one the client takes if the first was lost. Without it the server
	// executes each (client, transaction) at most once and answers a late
	// retransmission from the cache.
	Idempotent bool
}

const (
	// maxConcurrent bounds a Concurrent server's workers. A request that
	// finds all of them busy is shed, and the client's retransmission
	// offers it again.
	maxConcurrent = 64
	// replyCacheSize bounds the at-most-once reply cache (a server that is
	// not Idempotent): a new (client, transaction) overwrites the oldest.
	replyCacheSize = 1024
)

func (c *Config) applyDefaults() {
	if c.Meter == nil {
		c.Meter = cost.NopMeter{}
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 50 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
}

// Client issues blocking RPCs from its own FLIP address.
type Client struct {
	cfg  Config
	addr flip.Address
	tick func() // c.retransmit, made once: the retransmission clock's callback

	mu      sync.Mutex
	closed  bool
	nextTxn uint32
	pending map[uint32]*call
	// The retransmission clock. Each pending call is due at its deadline,
	// and timer is armed whenever a call is pending, to fire at or before
	// the earliest deadline: a call's deadline is its send plus
	// RetryInterval, so none comes before the one the timer was armed for.
	// It is not stopped when calls complete; a firing that finds nothing due
	// re-arms for what is pending, or for nothing. A busy client thus starts
	// one timer per RetryInterval, not one per call.
	timer sim.Timer
}

// call is one pending transaction. Calls are recycled (calls): once its
// caller has the result, nothing else holds one.
type call struct {
	done     chan callResult // buffered: whoever removes the call from pending sends once
	deadline time.Duration   // when the call is next retransmitted
	tries    int
	dst      flip.Address
	pkt      []byte
}

var calls = sync.Pool{New: func() any { return &call{done: make(chan callResult, 1)} }}

type callResult struct {
	payload []byte
	err     error
}

// NewClient registers a fresh client address on the stack.
func NewClient(cfg Config) (*Client, error) {
	if cfg.Stack == nil || cfg.Clock == nil {
		return nil, errors.New("rpc: Stack and Clock are required")
	}
	cfg.applyDefaults()
	c := &Client{cfg: cfg, addr: cfg.Stack.AllocAddress(), pending: make(map[uint32]*call)}
	c.tick = c.retransmit
	cfg.Stack.Register(c.addr, c.onMessage)
	return c, nil
}

// Close releases the client address. In-flight calls fail with ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pend := c.pending
	c.pending = map[uint32]*call{}
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
	c.cfg.Stack.Unregister(c.addr)
	for _, cl := range pend {
		cl.done <- callResult{err: ErrClosed}
	}
}

// CallContext performs a blocking RPC bounded by ctx: when ctx expires
// mid-call the pending transaction is withdrawn — it is retransmitted no more
// and no goroutine lingers — and ctx's error is returned. A reply that raced
// the cancellation is returned instead.
func (c *Client) CallContext(ctx context.Context, dst flip.Address, req []byte) ([]byte, error) {
	pkt := make([]byte, HeaderSize+len(req))
	copy(pkt[HeaderSize:], req)
	return c.CallPacket(ctx, dst, pkt)
}

// CallPacket is CallContext for a request spelled behind HeaderSize bytes of
// room at the front of pkt: the client writes its header there, so the
// request is sent without a copy into a packet of the client's own. pkt is
// the client's from the call on — a retransmission may still be reading it
// as the call returns.
func (c *Client) CallPacket(ctx context.Context, dst flip.Address, pkt []byte) ([]byte, error) {
	if len(pkt) < HeaderSize {
		return nil, errShort
	}
	c.cfg.Meter.Charge(cost.UserSend, len(pkt)-HeaderSize)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextTxn++
	txn := c.nextTxn
	putHeader(pkt, header{typ: ptRequest, txn: txn, replyTo: c.addr})
	cl := calls.Get().(*call)
	cl.dst, cl.pkt, cl.tries = dst, pkt, 0
	now := c.cfg.Clock.Now()
	cl.deadline = now + c.cfg.RetryInterval
	c.pending[txn] = cl
	c.armLocked(now, cl.deadline)
	c.mu.Unlock()

	c.transmit(dst, pkt)
	var res callResult
	select {
	case res = <-cl.done:
	case <-ctx.Done():
		c.mu.Lock()
		if _, ok := c.pending[txn]; ok {
			delete(c.pending, txn)
			c.mu.Unlock()
			res.err = ctx.Err()
			break
		}
		c.mu.Unlock()
		// The call resolved concurrently with the cancellation; the
		// result is already (or imminently) in the buffered channel.
		res = <-cl.done
	}
	cl.pkt = nil
	calls.Put(cl)
	return res.payload, res.err
}

func (c *Client) transmit(dst flip.Address, pkt []byte) {
	c.cfg.Meter.Charge(cost.GroupOut, 0) // RPC shares the top protocol layer
	_ = c.cfg.Stack.Send(c.addr, dst, pkt)
}

// armLocked starts the retransmission clock for a deadline at, unless it
// runs: then it fires no later than at already.
func (c *Client) armLocked(now, at time.Duration) {
	if c.timer == nil {
		c.timer = c.cfg.Clock.AfterFunc(at-now, c.tick)
	}
}

// retransmit is the retransmission clock's timer. It sends every due call
// again, due next RetryInterval from now, fails a call out of retries with
// ErrTimeout, and re-arms for the earliest deadline still pending.
func (c *Client) retransmit() {
	type resend struct {
		dst    flip.Address
		pkt    []byte
		forget bool
	}
	var due []resend
	c.mu.Lock()
	c.timer = nil
	if c.closed {
		c.mu.Unlock()
		return
	}
	now := c.cfg.Clock.Now()
	var next time.Duration
	for txn, cl := range c.pending {
		if cl.deadline <= now {
			if cl.tries++; cl.tries > c.cfg.MaxRetries {
				delete(c.pending, txn)
				cl.done <- callResult{err: ErrTimeout}
				continue
			}
			cl.deadline = now + c.cfg.RetryInterval
			// Two silent rounds suggest a stale route rather than frame
			// loss: a well-known address served by several kernels may
			// have failed over, so drop the cached route and let the
			// retransmission re-locate a surviving server.
			due = append(due, resend{dst: cl.dst, pkt: cl.pkt, forget: cl.tries >= 2})
		}
		if next == 0 || cl.deadline < next {
			next = cl.deadline
		}
	}
	if next != 0 {
		c.armLocked(now, next)
	}
	c.mu.Unlock()
	for _, r := range due {
		if r.forget {
			c.cfg.Stack.Forget(r.dst)
		}
		c.transmit(r.dst, r.pkt)
	}
}

func (c *Client) onMessage(m flip.Message) {
	c.cfg.Meter.Charge(cost.CtrlIn, 0)
	h, payload, err := decode(m.Payload)
	if err != nil || h.typ != ptReply {
		return
	}
	c.mu.Lock()
	cl, ok := c.pending[h.txn]
	if !ok {
		c.mu.Unlock()
		return // duplicate reply
	}
	delete(c.pending, h.txn)
	c.mu.Unlock()
	c.cfg.Meter.Charge(cost.UserDeliver, len(payload))
	p := make([]byte, len(payload))
	copy(p, payload)
	cl.done <- callResult{payload: p}
}

// Server answers RPCs at a FLIP address.
type Server struct {
	cfg     Config
	addr    flip.Address
	handler Handler

	mu     sync.Mutex
	closed bool
	// Duplicate suppression and reply retransmission, unless Idempotent
	// (then replies is nil): the reply packet of each of the last
	// replyCacheSize transactions, keyed by (client, txn), so concurrent
	// transactions from one client each keep their own cached reply instead
	// of thrashing a single slot. ring holds the keys in the order they were
	// cached; next is the slot the next new key overwrites.
	replies map[inflightKey][]byte
	ring    []inflightKey
	next    int
	// Requests whose handler is still running (Concurrent mode):
	// retransmissions arriving meanwhile are dropped, not re-executed.
	inflight map[inflightKey]bool
	// Last forward per client: a retransmission that forwards to the same
	// destination again hints the forward route is stale.
	lastFwd map[flip.Address]forwardMark
	// Concurrent mode: a request goes to an idle worker through work, or
	// to a new worker while fewer than maxConcurrent run. A worker counts
	// as idle from the moment its handler returns, before its reply leaves,
	// so the client's next request finds it. work, made with the first
	// worker, holds a slot per worker, so handing a request to one never
	// blocks the delivery goroutine, and a request is put there only for a
	// worker that is idle.
	work    chan job
	workers int
	idle    int
}

type job struct {
	h       header
	client  flip.Address
	payload []byte
}

type inflightKey struct {
	client flip.Address
	txn    uint32
}

type forwardMark struct {
	txn uint32
	dst flip.Address
}

// cacheReplyLocked stores a reply packet under (client, txn), overwriting the
// oldest cached reply once the cache is full.
func (s *Server) cacheReplyLocked(key inflightKey, pkt []byte) {
	if _, ok := s.replies[key]; !ok {
		if len(s.ring) < replyCacheSize {
			s.ring = append(s.ring, key)
		} else {
			delete(s.replies, s.ring[s.next])
			s.ring[s.next] = key
			s.next = (s.next + 1) % replyCacheSize
		}
	}
	s.replies[key] = pkt
}

// NewServer registers addr (allocating one when zero) and serves requests
// with h. Without Concurrent, handlers run on the stack's delivery goroutine;
// they may perform their own sends but must not block indefinitely. With it,
// they run on workers the server starts as requests need them and keeps for
// later ones. Without Idempotent, the server runs h at most once per (client,
// transaction) and answers retransmissions from its reply cache.
func NewServer(cfg Config, addr flip.Address, h Handler) (*Server, error) {
	if cfg.Stack == nil || cfg.Clock == nil {
		return nil, errors.New("rpc: Stack and Clock are required")
	}
	if h == nil {
		return nil, errors.New("rpc: handler is required")
	}
	cfg.applyDefaults()
	if addr == 0 {
		addr = cfg.Stack.AllocAddress()
	}
	s := &Server{
		cfg:      cfg,
		addr:     addr,
		handler:  h,
		inflight: make(map[inflightKey]bool),
		lastFwd:  make(map[flip.Address]forwardMark),
	}
	if !cfg.Idempotent {
		s.replies = make(map[inflightKey][]byte)
	}
	cfg.Stack.Register(addr, s.onMessage)
	return s, nil
}

// worker serves j, then every request handed to it, until Close.
func (s *Server) worker(j job) {
	for ok := true; ok; j, ok = <-s.work {
		s.serve(j.h, j.client, j.payload)
	}
}

// Addr returns the server's FLIP address.
func (s *Server) Addr() flip.Address { return s.addr }

// Close stops serving. Each worker exits once its handler returns.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	work := s.work
	s.mu.Unlock()
	s.cfg.Stack.Unregister(s.addr)
	if work != nil {
		// Safe: hand-offs and worker starts happen under s.mu with the
		// closed flag checked, so no sender can race this close.
		close(work)
	}
}

func (s *Server) onMessage(m flip.Message) {
	s.cfg.Meter.Charge(cost.GroupIn, 0)
	h, payload, err := decode(m.Payload)
	if err != nil {
		return
	}
	if h.typ != ptRequest && h.typ != ptForwarded {
		return
	}
	client := h.replyTo
	key := inflightKey{client: client, txn: h.txn}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if pkt, ok := s.replies[key]; ok {
		// Duplicate request: retransmit the cached reply. (An Idempotent
		// server's nil map holds none: the handler runs again.)
		s.mu.Unlock()
		if pkt != nil {
			_ = s.cfg.Stack.Send(s.addr, client, pkt)
		}
		return
	}
	if s.cfg.Concurrent && s.inflight[key] {
		s.mu.Unlock()
		return // handler already running; its reply is on the way
	}
	// The request outlives this upcall from here on — handed to a worker,
	// or to application code that may keep it — and m.Payload is only
	// borrowed (flip.Message): this is the RPC server's one copy.
	// Duplicates answered from the cache above never pay it.
	payload = append([]byte(nil), payload...)
	if s.cfg.Concurrent {
		j := job{h: h, client: client, payload: payload}
		switch {
		case s.idle > 0:
			s.idle--
			s.inflight[key] = true
			s.work <- j
		case s.workers < maxConcurrent:
			if s.work == nil {
				s.work = make(chan job, maxConcurrent)
			}
			s.workers++
			s.inflight[key] = true
			go s.worker(j)
		default:
			// Every worker is busy: shed the request; the client's
			// retransmission will offer it again.
		}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.serve(h, client, payload)
}

// serve runs the handler for one request and transmits the reply or the
// forward. In Concurrent mode it runs on a worker; otherwise on the stack's
// delivery goroutine.
func (s *Server) serve(h header, client flip.Address, payload []byte) {
	// The handler is user code: waking the server thread is part of the
	// RPC's cost — the hop a kernel-resident group sequencer does not pay
	// (§4's explanation for group sends beating RPC). The reply needs no
	// second context switch; the server thread is already running.
	s.cfg.Meter.Charge(cost.UserDeliver, len(payload))
	reply, forward := s.handler(payload)
	if forward != 0 {
		// ForwardRequest: hand the request to another server; the reply
		// goes straight back to the client from there. A non-nil reply is
		// the handler's rewritten request body.
		body := payload
		if reply != nil {
			body = reply
		}
		s.mu.Lock()
		if prev, ok := s.lastFwd[client]; ok && prev.txn == h.txn && prev.dst == forward {
			// Re-forwarding the same transaction to the same place: the
			// client retransmitted because no reply came, so the cached
			// route to the forward target is suspect. Re-locate it.
			s.cfg.Stack.Forget(forward)
		}
		if len(s.lastFwd) > 1024 {
			s.lastFwd = make(map[flip.Address]forwardMark)
		}
		s.lastFwd[client] = forwardMark{txn: h.txn, dst: forward}
		s.finishLocked(inflightKey{client: client, txn: h.txn})
		s.mu.Unlock()
		fwd := encode(header{typ: ptForwarded, txn: h.txn, replyTo: client}, body)
		_ = s.cfg.Stack.Send(s.addr, forward, fwd)
		return
	}
	pkt := encode(header{typ: ptReply, txn: h.txn, replyTo: s.addr}, reply)
	s.mu.Lock()
	key := inflightKey{client: client, txn: h.txn}
	if s.replies != nil {
		s.cacheReplyLocked(key, pkt)
	}
	s.finishLocked(key)
	s.mu.Unlock()
	s.cfg.Meter.Charge(cost.GroupOut, 0)
	_ = s.cfg.Stack.Send(s.addr, client, pkt)
}

// finishLocked ends key's execution. On a Concurrent server it also counts
// the worker that ran it idle.
func (s *Server) finishLocked(key inflightKey) {
	delete(s.inflight, key)
	if s.cfg.Concurrent {
		s.idle++
	}
}
