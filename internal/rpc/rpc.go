// Package rpc implements Amoeba-style remote procedure call over FLIP: the
// point-to-point primitive the paper compares group communication against
// (§4: a null group send is about 0.1 ms faster than a null RPC on the same
// hardware).
//
// The protocol is the classic blocking request/reply with at-most-once
// execution: the client retransmits until a reply (or a server-side
// acknowledgement of a long-running call) arrives; the server suppresses
// duplicate transaction ids and caches replies — an LRU keyed by (client,
// transaction), so pipelined calls from one client each keep their own
// at-most-once slot — for retransmission. ForwardRequest — the Table 1
// primitive that bounces a
// request to another group member — is supported by letting a handler return
// a forward address: the server hands the original request to the new
// destination, and the reply flows back to the client directly.
package rpc

import (
	"container/list"
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
	buf[0] = byte(h.typ)
	binary.BigEndian.PutUint32(buf[4:], h.txn)
	binary.BigEndian.PutUint64(buf[12:], uint64(h.replyTo))
	copy(buf[HeaderSize:], payload)
	return buf
}

var errShort = errors.New("rpc: packet shorter than header")

// EncodeRequest renders a raw request packet. It exists for simulation
// harnesses that drive the client wire protocol from a discrete-event loop
// (where the blocking Call cannot run); ordinary users call Client.Call.
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
	// RetryInterval spaces client retransmissions (default 50 ms).
	RetryInterval time.Duration
	// MaxRetries bounds them (default 10).
	MaxRetries int
	// Concurrent makes a Server run request handlers on a bounded worker
	// pool, so handlers may block — perform group sends, wait on other
	// RPCs — without stalling the stack's delivery goroutine (which would
	// deadlock a handler that needs inbound packets to make progress).
	// Duplicate requests arriving while a handler runs are dropped; the
	// client's retransmissions are answered from the reply cache once the
	// handler completes.
	Concurrent bool
	// MaxConcurrent bounds the Concurrent worker pool (default 64): a
	// retransmission storm queues — and past the queue, drops — requests
	// instead of spawning unbounded goroutines; dropped requests are
	// served by the client's next retransmission.
	MaxConcurrent int
	// ReplyCacheSize bounds the at-most-once reply cache, an LRU keyed by
	// (client, transaction) — so concurrent requests from one client each
	// keep their own cached reply instead of thrashing a single slot
	// (default 1024 entries).
	ReplyCacheSize int
}

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
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.ReplyCacheSize <= 0 {
		c.ReplyCacheSize = 1024
	}
}

// Client issues blocking RPCs from its own FLIP address.
type Client struct {
	cfg  Config
	addr flip.Address

	mu      sync.Mutex
	closed  bool
	nextTxn uint32
	pending map[uint32]*call
}

type call struct {
	done  chan callResult
	timer sim.Timer
	tries int
	dst   flip.Address
	pkt   []byte
}

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
	cfg.Stack.Register(c.addr, c.onMessage)
	return c, nil
}

// Addr returns the client's FLIP address.
func (c *Client) Addr() flip.Address { return c.addr }

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
	c.mu.Unlock()
	c.cfg.Stack.Unregister(c.addr)
	for _, cl := range pend {
		if cl.timer != nil {
			cl.timer.Stop()
		}
		cl.done <- callResult{err: ErrClosed}
	}
}

// Call performs a blocking RPC to the server address dst: the paper's
// trans/RPC primitive. It retransmits on loss and returns the server's
// reply. Equivalent to CallContext with a background context.
func (c *Client) Call(dst flip.Address, req []byte) ([]byte, error) {
	return c.CallContext(context.Background(), dst, req)
}

// CallContext performs a blocking RPC bounded by ctx: when ctx expires
// mid-call the pending transaction is withdrawn — its retransmission timer
// stops and no goroutine lingers — and ctx's error is returned. A reply that
// raced the cancellation is returned instead.
func (c *Client) CallContext(ctx context.Context, dst flip.Address, req []byte) ([]byte, error) {
	c.cfg.Meter.Charge(cost.UserSend, len(req))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextTxn++
	txn := c.nextTxn
	cl := &call{
		done: make(chan callResult, 1),
		dst:  dst,
		pkt:  encode(header{typ: ptRequest, txn: txn, replyTo: c.addr}, req),
	}
	c.pending[txn] = cl
	c.mu.Unlock()

	c.transmit(txn, cl)
	select {
	case res := <-cl.done:
		return res.payload, res.err
	case <-ctx.Done():
		c.mu.Lock()
		if _, ok := c.pending[txn]; ok {
			delete(c.pending, txn)
			if cl.timer != nil {
				cl.timer.Stop()
			}
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// The call resolved concurrently with the cancellation; the
		// result is already (or imminently) in the buffered channel.
		res := <-cl.done
		return res.payload, res.err
	}
}

func (c *Client) transmit(txn uint32, cl *call) {
	c.cfg.Meter.Charge(cost.GroupOut, 0) // RPC shares the top protocol layer
	_ = c.cfg.Stack.Send(c.addr, cl.dst, cl.pkt)
	c.mu.Lock()
	if _, ok := c.pending[txn]; !ok {
		c.mu.Unlock()
		return
	}
	cl.timer = c.cfg.Clock.AfterFunc(c.cfg.RetryInterval, func() { c.retry(txn) })
	c.mu.Unlock()
}

func (c *Client) retry(txn uint32) {
	c.mu.Lock()
	cl, ok := c.pending[txn]
	if !ok || c.closed {
		c.mu.Unlock()
		return
	}
	cl.tries++
	if cl.tries > c.cfg.MaxRetries {
		delete(c.pending, txn)
		c.mu.Unlock()
		cl.done <- callResult{err: ErrTimeout}
		return
	}
	c.mu.Unlock()
	if cl.tries >= 2 {
		// Two silent rounds suggest a stale route rather than frame loss:
		// a well-known address served by several kernels may have failed
		// over, so drop the cached route and let the retransmission
		// re-locate a surviving server.
		c.cfg.Stack.Forget(cl.dst)
	}
	c.transmit(txn, cl)
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
	if cl.timer != nil {
		cl.timer.Stop()
	}
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
	// Duplicate suppression and reply retransmission: an LRU keyed by
	// (client, txn), so concurrent transactions from one client each keep
	// their own cached reply instead of thrashing a single slot.
	replies   map[inflightKey]*list.Element
	replyList *list.List // front: most recently used cacheEntry
	// Requests whose handler is still running (Concurrent mode):
	// retransmissions arriving meanwhile are dropped, not re-executed.
	inflight map[inflightKey]bool
	// Last forward per client: a retransmission that forwards to the same
	// destination again hints the forward route is stale.
	lastFwd map[flip.Address]forwardMark
	// Concurrent-mode worker pool: requests queue on work, MaxConcurrent
	// workers drain it, overflow is dropped for the client to retransmit.
	work    chan job
	dropped uint64
}

type cacheEntry struct {
	key inflightKey
	pkt []byte
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

// cacheReplyLocked stores a reply packet under (client, txn), evicting the
// least recently used entry past the cache bound.
func (s *Server) cacheReplyLocked(key inflightKey, pkt []byte) {
	if el, ok := s.replies[key]; ok {
		el.Value.(*cacheEntry).pkt = pkt
		s.replyList.MoveToFront(el)
		return
	}
	s.replies[key] = s.replyList.PushFront(&cacheEntry{key: key, pkt: pkt})
	for len(s.replies) > s.cfg.ReplyCacheSize {
		oldest := s.replyList.Back()
		s.replyList.Remove(oldest)
		delete(s.replies, oldest.Value.(*cacheEntry).key)
	}
}

// cachedReplyLocked fetches the reply cached for (client, txn), refreshing
// its recency.
func (s *Server) cachedReplyLocked(key inflightKey) ([]byte, bool) {
	el, ok := s.replies[key]
	if !ok {
		return nil, false
	}
	s.replyList.MoveToFront(el)
	return el.Value.(*cacheEntry).pkt, true
}

// NewServer registers addr (allocating one when zero) and serves requests
// with h. Handlers run on the stack's delivery goroutine; they may perform
// their own sends but must not block indefinitely.
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
		cfg:       cfg,
		addr:      addr,
		handler:   h,
		replies:   make(map[inflightKey]*list.Element),
		replyList: list.New(),
		inflight:  make(map[inflightKey]bool),
		lastFwd:   make(map[flip.Address]forwardMark),
	}
	if cfg.Concurrent {
		// The queue holds a few bursts beyond the pool so short spikes do
		// not drop; a sustained storm drops and relies on retransmission.
		s.work = make(chan job, 4*cfg.MaxConcurrent)
		for i := 0; i < cfg.MaxConcurrent; i++ {
			go s.worker()
		}
	}
	cfg.Stack.Register(addr, s.onMessage)
	return s, nil
}

// worker drains the Concurrent request queue.
func (s *Server) worker() {
	for j := range s.work {
		s.serve(j.h, j.client, j.payload)
	}
}

// Dropped reports requests shed because the Concurrent worker pool and its
// queue were full; each was (or will be) served by a later retransmission.
func (s *Server) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Addr returns the server's FLIP address.
func (s *Server) Addr() flip.Address { return s.addr }

// Close stops serving.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cfg.Stack.Unregister(s.addr)
	if s.work != nil {
		// Safe: enqueues happen under s.mu with the closed flag checked,
		// so no sender can race this close.
		close(s.work)
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
	if pkt, ok := s.cachedReplyLocked(key); ok {
		// Duplicate request: retransmit the cached reply.
		s.mu.Unlock()
		if pkt != nil {
			_ = s.cfg.Stack.Send(s.addr, client, pkt)
		}
		return
	}
	if s.cfg.Concurrent && s.inflight[key] {
		s.mu.Unlock()
		return // handler already running; the reply will be cached
	}
	// The request outlives this upcall from here on — queued for a worker,
	// or handed to application code that may keep it — and m.Payload is
	// only borrowed (flip.Message): this is the RPC server's one copy.
	// Duplicates answered from the cache above never pay it.
	payload = append([]byte(nil), payload...)
	if s.cfg.Concurrent {
		select {
		case s.work <- job{h: h, client: client, payload: payload}:
			s.inflight[key] = true
		default:
			// Pool and queue saturated: shed the request rather than
			// spawn; the client's retransmission will try again.
			s.dropped++
		}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.serve(h, client, payload)
}

// serve runs the handler for one request and transmits the reply or the
// forward. In Concurrent mode it runs on a pool worker; otherwise on the
// stack's delivery goroutine.
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
		delete(s.inflight, inflightKey{client: client, txn: h.txn})
		s.mu.Unlock()
		fwd := encode(header{typ: ptForwarded, txn: h.txn, replyTo: client}, body)
		_ = s.cfg.Stack.Send(s.addr, forward, fwd)
		return
	}
	pkt := encode(header{typ: ptReply, txn: h.txn, replyTo: s.addr}, reply)
	s.mu.Lock()
	s.cacheReplyLocked(inflightKey{client: client, txn: h.txn}, pkt)
	delete(s.inflight, inflightKey{client: client, txn: h.txn})
	s.mu.Unlock()
	s.cfg.Meter.Charge(cost.GroupOut, 0)
	_ = s.cfg.Stack.Send(s.addr, client, pkt)
}
