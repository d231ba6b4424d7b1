// Service is the node-side half of the kv access protocol: the split that
// turns every node into a full proxy for the whole keyspace, completing the
// paper's Table 1 surface — group communication orders the writes, and RPC
// with ForwardRequest carries the requests to wherever the data lives.

package kv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/obs"
)

// ShardAddr returns the well-known RPC address at which every node hosting
// shard i of the named store serves the access protocol. The address
// identifies the service, not a machine (FLIP's defining property): with
// several hosts registered, a request reaches whichever answers — and when
// one dies, retransmissions re-locate a survivor.
func ShardAddr(store string, shard int) amoeba.Addr {
	return amoeba.AddrForName(fmt.Sprintf("kv/%s/%d", store, shard))
}

// NodeAddr returns the well-known RPC address of one node's service entry
// point: the single address a Dial'd client needs to reach the whole store.
func NodeAddr(store string, node int) amoeba.Addr {
	return amoeba.AddrForName(fmt.Sprintf("kv/%s/node/%d", store, node))
}

// StoreAddr returns the store-wide anycast entry address: every node's
// Service registers it in the FLIP name registry, so a client needs nothing
// but the store's name (DialOptions.Anycast) — FLIP's locate finds
// whichever node answers, and retransmissions re-locate a survivor when
// that node dies.
func StoreAddr(store string) amoeba.Addr {
	return amoeba.AddrForName(fmt.Sprintf("kv/%s/entry", store))
}

// ServiceStats counts what a node's service did with the requests it
// received.
type ServiceStats struct {
	// Served counts requests this node executed (over the in-process
	// fast path or by proxying parts onward itself).
	Served uint64
	// Forwarded counts misrouted single-shard requests answered with a
	// ForwardRequest to an owning node instead of an error — the client
	// sees only the reply, from wherever the request landed.
	Forwarded uint64
	// Scattered counts multi-shard requests (a client with no or stale
	// ring knowledge) this node split and scatter-gathered itself.
	Scattered uint64
	// StaleEpochs counts requests whose routing epoch differed from this
	// node's; each was served under the node's table and answered with
	// that table attached, converging the client.
	StaleEpochs uint64
	// Errors counts requests answered with an error response.
	Errors uint64
}

// Service serves the kv access protocol for one node of a store: one RPC
// server per hosted shard group at ShardAddr, plus the node's entry point at
// NodeAddr and the store-wide anycast entry at StoreAddr. Requests for
// hosted shards execute in process (sequenced reads run the read marker
// through the local replica — linearizable); misroutes — a client with a
// stale routing table, a shard mid-rebalance, a Dial'd client that knows
// nothing but this node — are answered with a ForwardRequest to an owning
// node, so a client holding one address reaches every key.
//
// The service follows the routing table: when a resharding commits, servers
// for new shard groups are registered and servers for retired ones close,
// and responses to requests from another epoch carry the node's table so
// the requester converges.
type Service struct {
	store  *Store
	client *Client

	mu        sync.Mutex
	srvs      []*amoeba.RPCServer // fixed entries: node + store anycast
	shardSrvs map[int]*amoeba.RPCServer
	closed    bool
	stop      chan struct{} // closed by Close: ends the routing watcher
	watchDone chan struct{}

	budgets budgets // ends each request's work when its caller's budget runs out

	served      atomic.Uint64
	forwarded   atomic.Uint64
	scattered   atomic.Uint64
	staleEpochs atomic.Uint64
	errors      atomic.Uint64

	obsUnreg func() // detaches the stats source from the hub registry
}

// defaultBudget bounds requests that carry no caller budget; maxBudget caps
// even explicit ones, so a client that vanished mid-call cannot pin a handler
// goroutine forever (the RPC hop carries deadlines forward but not
// cancellations).
const (
	defaultBudget = 10 * time.Second
	maxBudget     = 2 * time.Minute
)

// NewService starts serving this node's shards. Close the service before
// closing the store.
func NewService(s *Store) (*Service, error) {
	svc := &Service{
		store:     s,
		client:    s.NewClient(),
		shardSrvs: make(map[int]*amoeba.RPCServer),
		stop:      make(chan struct{}),
		watchDone: make(chan struct{}),
		budgets:   budgets{live: make(map[*budgetCtx]struct{})},
	}
	fail := func(err error) (*Service, error) {
		close(svc.watchDone) // watcher never started
		svc.watchDone = nil
		svc.Close()
		return nil, err
	}
	srv, err := s.kernel.NewRPCServerWith(NodeAddr(s.name, s.opts.NodeIndex), svc.handle,
		amoeba.RPCServerOptions{Concurrent: true})
	if err != nil {
		return fail(fmt.Errorf("kv: serving node entry point: %w", err))
	}
	svc.srvs = append(svc.srvs, srv)
	srv, err = s.kernel.NewRPCServerWith(StoreAddr(s.name), svc.handle,
		amoeba.RPCServerOptions{Concurrent: true})
	if err != nil {
		return fail(fmt.Errorf("kv: serving store anycast entry: %w", err))
	}
	svc.srvs = append(svc.srvs, srv)
	if err := svc.reconcileShards(); err != nil {
		return fail(err)
	}
	if reg := s.opts.Group.Obs.Registry(); reg != nil {
		svc.obsUnreg = reg.RegisterSource(func() []obs.Sample {
			return []obs.Sample{
				{Name: "amoeba_kv_service_served_total", Value: svc.served.Load()},
				{Name: "amoeba_kv_service_forwarded_total", Value: svc.forwarded.Load()},
				{Name: "amoeba_kv_service_scattered_total", Value: svc.scattered.Load()},
				{Name: "amoeba_kv_service_stale_epochs_total", Value: svc.staleEpochs.Load()},
				{Name: "amoeba_kv_service_errors_total", Value: svc.errors.Load()},
			}
		})
	}
	go svc.watchRouting()
	return svc, nil
}

// reconcileShards aligns the per-shard RPC servers with the shards this
// node currently hosts under the routing table.
func (svc *Service) reconcileShards() error {
	s := svc.store
	_, _, want := s.span()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.closed {
		return nil
	}
	for i, srv := range svc.shardSrvs {
		if i >= want || s.Replica(i) == nil {
			srv.Close()
			delete(svc.shardSrvs, i)
		}
	}
	for i := 0; i < want; i++ {
		if svc.shardSrvs[i] != nil || s.Replica(i) == nil {
			continue
		}
		srv, err := s.kernel.NewRPCServerWith(ShardAddr(s.name, i), svc.handle,
			amoeba.RPCServerOptions{Concurrent: true})
		if err != nil {
			return fmt.Errorf("kv: serving shard %d: %w", i, err)
		}
		svc.shardSrvs[i] = srv
	}
	return nil
}

// watchRouting re-registers shard servers whenever the routing table or the
// hosted replica set changes — the service half of live resharding. The
// channel is taken before the reconcile it follows, so a change during one
// is not missed; a registration that fails is retried at the next change.
func (svc *Service) watchRouting() {
	defer close(svc.watchDone)
	for {
		wake := svc.store.RoutingWatch()
		_ = svc.reconcileShards()
		select {
		case <-wake:
		case <-svc.store.healCtx.Done():
			return
		case <-svc.stop:
			return
		}
	}
}

// Stats returns a snapshot of the service's request counters.
func (svc *Service) Stats() ServiceStats {
	return ServiceStats{
		Served:      svc.served.Load(),
		Forwarded:   svc.forwarded.Load(),
		Scattered:   svc.scattered.Load(),
		StaleEpochs: svc.staleEpochs.Load(),
		Errors:      svc.errors.Load(),
	}
}

// Close stops serving. In-flight requests fail at their clients' RPC layer
// and are retried against surviving nodes.
func (svc *Service) Close() {
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		return
	}
	svc.closed = true
	close(svc.stop)
	srvs := svc.srvs
	svc.srvs = nil
	for _, srv := range svc.shardSrvs {
		srvs = append(srvs, srv)
	}
	svc.shardSrvs = map[int]*amoeba.RPCServer{}
	done := svc.watchDone
	svc.mu.Unlock()
	for _, srv := range srvs {
		srv.Close()
	}
	svc.client.Close()
	if done != nil {
		<-done
	}
	if svc.obsUnreg != nil {
		svc.obsUnreg()
	}
}

// handle serves one access-protocol request. It runs on its own goroutine
// (concurrent RPC server), so it may block on the group layer.
func (svc *Service) handle(raw []byte) (reply []byte, forward amoeba.Addr) {
	req, err := DecodeRequest(raw)
	if err != nil {
		svc.errors.Add(1)
		return EncodeResponse(&Response{Err: err.Error()}), 0
	}
	ring, rt := svc.store.routingRing()
	stale := req.Epoch != rt.Epoch
	if stale {
		svc.staleEpochs.Add(1)
	}
	// The one shard that takes the request whole, or -1 when its keys span
	// several (every key a transaction touches counts: a single-shard one
	// can be forwarded to its owner like any write, a multi-shard one is
	// coordinated here, in process).
	shard := oneShard(ring, req)
	if shard >= 0 && svc.store.Replica(shard) == nil {
		// Misroute: the one shard this request needs lives elsewhere.
		if req.Flags&flagForwarded != 0 {
			// Already forwarded once; routing tables disagree. Answer
			// rather than bounce the request around.
			svc.errors.Add(1)
			return svc.answer(req, &Response{Err: fmt.Sprintf(
				"shard %d not hosted at forward target (routing mismatch?)", shard)}), 0
		}
		svc.forwarded.Add(1)
		svc.client.tracer.Addf(req.traceID(), "forwarded to shard %d", shard)
		fwd := *req
		fwd.Flags |= flagForwarded
		fwd.Epoch = rt.Epoch // forward under this node's (newer) table
		return EncodeRequest(&fwd), svc.client.shardAddr(shard)
	}
	if shard < 0 {
		// A client with no (or stale) routing knowledge packed several
		// shards' keys into one request: this node re-scatters it, local
		// parts in process and remote parts over RPC — the full proxy.
		svc.scattered.Add(1)
	}
	svc.served.Add(1)
	budget := req.Budget
	if budget <= 0 {
		budget = defaultBudget
	}
	ctx := svc.budgets.start(min(budget, maxBudget))
	// Sub-requests the client issues for re-scattered parts are fresh
	// requests (no forwarded flag), targeted by this node's routing.
	resp, err := svc.client.Do(ctx, req)
	svc.budgets.end(ctx)
	if err != nil {
		svc.errors.Add(1)
		return svc.answer(req, &Response{Err: err.Error()}), 0
	}
	return svc.answer(req, resp), 0
}

// answer encodes resp to req. It teaches the requester this node's table
// whenever the epochs disagreed (re-read at answer time: the handoff may have
// flipped the epoch while the request executed), and always carries the
// node/replica topology so fleet clients can steer flagged reads at lease
// holders.
func (svc *Service) answer(req *Request, resp *Response) []byte {
	if now := svc.store.Routing(); req.Epoch != now.Epoch {
		rt := now
		resp.Routing = &rt
	}
	resp.Nodes = svc.store.opts.Nodes
	resp.Replication = svc.store.opts.Replication
	return EncodeResponse(resp)
}

// budgets ends each served request's work when its caller's budget runs
// out, with one timer for all of a service's requests instead of one each.
// A request runs under a budgetCtx; the timer, armed for the earliest
// deadline in flight, closes the done channel of every request whose budget
// is spent. A request that ends in budget leaves its context, unclosed, for
// the next request to reuse: nothing keeps a request's context after its
// handler returns (Client.Do waits for every part it starts).
type budgets struct {
	mu    sync.Mutex
	timer *time.Timer // fires at armed, the earliest deadline in flight; unarmed when armed is zero
	armed time.Time
	live  map[*budgetCtx]struct{}
	free  []*budgetCtx
}

// budgetCtx is a served request's context: no values, no parent, and the
// caller's deadline, at which budgets closes done.
type budgetCtx struct {
	deadline time.Time
	done     chan struct{}
}

func (c *budgetCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *budgetCtx) Done() <-chan struct{}       { return c.done }
func (c *budgetCtx) Value(any) any               { return nil }

func (c *budgetCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// start returns the context of a request with budget left to run.
func (b *budgets) start(budget time.Duration) *budgetCtx {
	deadline := time.Now().Add(budget)
	b.mu.Lock()
	defer b.mu.Unlock()
	var c *budgetCtx
	if n := len(b.free); n > 0 {
		c, b.free = b.free[n-1], b.free[:n-1]
	} else {
		c = &budgetCtx{done: make(chan struct{})}
	}
	c.deadline = deadline
	b.live[c] = struct{}{}
	if b.armed.IsZero() || deadline.Before(b.armed) {
		b.armed = deadline
		if b.timer == nil {
			b.timer = time.AfterFunc(budget, b.expire)
		} else {
			b.timer.Reset(budget)
		}
	}
	return c
}

// end retires a request's context once its handler is done with it.
func (b *budgets) end(c *budgetCtx) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.live, c)
	select {
	case <-c.done: // spent: its channel is closed for good
	default:
		b.free = append(b.free, c)
	}
}

// expire is the timer: it ends every request whose budget is spent and
// re-arms for the earliest deadline left.
func (b *budgets) expire() {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = time.Time{}
	for c := range b.live {
		if !c.deadline.After(now) {
			close(c.done)
			delete(b.live, c)
		} else if b.armed.IsZero() || c.deadline.Before(b.armed) {
			b.armed = c.deadline
		}
	}
	if !b.armed.IsZero() {
		b.timer.Reset(b.armed.Sub(now))
	}
}
