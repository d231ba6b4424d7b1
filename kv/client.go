package kv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/shared"
)

// errMoved reports a command that reached a shard which does not serve the
// key at that point in the total order: the range is frozen mid-handoff or
// already moved to another shard. The caller re-resolves the owner under
// the (possibly updated) routing table and retries; the session header keeps
// the retry exactly-once.
var errMoved = errors.New("kv: key range moved or frozen by resharding")

// errStale reports a command a shard refused without executing it: its
// session had already acknowledged it — its caller gave up on it, and this
// is a late copy — or the session expired (see session.go).
var errStale = errors.New("kv: stale command: its session acknowledged it or expired")

// Client issues key-value operations against a store. Methods are safe for
// concurrent use; create several clients for independent command streams.
//
// A client is transport-agnostic: every operation is a Request routed to the
// shard owning its key, and each shard is reached over whichever access path
// is available —
//
//   - local fast path: the shard is hosted on the node the client is bound
//     to (Store.NewClient); the command goes straight into the in-process
//     replica, no wire protocol involved;
//   - direct RPC: the client knows the routing table, so it calls the
//     shard's well-known address (ShardAddr), served by every hosting node;
//   - proxied: the client holds only an entry node's address (Dial) — or
//     just the store's name (DialOptions.Anycast); the entry node serves
//     shards it hosts and answers misroutes with a ForwardRequest to an
//     owning node — the reply comes back from wherever the request lands.
//
// All three speak the same versioned codec (see EncodeRequest), and every
// request that goes to a group or over RPC is numbered here in the client's
// session (session.go), which the replicas deduplicate by, so retries across
// paths, forwards, failovers, and routing epochs stay exactly-once; a read
// this node answers from its own replica state needs no number. Sequenced reads
// run the read marker through the total order on whichever replica serves
// them, so Get and MGet are linearizable over every path.
//
// Requests carry the client's routing epoch; a serving node at a different
// epoch answers with its own table attached, and the client adopts it — so
// a client that dialed a 4-shard store keeps working, without any config
// service, while the store resplits to 8.
type Client struct {
	s       *Store // local binding; nil for Dial'd clients
	kernel  *amoeba.Kernel
	cluster string
	entry   amoeba.Addr // entry-node address; 0: direct shard addressing only
	anycast bool        // fall back to the store-wide anycast entry address
	sess    session     // numbers the requests and keeps their ack

	// The store's well-known addresses. Each is the hash of a formatted
	// name (StoreAddr, ShardAddr, NodeAddr), so they are computed once
	// here, not once per call.
	storeAddr  amoeba.Addr
	shardAddrs addrTable
	nodeAddrs  addrTable

	// Dial'd clients with ring knowledge cache their own routing view,
	// refreshed from responses; bound clients read the store's.
	rtMu  sync.RWMutex
	rt    Routing
	cring *ring // nil: no ring knowledge, everything goes via entry

	// The RPC client every remote call goes through, created on first use.
	// It multiplexes concurrent calls by transaction id.
	rpcMu  sync.Mutex
	rpc    *amoeba.RPCClient
	closed bool

	// Topology learned from v4 responses (bound clients read the store's
	// options instead): node count and replication factor, which combined
	// with the placement rule name the nodes hosting each shard — the
	// targets lease-read distribution rotates over.
	topoNodes atomic.Int64
	topoRepl  atomic.Int64
	// readSeq counts the client's flagged reads: it rotates a remote one
	// over the shard's hosts (readTarget), and a read Do takes in
	// unnumbered is traced as cmdID(readIDs, n) (Request.trace), in an id
	// space of the client's own, minted like a session id and never sent.
	readSeq atomic.Uint64
	readIDs uint64

	localOps  atomic.Uint64
	remoteOps atomic.Uint64
	rtUpdates atomic.Uint64
	// Read-path counters: reads served under a lease or at bounded
	// staleness (locally or reported by a remote ReadPath), and reads that
	// fell back to the sequenced marker.
	leaseReads atomic.Uint64
	staleReads atomic.Uint64

	// Observability (nil = no-op): submit→reply latency split by access
	// path, plus the op tracer keyed by command ids.
	localH   *obs.Histogram // amoeba_kv_client_local_ns
	directH  *obs.Histogram // amoeba_kv_client_direct_ns
	fwdH     *obs.Histogram // amoeba_kv_client_forwarded_ns
	tracer   *obs.Tracer
	obsUnreg func() // detaches the stats source from the hub registry

	// Transaction instrumentation (see txn.go).
	txnPrepH     *obs.Histogram // amoeba_kv_txn_prepare_ns
	txnResH      *obs.Histogram // amoeba_kv_txn_resolve_ns
	txnTotalH    *obs.Histogram // amoeba_kv_txn_total_ns
	txnCommitted atomic.Uint64
	txnAborted   atomic.Uint64
	txnConflicts atomic.Uint64
}

// wireObs resolves the client's instruments from a hub (nil hub = no-op).
func (c *Client) wireObs(hub *obs.Hub) {
	c.localH = hub.Histogram("amoeba_kv_client_local_ns")
	c.directH = hub.Histogram("amoeba_kv_client_direct_ns")
	c.fwdH = hub.Histogram("amoeba_kv_client_forwarded_ns")
	c.txnPrepH = hub.Histogram("amoeba_kv_txn_prepare_ns")
	c.txnResH = hub.Histogram("amoeba_kv_txn_resolve_ns")
	c.txnTotalH = hub.Histogram("amoeba_kv_txn_total_ns")
	c.tracer = hub.Tracer()
	if reg := hub.Registry(); reg != nil {
		c.obsUnreg = reg.RegisterSource(func() []obs.Sample {
			return []obs.Sample{
				{Name: "amoeba_kv_client_local_ops_total", Value: c.localOps.Load()},
				{Name: "amoeba_kv_client_remote_ops_total", Value: c.remoteOps.Load()},
				{Name: "amoeba_kv_client_routing_updates_total", Value: c.rtUpdates.Load()},
				{Name: "amoeba_kv_client_lease_reads_total", Value: c.leaseReads.Load()},
				{Name: "amoeba_kv_client_stale_reads_total", Value: c.staleReads.Load()},
				{Name: "amoeba_kv_client_txn_committed_total", Value: c.txnCommitted.Load()},
				{Name: "amoeba_kv_client_txn_aborted_total", Value: c.txnAborted.Load()},
				{Name: "amoeba_kv_client_txn_conflict_retries_total", Value: c.txnConflicts.Load()},
			}
		})
	}
}

// ClientStats counts which access paths a client's operations took.
type ClientStats struct {
	// LocalOps counts operations (or per-shard parts of multi-shard
	// operations) served by the in-process fast path.
	LocalOps uint64
	// RemoteOps counts parts that left the client over RPC (direct to a
	// shard's address or via the entry node).
	RemoteOps uint64
	// RoutingUpdates counts routing tables adopted from responses (a
	// server at a different epoch taught the client the new table).
	RoutingUpdates uint64
	// LeaseReads counts reads served from a replica's state under a read
	// lease (locally or remotely) instead of a sequenced marker.
	LeaseReads uint64
	// StaleReads counts reads served at a bounded staleness (StaleGet's
	// fast path).
	StaleReads uint64
}

// Stats returns a snapshot of the client's access-path counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		LocalOps:       c.localOps.Load(),
		RemoteOps:      c.remoteOps.Load(),
		RoutingUpdates: c.rtUpdates.Load(),
		LeaseReads:     c.leaseReads.Load(),
		StaleReads:     c.staleReads.Load(),
	}
}

// NewClient returns a client bound to this node: shards hosted here are
// served in process, and — when the store runs with bounded replication —
// shards hosted elsewhere are reached over RPC through their well-known
// addresses, provided the hosting nodes run a Service. The client shares
// the node's routing table, so it follows reshardings as they commit.
func (s *Store) NewClient() *Client {
	c := &Client{
		s:       s,
		kernel:  s.kernel,
		cluster: s.name,
		readIDs: newSessionID(time.Now()),

		storeAddr: StoreAddr(s.name),
	}
	c.topoNodes.Store(int64(s.opts.Nodes))
	c.topoRepl.Store(int64(s.opts.Replication))
	c.wireObs(s.opts.Group.Obs)
	return c
}

// DialOptions configures Dial.
type DialOptions struct {
	// Node is the entry node's placement slot: requests enter the store at
	// NodeAddr(cluster, Node).
	Node int
	// Anycast enters the store through its store-wide anycast address
	// (StoreAddr) instead of a specific node: every node's Service
	// registers it, so the client needs nothing but the store name — FLIP
	// locates whichever node answers, and retransmissions re-locate a
	// survivor when that node dies. Overrides Node.
	Anycast bool
	// Shards, when non-zero, gives the client ring knowledge: requests go
	// straight to the owning shard's well-known address (one hop) instead
	// of through the entry node. It should match the store's bootstrap
	// shard count; a stale value still works — the service answers
	// misroutes with a ForwardRequest and attaches its routing table, so
	// the client converges after one hop.
	Shards int
	// Obs wires the client into an observability hub: access-path latency
	// histograms, op counters, and trace spans for sampled command ids.
	// Nil (the default) is the no-op sink.
	Obs *obs.Hub
}

// Dial returns a client that reaches the named store over RPC only: it holds
// nothing but an entry address (and, optionally, ring knowledge), yet serves
// the whole keyspace — the entry node proxies or forwards whatever it does
// not host. The kernel is the caller's network attachment; it need not host
// any part of the store.
func Dial(k *amoeba.Kernel, cluster string, o DialOptions) (*Client, error) {
	if k == nil {
		return nil, fmt.Errorf("kv: dialing %q: kernel is required", cluster)
	}
	c := &Client{
		kernel:  k,
		cluster: cluster,
		anycast: o.Anycast,

		storeAddr: StoreAddr(cluster),
	}
	if o.Anycast {
		c.entry = c.storeAddr
	} else {
		c.entry = c.nodeAddr(o.Node)
	}
	if o.Shards > 0 {
		c.rt = Routing{Epoch: 0, Shards: o.Shards, VNodes: defaultVirtualNodes}
		c.cring = c.rt.ring(cluster)
	}
	c.wireObs(o.Obs)
	return c, nil
}

// routingRing returns the routing view the client targets requests with:
// the bound store's live table, the Dial'd client's cached table, or
// (nil, zero table) for ring-less clients.
func (c *Client) routingRing() (*ring, Routing) {
	if c.s != nil {
		return c.s.routingRing()
	}
	c.rtMu.RLock()
	defer c.rtMu.RUnlock()
	return c.cring, c.rt
}

// adoptRouting installs a newer table a response carried (Dial'd clients
// with ring knowledge; bound clients follow their store instead).
func (c *Client) adoptRouting(rt Routing) {
	if c.s != nil || rt.Shards <= 0 {
		return
	}
	c.rtMu.Lock()
	if c.cring != nil && rt.Epoch > c.rt.Epoch {
		c.rt = rt
		c.cring = rt.ring(c.cluster)
		c.rtUpdates.Add(1)
	}
	c.rtMu.Unlock()
}

// Close releases the client's RPC resources, if any were created. Operations
// that never left the node need no Close.
func (c *Client) Close() {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	c.closed = true
	if c.rpc != nil {
		c.rpc.Close()
		c.rpc = nil
	}
	if c.obsUnreg != nil {
		c.obsUnreg()
		c.obsUnreg = nil
	}
}

// rpcClient returns the client's RPC client, creating it on first use.
func (c *Client) rpcClient() (*amoeba.RPCClient, error) {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("kv: client closed")
	}
	if c.rpc == nil {
		cl, err := c.kernel.NewRPCClient()
		if err != nil {
			return nil, fmt.Errorf("kv: creating RPC client: %w", err)
		}
		c.rpc = cl
	}
	return c.rpc, nil
}

// addrTable memoises one family of well-known addresses by index. A table is
// immutable and replaced whole, so readers take no lock, and growers that race
// store the same values.
type addrTable struct{ tab atomic.Pointer[[]amoeba.Addr] }

// at returns the i-th address, extending the table with name when i is new.
func (t *addrTable) at(i int, name func(int) amoeba.Addr) amoeba.Addr {
	if i < 0 {
		return name(i) // a caller's nonsense index (DialOptions.Node) is not worth a slot
	}
	if tab := t.tab.Load(); tab != nil && i < len(*tab) {
		return (*tab)[i]
	}
	tab := make([]amoeba.Addr, i+1)
	for j := range tab {
		tab[j] = name(j)
	}
	t.tab.Store(&tab)
	return tab[i]
}

// shardAddr is ShardAddr(c.cluster, shard), memoised.
func (c *Client) shardAddr(shard int) amoeba.Addr {
	return c.shardAddrs.at(shard, func(i int) amoeba.Addr { return ShardAddr(c.cluster, i) })
}

// nodeAddr is NodeAddr(c.cluster, node), memoised.
func (c *Client) nodeAddr(node int) amoeba.Addr {
	return c.nodeAddrs.at(node, func(i int) amoeba.Addr { return NodeAddr(c.cluster, i) })
}

// awaitChange waits out one Moved answer (or one stopped replica): until the
// node's change channel fires — wake, the RoutingWatch channel taken BEFORE
// the attempt being waited out, so a change that lands between the answer
// and this wait is an already-closed channel, not a missed wakeup — or until
// ctx ends or the store shuts down. Nothing polls for it: every hold ends with
// something on this node that fires the channel — a lock release or routing
// change applied by the replica that refused (see mapSM.refused), a flip
// applied by another hosted replica (the key's new owner, while the refusing
// source still straggles), or a replica installed or swapped.
func (s *Store) awaitChange(ctx context.Context, wake <-chan struct{}) error {
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.healCtx.Done():
		return shared.ErrStopped
	}
}

// --- The generic entry point -------------------------------------------------

// Do executes one access-protocol request: the single entry every public
// method, the amoeba-kv daemon, and the Service proxy route through. A request
// without a Session is numbered here, once, in the client's session — a seq
// per request, or per pair of a batch — and its seq is acknowledged when Do
// returns, answered or not. A read this node may answer from its own replica
// state, under a lease or within a stale bound (fastReads), is the exception:
// it goes in unnumbered, traced under an id of the client's own, and is
// numbered only if it must go to a group or over RPC after all (start,
// finish) — a lease read costs the read, not a seq. Then one loop takes the
// node's change channel,
// reads the routing table, splits the request by shard (split), runs the
// parts — a lone part on this goroutine, several scattered, each over its own
// best path (doShard) — and, when any part answers Moved (its range is frozen
// mid-handoff, flipped to another shard, or prepare-locked), waits for the
// change and goes round again under the then-current table. The session
// header makes every re-drive exactly-once. It is the only retry loop for
// Moved: a remote node runs its own for its callers, so only a node-bound
// client ever sees the answer.
//
// A request that comes with its Session set is pinned: Do sends it as it is,
// unless the session was born too far ahead of this node's clock
// (futureSession). Every request a Service takes is pinned, so that is where
// one from outside is checked, on the node it is submitted from.
//
// A transaction that fails is the exception to acknowledging: it may have
// left a participant prepared, whose decision its records must keep until
// the recovery janitor has resolved it, so Do retires the session instead
// (session.retire) and later requests go out in a new one.
//
// The caller's Request is never modified: the header assigned for one
// execution lives on an internal copy, so a Request value can be rebuilt or
// reused without a stale seq silently deduplicating the next operation away.
func (c *Client) Do(ctx context.Context, caller *Request) (*Response, error) {
	cp := *caller
	req := &cp
	switch req.Op {
	case ReqPut, ReqDelete, ReqCAS, ReqTxn, ReqTxnPrepare, ReqTxnResolve:
	case ReqGet:
		if req.numKeys() == 0 {
			return nil, fmt.Errorf("kv: get of zero keys")
		}
		// Invite lease serving: a bound client knows whether its store
		// grants leases; a Dial'd client cannot know, and the flag is free
		// when the server holds none. Not combined with stale reads — the
		// staleness bound is the weaker, cheaper contract.
		if req.Flags&flagStaleRead == 0 && (c.s == nil || c.s.leasesOn()) {
			req.Flags |= flagLeaseRead
		}
	case ReqBatchPut:
		if len(req.Pairs) == 0 {
			return &Response{OK: true}, nil
		}
		if req.Session != 0 && len(req.IDs) != len(req.Pairs) {
			return nil, fmt.Errorf("kv: batch of %d pairs pins %d seqs", len(req.Pairs), len(req.IDs))
		}
	default:
		return nil, fmt.Errorf("kv: unknown request op %d", req.Op)
	}
	if req.Session != 0 {
		if err := futureSession(req.Session, time.Now()); err != nil {
			return nil, err
		}
		resp, _, err := c.drive(ctx, req)
		return resp, err
	}
	if stale, lease := c.fastReads(req); stale || lease {
		req.trace = cmdID(c.readIDs, c.readSeq.Add(1))
	} else {
		c.number(req)
	}
	resp, _, err := c.drive(ctx, req)
	switch {
	case req.Session == 0: // answered without a number
	case err != nil && req.Op == ReqTxn:
		c.sess.retire(req.Session)
	default:
		c.sess.end(req.Session, req.ID, req.numSeqs())
	}
	return resp, err
}

// number gives an unpinned request its session header: the next seq of the
// client's session — for a batch, one per pair — and the session's ack.
func (c *Client) number(req *Request) {
	n := req.numSeqs()
	req.Session, req.ID, req.Ack = c.sess.begin(n)
	if req.Op == ReqBatchPut { // a batch is its pairs' seqs
		req.IDs = make([]uint64, n)
		for i := range req.IDs {
			req.IDs[i] = req.ID + uint64(i)
		}
	}
}

// numSeqs is how many seqs of its session a request takes.
func (r *Request) numSeqs() int {
	if r.Op == ReqBatchPut {
		return len(r.Pairs)
	}
	return 1
}

// drive runs a request to its answer: Do's loop. A read Do left unnumbered
// takes its number where it leaves this node's replica state — before it is
// split among shards, or in start or finish. Beside the answer it returns the
// split the answer came under, at req.Epoch: one part per shard, nil when one
// shard took the request whole (split) or a transaction ran.
func (c *Client) drive(ctx context.Context, req *Request) (*Response, []shardPart, error) {
	if req.Op == ReqTxn {
		if r, _ := c.routingRing(); r != nil {
			resp, err := c.txnExecute(ctx, req)
			return resp, nil, err
		}
		// Ring-less client: the entry node's coordinator runs the 2PC.
	}
	c.trace(req, "submitted")
	for {
		var wake <-chan struct{}
		if c.s != nil {
			wake = c.s.RoutingWatch()
		}
		r, rt := c.routingRing()
		req.Epoch = rt.Epoch
		var resp *Response
		var err error
		shard, parts := split(r, rt, req)
		if parts != nil && req.Session == 0 {
			// An unnumbered read over several shards goes to their groups:
			// its parts are split under the header it takes now.
			c.number(req)
			shard, parts = split(r, rt, req)
		}
		if parts == nil {
			resp, err = c.doShard(ctx, shard, req)
		} else {
			resp, err = c.gather(ctx, req, parts)
		}
		switch {
		case err == nil:
			c.trace(req, "replied")
			return resp, parts, nil
		case !errors.Is(err, errMoved):
			c.trace(req, "failed: "+err.Error())
			return nil, nil, err
		}
		c.trace(req, "moved, retrying")
		if err := c.s.awaitChange(ctx, wake); err != nil {
			return nil, nil, err
		}
	}
}

// trace stamps a caller-side span on the operation: under its id, or, for a
// batch put, under the id of every sampled pair — a pair is traced like the
// lone Put it stands for.
func (c *Client) trace(req *Request, event string) {
	if req.Op != ReqBatchPut {
		if id := req.traceID(); c.tracer.Sampled(id) { // asked first: Addf's arguments are boxed before it can decline them
			c.tracer.Addf(id, "%s op=%d key=%q keys=%d", event, req.Op, req.Key, req.numKeys())
		}
		return
	}
	for i, seq := range req.IDs {
		if id := cmdID(req.Session, seq); c.tracer.Sampled(id) {
			c.tracer.Addf(id, "%s op=batchput key=%q", event, req.Pairs[i].Key)
		}
	}
}

// traceID is the id a request's spans go by: its shard commands' (cmdID), or
// the id Do drew for it when it went in unnumbered, which it keeps if it is
// numbered on the way (the replicas' spans of its read marker then go by the
// marker's command id).
func (r *Request) traceID() uint64 {
	if r.trace != 0 {
		return r.trace
	}
	return cmdID(r.Session, r.ID)
}

// numKeys and keyAt enumerate the keys that decide where a request runs —
// the one place that knows each op's key fields: a read's Keys (or its one
// Key, readKeys), a batch's pairs, a transaction's (or one of its prepares')
// reads, writes and conditions in that order, and the lone Key of everything
// else (for a resolve, the representative key its portion is routed by).
func (r *Request) numKeys() int {
	switch r.Op {
	case ReqGet:
		if r.Keys == nil {
			return 1
		}
		return len(r.Keys)
	case ReqBatchPut:
		return len(r.Pairs)
	case ReqTxn, ReqTxnPrepare:
		return len(r.Keys) + len(r.Writes) + len(r.Conds)
	}
	return 1
}

func (r *Request) keyAt(i int) string {
	switch r.Op {
	case ReqGet:
		if r.Keys == nil {
			return r.Key
		}
		return r.Keys[i]
	case ReqBatchPut:
		return r.Pairs[i].Key
	case ReqTxn, ReqTxnPrepare:
		switch reads, writes := len(r.Keys), len(r.Writes); {
		case i < reads:
			return r.Keys[i]
		case i < reads+writes:
			return r.Writes[i-reads].Key
		default:
			return r.Conds[i-reads-writes].Key
		}
	}
	return r.Key
}

// shardPart is one shard's share of a request: the first of its keys, the
// sub-request split builds for it, and for the sub-request's read keys their
// positions in the whole request's Keys, which is how the answers find their
// way back (gather, mergePrepareAnswers). It also carries the part through
// the fan-out (scatter): whether start took it on, and its answer.
type shardPart struct {
	shard int
	key   string
	req   *Request
	call  *localCall // the part's state from start to finish (gather)
	idx   []int
	n     int // how many of the request's pairs or read keys the part holds (split)

	taken bool
	resp  *Response
	err   error
}

// partCall is what split builds for each part beside it, in one array for
// all of them: the sub-request and its local call (shardPart.req, .call).
type partCall struct {
	req  Request
	call localCall
}

// oneShard answers what every hot-path operation asks of the router — which
// one shard takes this request whole? — without allocating: the shard all of
// req's keys live on, or -1 when they span several, when there are none, or
// when the client has no ring (the entry node routes).
func oneShard(r *ring, req *Request) int {
	n := req.numKeys()
	if r == nil || n == 0 {
		return -1
	}
	first := r.shard(req.keyAt(0))
	for i := 1; i < n; i++ {
		if r.shard(req.keyAt(i)) != first {
			return -1
		}
	}
	return first
}

// group is the one place keys are grouped by shard: the i-th of req's keys
// belongs to parts[partOf[i]], and the parts, one for each shard the keys fall
// on, come in order of first appearance. Each key is hashed once: the shards
// found so far are listed behind partOf, in the same array, so parts is sized
// to them.
func group(r *ring, req *Request) (partOf []int, parts []shardPart) {
	n := req.numKeys()
	buf := make([]int, n+min(n, r.shards))
	partOf, shards := buf[:n:n], buf[n:n]
	for i := range partOf {
		s, j := r.shard(req.keyAt(i)), 0
		for j < len(shards) && shards[j] != s {
			j++
		}
		if j == len(shards) {
			shards = append(shards, s)
		}
		partOf[i] = j
	}
	parts = make([]shardPart, len(shards))
	next := 0 // the parts come in order, so a part's first key is where its index first shows
	for i, j := range partOf {
		if j == next {
			parts[j] = shardPart{shard: shards[j], key: req.keyAt(i)}
			next++
		}
	}
	return partOf, parts
}

// split maps a request onto shards under one routing view. When one shard
// takes it whole (oneShard) — every single-key op, every request of a
// ring-less client, and every read, batch or prepare whose keys share a
// shard — split answers with that shard and nil parts, having allocated
// nothing. A whole transaction that spans shards also has no one shard (-1,
// nil): whoever holds it coordinates it. Otherwise the answer is one
// sub-request per shard (group), each holding its shard's elements in
// request order and stamped with the table's epoch. The sub-requests, with
// their local calls, are one array (partCall), and the parts' pairs and seqs,
// or read keys and their positions, windows of one array each.
// Every part keeps the request's session header: a sub-read's answer is
// waited for on its own shard only, and sub-prepares accrete under the
// transaction's attempt, so a node re-splitting a forwarded request, or a
// re-drive after an epoch flip, is free to split differently — while batch
// pairs keep their own seqs, so every replica deduplicates a pair
// identically however the batch reached it. req is only read.
func split(r *ring, rt Routing, req *Request) (int, []shardPart) {
	if shard := oneShard(r, req); shard >= 0 || r == nil || req.Op == ReqTxn || req.numKeys() == 0 {
		return shard, nil
	}
	partOf, parts := group(r, req)
	// A batch's pairs, or a read's or prepare's read keys, come first among
	// its keys (keyAt): they are what the windows hold.
	reads, writes := len(req.Keys), len(req.Writes)
	windowed := reads
	if req.Op == ReqBatchPut {
		windowed = len(req.Pairs)
	}
	for _, j := range partOf[:windowed] {
		parts[j].n++
	}
	calls := make([]partCall, len(parts))
	var pairs []Pair
	var ids []uint64
	var keys []string
	var idx []int
	if req.Op == ReqBatchPut {
		pairs, ids = make([]Pair, windowed), make([]uint64, windowed)
	} else if windowed > 0 {
		keys, idx = make([]string, windowed), make([]int, windowed)
	}
	off := 0
	for j := range parts {
		p := &parts[j]
		p.req, p.call = &calls[j].req, &calls[j].call
		*p.req = Request{Op: req.Op, Flags: req.Flags &^ flagForwarded, Budget: req.Budget, Epoch: rt.Epoch,
			Session: req.Session, ID: req.ID, Ack: req.Ack, MaxStale: req.MaxStale,
			Attempt: req.Attempt, HomeKey: req.HomeKey, AllKeys: req.AllKeys}
		switch end := off + p.n; {
		case p.n == 0: // a prepare part of writes and conditions only
		case req.Op == ReqBatchPut:
			p.req.Pairs, p.req.IDs = pairs[off:off:end], ids[off:off:end]
		default:
			p.req.Keys, p.idx = keys[off:off:end], idx[off:off:end]
		}
		off += p.n
	}
	for i, j := range partOf {
		switch p := &parts[j]; {
		case req.Op == ReqBatchPut:
			p.req.Pairs = append(p.req.Pairs, req.Pairs[i])
			p.req.IDs = append(p.req.IDs, req.IDs[i])
		case i < reads:
			p.req.Keys = append(p.req.Keys, req.Keys[i])
			p.idx = append(p.idx, i)
		case i < reads+writes:
			p.req.Writes = append(p.req.Writes, req.Writes[i-reads])
		default:
			p.req.Conds = append(p.req.Conds, req.Conds[i-reads-writes])
		}
	}
	return -1, parts
}

// gather runs a split request's parts side by side and merges their answers.
func (c *Client) gather(ctx context.Context, req *Request, parts []shardPart) (*Response, error) {
	err := scatter(parts,
		func(p *shardPart) bool { return c.start(ctx, p.shard, p.req, p.call) },
		func(p *shardPart) (*Response, error) { return c.finish(ctx, p.shard, p.req, p.call) })
	if err != nil {
		return nil, err
	}
	switch req.Op {
	case ReqGet:
		out := newReadResponse(len(req.Keys), parts[0].resp.ReadPath)
		for k := range parts {
			p := &parts[k]
			for j, i := range p.idx {
				out.Values[i], out.Found[i] = p.resp.Values[j], p.resp.Found[j]
			}
			out.ReadPath = mergeReadPath(out.ReadPath, p.resp.ReadPath)
			out.StaleFor = max(out.StaleFor, p.resp.StaleFor)
		}
		return out, nil
	case ReqTxnPrepare:
		return mergePrepareAnswers(req, parts), nil
	}
	return &Response{OK: true}, nil
}

// scatter is the one fan-out. start is offered every part first, in order, on
// the caller's goroutine, and reports whether it took the part on without
// blocking on another node — answered it outright (a lease read may wait,
// briefly and bounded, for an apply already in flight here), or begun it on
// this node's replica, its commands submitted and its answers on their way.
// A part start leaves
// (a nil start leaves all) blocks in finish — an RPC, a whole request's retry
// loop — and runs on a goroutine of its own unless it is the only part. Then
// finish runs for every part start took, in order, on the caller's goroutine:
// the answers are handed over as the commands apply, so waiting for one part
// delays none of the others. Each answer lands in its part (resp, err). The
// one error rule is that a real error beats errMoved: the retry loop only
// helps the moved case, and must not mask a persistent failure.
func scatter(parts []shardPart, start func(p *shardPart) bool, finish func(p *shardPart) (*Response, error)) error {
	var aside *sync.WaitGroup // made only when a part runs aside
	for i := range parts {
		p := &parts[i]
		if p.taken = start != nil && start(p) || len(parts) == 1; p.taken {
			continue
		}
		if aside == nil {
			aside = new(sync.WaitGroup)
		}
		aside.Add(1)
		go func(wg *sync.WaitGroup) {
			defer wg.Done()
			p.resp, p.err = finish(p)
		}(aside)
	}
	for i := range parts {
		if p := &parts[i]; p.taken {
			p.resp, p.err = finish(p)
		}
	}
	if aside != nil {
		aside.Wait()
	}
	var first error
	for i := range parts {
		if err := parts[i].err; err != nil && (first == nil || errors.Is(first, errMoved) && !errors.Is(err, errMoved)) {
			first = err
		}
	}
	return first
}

// mergeReadPath folds one more shard's read path into the report so far: any
// stale part makes the whole answer stale; all-lease stays lease; anything
// mixed with a sequenced part reports sequenced (the strongest contract all
// parts met is still linearizable either way).
func mergeReadPath(merged, p byte) byte {
	switch {
	case p == ReadStale || merged == ReadStale:
		return ReadStale
	case p != merged:
		return ReadSequenced
	}
	return merged
}

// doShard executes a single-shard request (shard -1: unknown, entry decides)
// over the best available path: a local lease or bounded-stale read, the
// in-process replica, or RPC. A Moved answer from the local replica — the key
// range is frozen mid-handoff, flipped to a new owner, or prepare-locked —
// goes back to Do as errMoved.
func (c *Client) doShard(ctx context.Context, shard int, req *Request) (*Response, error) {
	var call localCall
	c.start(ctx, shard, req, &call)
	resp, err := c.finish(ctx, shard, req, &call)
	if resp == nil && err == nil {
		resp = &Response{OK: true} // a local batch's
	}
	return resp, err
}

// localCall is what Client.start made of a request it took on: an answer it
// had at once (resp, err), or the request's commands begun on this node's
// replica (shardCall) for finish to wait out.
type localCall struct {
	shardCall
	resp *Response
	err  error
	t0   time.Time // when the commands were begun, for the local-path histogram
}

// start is the non-blocking half of doShard. It takes on what needs no other
// node: a local lease or bounded-stale read, answered at once; a shard this
// node should host but is still installing, answered Moved; and a request
// this node executes on its own replica, begun (Store.begin), numbered first
// if it came unnumbered. It reports false, touching nothing, for a request
// that must go over RPC. Its one wait is a lease read's for an apply this
// replica already has in flight — the accept of an entry it stored and acked
// — bounded by the lease's remaining time and ctx (shared.Replica.LeaseRead).
func (c *Client) start(ctx context.Context, shard int, req *Request, call *localCall) bool {
	if c.s == nil || shard < 0 || c.s.Replica(shard) == nil {
		// A shard this node SHOULD host but does not yet is being opened by
		// the slot's owner (a split in flight): its installation is a
		// change Do's loop waits for, instead of assuming a remote owner.
		if c.s != nil && shard >= 0 && c.s.expectsShard(shard) && !c.s.isClosed() {
			call.err = errMoved
			return true
		}
		return false
	}
	if req.Op == ReqGet {
		var ok bool
		if call.resp, ok = c.localFastRead(ctx, shard, req); ok {
			return true
		}
	}
	if req.Session == 0 {
		c.number(req)
	}
	c.localOps.Add(1)
	if c.localH != nil {
		call.t0 = time.Now()
	}
	call.err = c.s.beginRequest(&call.shardCall, shard, req)
	return true
}

// finish is doShard's other half: the answer to a request start took on —
// waited for, if start began it — or, for one start left, the RPC. A batch
// put begun here answers nil: its answer is success alone, which a part's
// caller (gather) spells once for the whole request.
func (c *Client) finish(ctx context.Context, shard int, req *Request, call *localCall) (*Response, error) {
	if call.w == nil {
		if call.resp == nil && call.err == nil {
			if req.Session == 0 {
				c.number(req)
			}
			return c.remoteCall(ctx, shard, req)
		}
		return call.resp, call.err
	}
	res, err := c.s.finish(ctx, &call.shardCall)
	if err != nil {
		return nil, err
	}
	if c.localH != nil {
		c.localH.Observe(time.Since(call.t0))
	}
	if req.Op == ReqBatchPut {
		return nil, nil
	}
	return res.response(), nil
}

// fastReads reports which read shortcuts req permits on this node's replicas
// (localFastRead): a bounded-stale read, and a lease read, which a stale
// request may ride too — it is current, so it satisfies any bound.
func (c *Client) fastReads(req *Request) (stale, lease bool) {
	if req.Op != ReqGet || c.s == nil {
		return false, false
	}
	return req.Flags&flagStaleRead != 0 && req.MaxStale > 0,
		req.Flags&(flagLeaseRead|flagStaleRead) != 0 && c.s.leasesOn()
}

// localFastRead tries the read shortcuts against this node's replica of
// shard: a bounded-stale read when the request permits one, then a
// lease-covered linearizable read, which may wait for an apply in flight
// (ctx bounds it, as the lease does). False means no shortcut applies — the
// replica holds no valid lease (or freshness bound), or a key is frozen or
// locked — and the caller runs the sequenced read marker as before.
func (c *Client) localFastRead(ctx context.Context, shard int, req *Request) (*Response, bool) {
	var t0 time.Time
	if c.localH != nil {
		t0 = time.Now()
	}
	stale, lease := c.fastReads(req)
	var one [1]string
	keys := req.readKeys(&one)
	if stale {
		if resp, ok := c.s.staleGet(shard, keys, req.MaxStale); ok {
			c.localOps.Add(1)
			c.staleReads.Add(1)
			if c.localH != nil {
				c.localH.Observe(time.Since(t0))
			}
			if id := req.traceID(); c.tracer.Sampled(id) {
				c.tracer.Addf(id, "served locally at staleness ≤%v", resp.StaleFor)
			}
			return resp, true
		}
	}
	if lease {
		if resp, ok := c.s.leaseGet(ctx, shard, keys); ok {
			c.localOps.Add(1)
			c.leaseReads.Add(1)
			if c.localH != nil {
				c.localH.Observe(time.Since(t0))
			}
			c.tracer.Add(req.traceID(), "served locally under lease")
			return resp, true
		}
	}
	return nil, false
}

// remoteCall sends a request over RPC, retrying across targets while the
// context allows: the shard's well-known address first (when the routing is
// known), then the entry node, then the store-wide anycast entry. Timeouts
// alternate targets — a shard address mid-failover re-locates to a surviving
// host (the RPC layer forgets silent routes), and an entry node can always
// forward. The session header makes the retries exactly-once, and a response from a
// node at a different routing epoch carries the new table, which the client
// adopts before any further routing.
func (c *Client) remoteCall(ctx context.Context, shard int, req *Request) (*Response, error) {
	cl, err := c.rpcClient()
	if err != nil {
		return nil, err
	}
	var targets []amoeba.Addr
	holder := c.readTarget(shard, req)
	if holder != 0 {
		targets = append(targets, holder)
	}
	if shard >= 0 {
		targets = append(targets, c.shardAddr(shard))
	}
	if c.entry != 0 {
		targets = append(targets, c.entry)
	}
	if c.anycast && c.entry != c.storeAddr {
		targets = append(targets, c.storeAddr)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("kv: shard %d is not hosted on this node and the client has no remote path (start a kv.Service on the hosting nodes)", shard)
	}
	// Without a caller deadline, bound the attempts so a store with no
	// services running fails with a clear error instead of spinning.
	attempts := 8
	if _, ok := ctx.Deadline(); ok {
		attempts = 1 << 30
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if err := ctx.Err(); err != nil {
			return nil, c.remoteErr(shard, err)
		}
		if d, ok := ctx.Deadline(); ok {
			req.Budget = time.Until(d)
			if req.Budget <= 0 {
				return nil, c.remoteErr(shard, context.DeadlineExceeded)
			}
		}
		target := targets[try%len(targets)]
		c.remoteOps.Add(1)
		// Direct = the shard's own well-known address or a steered lease
		// holder (one hop); anything else enters through a proxy node that
		// may forward.
		direct := shard >= 0 && target == c.shardAddr(shard) ||
			holder != 0 && target == holder
		pathH := c.fwdH
		if direct {
			pathH = c.directH
		}
		if id := req.traceID(); c.tracer.Sampled(id) { // asked first: Addf's arguments are boxed before it can decline them
			if direct {
				c.tracer.Addf(id, "sent direct to shard %d", shard)
			} else {
				c.tracer.Addf(id, "sent via entry %v", target)
			}
		}
		var t0 time.Time
		if pathH != nil {
			t0 = time.Now()
		}
		pkt := spell(func(dst []byte) []byte {
			return appendRequest(append(dst, make([]byte, amoeba.RPCHeaderSize)...), req)
		})
		reply, err := cl.CallPacket(ctx, target, pkt)
		if err != nil {
			lastErr = err
			if errors.Is(err, amoeba.ErrRPCTimeout) {
				continue // next target (or the same one, re-located)
			}
			return nil, c.remoteErr(shard, err)
		}
		resp, err := DecodeResponse(reply)
		if err != nil {
			return nil, c.remoteErr(shard, err)
		}
		if pathH != nil {
			pathH.Observe(time.Since(t0))
		}
		if resp.Routing != nil {
			c.adoptRouting(*resp.Routing)
		}
		if resp.Nodes > 0 {
			// Learn the topology: with it, subsequent lease reads steer
			// straight at the nodes hosting each shard.
			c.topoNodes.Store(int64(resp.Nodes))
			c.topoRepl.Store(int64(resp.Replication))
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("kv: remote: %s", resp.Err)
		}
		switch resp.ReadPath {
		case ReadLease:
			c.leaseReads.Add(1)
		case ReadStale:
			c.staleReads.Add(1)
		}
		// Trust nothing about arity: well-known addresses are reachable by
		// any process on the network, and a short reply must surface as an
		// error, not an index panic in the caller.
		if n := req.numKeys(); req.Op == ReqGet && (len(resp.Values) != n || len(resp.Found) != n) {
			return nil, c.remoteErr(shard, fmt.Errorf("kv: remote answered %d of %d requested keys", len(resp.Values), n))
		}
		return resp, nil
	}
	return nil, c.remoteErr(shard, lastErr)
}

// readTarget picks the node a flagged read should try first: one of the
// nodes hosting shard under the placement rule, rotated per read so a fleet
// of clients spreads its reads across every replica lease holder instead of
// converging on the shard's well-known address (whichever single host the
// RPC layer last located). Zero when steering does not apply — a write, an
// unflagged read, or topology not yet learned from a response.
func (c *Client) readTarget(shard int, req *Request) amoeba.Addr {
	if shard < 0 || req.Op != ReqGet || req.Flags&(flagLeaseRead|flagStaleRead) == 0 {
		return 0
	}
	nodes := int(c.topoNodes.Load())
	if nodes <= 1 {
		return 0
	}
	repl := int(c.topoRepl.Load())
	hosts := 0
	for j := 0; j < nodes; j++ {
		if hostsShard(shard, j, nodes, repl) {
			hosts++
		}
	}
	if hosts == 0 {
		return 0
	}
	// The read's turn picks the k-th host, counting up from node 0.
	k := c.readSeq.Add(1) % uint64(hosts)
	for j := 0; ; j++ {
		if hostsShard(shard, j, nodes, repl) {
			if k == 0 {
				return c.nodeAddr(j)
			}
			k--
		}
	}
}

func (c *Client) remoteErr(shard int, err error) error {
	if shard >= 0 {
		return fmt.Errorf("kv: shard %d (via RPC): %w", shard, err)
	}
	return fmt.Errorf("kv: via %v: %w", c.entry, err)
}

// --- The public operations ---------------------------------------------------

// Put stores key = val. When Put returns, the write is totally ordered on
// its shard and applied on the replica that served it.
func (c *Client) Put(ctx context.Context, key string, val []byte) error {
	_, err := c.Do(ctx, &Request{Op: ReqPut, Key: key, Val: val})
	return err
}

// Pair is one key/value pair for BatchPut.
type Pair struct {
	Key string
	Val []byte
}

// BatchPut writes several pairs at the cost of a few: pairs are grouped by
// owning shard, each shard's pairs travel as one ordered command (one per
// 32 KiB of them: one group message, one delivery, one journal entry and one
// apply on every replica, however many pairs it carries), and the shards'
// commands run in parallel — locally or across the RPC proxy. When BatchPut
// returns nil, every write is totally ordered on its shard. Writes to one
// shard apply in slice order; ordering across shards is independent, as for
// any multi-shard operation. A batch is not atomic: each pair is
// deduplicated and answered under its own id, so a batch cut short by a
// failure or a resharding may have landed in part, and retrying it
// re-executes only what did not (use Txn for all-or-nothing).
func (c *Client) BatchPut(ctx context.Context, pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	_, err := c.Do(ctx, &Request{Op: ReqBatchPut, Pairs: pairs})
	return err
}

// Delete removes key, reporting whether it existed at the delete's position
// in the total order.
func (c *Client) Delete(ctx context.Context, key string) (bool, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// CAS atomically replaces key's value with val if its current value equals
// expect. expect == nil means "key must be absent" (atomic create); to
// compare against a stored empty value, pass a non-nil empty slice. The
// outcome is decided by the shard's total order, so concurrent CAS calls on
// one key serialise identically on every node — and retries are deduplicated
// by the session header, so a CAS never observes its own first execution.
func (c *Client) CAS(ctx context.Context, key string, expect, val []byte) (bool, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqCAS, Key: key,
		ExpectPresent: expect != nil, Expect: expect, Val: val})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Get performs a sequenced (linearizable) read: a read marker travels the
// shard's total order and the returned value is the one at the marker's
// position, identical at every node — whichever access path served it. It
// reports false if the key is absent.
func (c *Client) Get(ctx context.Context, key string) ([]byte, bool, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Values[0], resp.Found[0], nil
}

// StaleGet reads key accepting results up to maxStale behind the total
// order — the opt-in follower read. Any replica that has heard a recent
// sequencer tick serves it from local state with no group send, so it is the
// read that survives lease churn and scales with the replica count. The
// returned staleness is the proven bound the serving state satisfied (zero
// when the read was served fresh — under a lease or by the sequenced marker,
// the fallback when no replica can prove the bound). maxStale <= 0 degrades
// to a plain linearizable Get.
func (c *Client) StaleGet(ctx context.Context, key string, maxStale time.Duration) ([]byte, bool, time.Duration, error) {
	if maxStale <= 0 {
		v, found, err := c.Get(ctx, key)
		return v, found, 0, err
	}
	resp, err := c.Do(ctx, &Request{Op: ReqGet, Flags: flagStaleRead, MaxStale: maxStale, Key: key})
	if err != nil {
		return nil, false, 0, err
	}
	return resp.Values[0], resp.Found[0], resp.StaleFor, nil
}

// copyVal detaches a value from the state machine's storage: callers own
// what they get back, and mutating it must not corrupt the local replica.
func copyVal(v []byte) []byte {
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// LocalGet reads key from this node's replica without any network traffic —
// the fast path for read-heavy workloads. The value reflects every command
// this node has applied, which may trail the total order by in-flight
// messages; this client's own completed operations are always visible. It
// reports false for keys whose shard this node does not host — including
// every key on a Dial'd client, which has no local replicas at all (use
// Store.HostsShard to tell the cases apart, or Get for a read that follows
// the proxy).
func (c *Client) LocalGet(key string) ([]byte, bool) {
	if c.s == nil {
		return nil, false
	}
	r := c.s.Replica(c.s.ShardFor(key))
	if r == nil {
		return nil, false
	}
	var (
		val   []byte
		found bool
	)
	r.Read(func(sm shared.StateMachine) {
		val, found = sm.(*mapSM).items[key]
	})
	return copyVal(val), found
}

// MGet performs a consistent multi-key read: the result maps each found key
// to its value (absent keys omitted), and the combined view is an atomic
// snapshot — no concurrent transaction or batch is ever observed
// half-applied. Keys on one shard are served by a single sequenced read
// marker; keys spanning shards run as a read-only transaction on the
// prepare machinery (every key briefly locked, values captured while all
// locks are held — see txn.go), which is what makes the cross-shard
// snapshot atomic.
func (c *Client) MGet(ctx context.Context, keys ...string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	req := &Request{Op: ReqGet, Keys: keys}
	if r, _ := c.routingRing(); oneShard(r, req) >= 0 {
		resp, err := c.Do(ctx, req)
		if err != nil {
			return nil, err
		}
		out := make(map[string][]byte, len(keys))
		for i, k := range keys {
			if resp.Found[i] {
				out[k] = resp.Values[i]
			}
		}
		return out, nil
	}
	// Multi-shard (or ring-less, where the serving node decides): a
	// read-only transaction captures all keys under one set of locks.
	res, err := c.Txn(ctx, TxnOp{Reads: keys})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for i, k := range keys {
		if i < len(res.Found) && res.Found[i] {
			out[k] = res.Values[i]
		}
	}
	return out, nil
}

// --- Local execution (the in-process fast path) ------------------------------

// shardCall is one shard's commands on their way through this node's replica,
// split in two so that a caller with several shards to write starts them all
// before it waits for any (scatter): begin claims the ids with the replica's
// state machine and starts the submission, finish waits for both to come back.
type shardCall struct {
	shard int
	// The commands: a batch put's, answered under its pairs' seqs of
	// session, or else a lone command answered under its waiter id. A lone
	// command — a batch's too, when its pairs fit one — is held as cmd, and
	// its one-element list is a temporary of begin's that needs no heap.
	session uint64
	seqs    []uint64
	cmds    [][]byte
	id      uint64
	cmd     []byte
	r       *shared.Replica // the replica it was begun on
	w       *answerWaiter   // its claims and the submission's outcome; nil until begun
}

// beginRequest translates a single-shard request into deduplicated shard
// commands and begins them on this node's replica of shard, into c. It is the
// shared execution path of node-bound clients and the Service.
func (s *Store) beginRequest(c *shardCall, shard int, req *Request) error {
	h := header{session: req.Session, seq: req.ID, ack: req.Ack}
	var op byte
	var cmd []byte
	switch req.Op {
	case ReqPut:
		op, cmd = opPut, encodePut(h, req.Key, req.Val)
	case ReqDelete:
		op, cmd = opDelete, encodeDelete(h, req.Key)
	case ReqCAS:
		op, cmd = opCAS, encodeCAS(h, req.Key, req.ExpectPresent, req.Expect, req.Val)
	case ReqGet:
		var one [1]string
		op, cmd = opGet, encodeGet(h, req.readKeys(&one))
	case ReqBatchPut:
		c.shard, c.session, c.seqs = shard, req.Session, req.IDs
		c.cmd, c.cmds = batchPutCommands(h, req.IDs, req.Pairs)
		return s.begin(c)
	case ReqTxnPrepare:
		op, cmd = opTxnPrepare, encodeTxnPrepare(h, req.Attempt, req.HomeKey, req.AllKeys, req.Keys, req.Writes, req.Conds)
	case ReqTxnResolve:
		op, cmd = opTxnResolve, encodeTxnResolve(h, req.Attempt, req.Commit, req.HomeKey, req.AllKeys)
	default:
		return fmt.Errorf("kv: unknown request op %d", req.Op)
	}
	c.shard, c.id, c.cmd = shard, waitID(op, req.Session, req.ID, req.Attempt), cmd
	return s.begin(c)
}

// response renders a command's answer as the access protocol's, with copies
// of the values it carries: a read's alias the state machine's storage.
func (res *result) response() *Response {
	out := &Response{OK: res.OK, TxnState: res.TxnState, Conflict: res.Conflict, CondFailed: res.CondFailed}
	if res.Values != nil {
		out.Values, out.Found = append([][]byte(nil), res.Values...), append([]bool(nil), res.Found...)
		detach(out.Values)
	}
	return out
}

// do runs one command on shard to the end: begin, then finish.
func (s *Store) do(ctx context.Context, shard int, id uint64, cmd []byte) (result, error) {
	c := shardCall{shard: shard, id: id, cmd: cmd}
	if err := s.begin(&c); err != nil {
		return result{}, err
	}
	return s.finish(ctx, &c)
}

// begin registers c's waiter ids with the state machine of this node's
// replica of c.shard and then starts submitting c's commands, waiting for
// neither. The ids are registered BEFORE the submission, and each answer is
// handed over as its command applies (answerWaiter): nothing is looked up
// afterwards, so neither the number of ids nor what the shard frees meanwhile
// matters, nor how long the caller takes to come back for them.
func (s *Store) begin(c *shardCall) error {
	r := s.Replica(c.shard)
	if r == nil {
		return fmt.Errorf("kv: shard %d is not hosted on this node (replication %d)", c.shard, s.opts.Replication)
	}
	w := answerWaiters.Get().(*answerWaiter)
	ids, cmds := w.ids[:0], c.cmds
	if c.seqs == nil {
		ids = append(ids, c.id)
	} else {
		for _, seq := range c.seqs {
			ids = append(ids, cmdID(c.session, seq))
		}
	}
	if cmds == nil {
		cmds = [][]byte{c.cmd}
	}
	w.ids = ids
	r.Read(func(sm shared.StateMachine) { sm.(*mapSM).expect(w, ids) })
	c.r, c.w = r, w
	r.Start(cmds, w.started)
	return nil
}

// finish waits for a begun call until the submission has completed and the
// local replica has answered every id — until each command is totally ordered
// (and, with resilience, stored by r other members) AND applied locally (an id
// that repeats is answered by its first application; a later one changes
// nothing), which gives read-your-writes even for LocalGet. A failed
// submission (a command over the group's size limit) returns at once. It
// returns the first id's answer, errStale if any command was refused as
// stale, and errMoved if any was refused as moved (a batch that straddled an
// epoch flip: the caller re-splits and only the refused pairs re-execute).
//
// If the local replica stops mid-operation (expelled by a recovery this node
// missed), finish begins the call again on the replacement the store's
// self-heal swaps in, whose installation wakes it. Retrying is safe: commands
// are deduplicated by (session, seq) in the replicated state machine, and if
// the first attempt did commit, the rejoined replica's transferred state
// holds its outcome, which the re-application meets and hands over.
func (s *Store) finish(ctx context.Context, c *shardCall) (result, error) {
	for {
		r, w := c.r, c.w
		err := w.wait(ctx, r.Stopped())
		if err == nil {
			// Every claim is answered and unlinked, and the submission has
			// reported: nothing references w any more. This is the only path
			// that recycles it.
			first, moved, stale := w.first, w.moved, w.stale
			w.first, w.moved, w.stale = result{}, false, false
			answerWaiters.Put(w)
			switch {
			case stale:
				return first, fmt.Errorf("kv: shard %d: %w", c.shard, errStale)
			case moved:
				return first, errMoved
			}
			return first, nil
		}
		// Leaving without the answers: withdraw the claims. w is let go, not
		// recycled — its last answer or the submission's outcome may yet
		// arrive.
		r.Read(func(sm shared.StateMachine) { sm.(*mapSM).forget(w) })
		// ErrStopped: the replica stopped under us. ErrNotMember: an
		// in-flight submission was aborted by the expulsion itself. Both mean
		// "this replica is gone"; wait for the slot's owner to swap in a
		// fresh one — unless the whole store is closed.
		if !errors.Is(err, shared.ErrStopped) && !errors.Is(err, amoeba.ErrNotMember) {
			return result{}, fmt.Errorf("kv: shard %d: %w", c.shard, err)
		}
		if s.isClosed() {
			return result{}, fmt.Errorf("kv: shard %d: %w", c.shard, shared.ErrStopped)
		}
		// The channel is taken before the re-check, so a swap on either
		// side of it is seen.
		if wake := s.RoutingWatch(); s.Replica(c.shard) == r && s.awaitChange(ctx, wake) != nil {
			return result{}, fmt.Errorf("kv: shard %d: %w", c.shard, err)
		}
		if err := s.begin(c); err != nil {
			return result{}, err
		}
	}
}

// batchPutCommands packs one shard's pairs, pairs[i] under seqs[i] of h's
// session, into commands in slice order. A command is filled to
// maxCommandBytes, so a shard's pairs usually travel as one ordered message:
// then it comes back alone, as cmd, and cmds is nil. However many commands
// and pairs there are, they are one submission and one wait.
func batchPutCommands(h header, seqs []uint64, pairs []Pair) (cmd []byte, cmds [][]byte) {
	for start := 0; start < len(pairs); {
		end, size := start, 0
		for end < len(pairs) {
			need := batchPairBytes(pairs[end])
			if end > start && size+need > maxCommandBytes {
				break
			}
			size += need
			end++
		}
		next := encodeBatchPut(h, seqs[start:end], pairs[start:end])
		if start == 0 && end == len(pairs) {
			return next, nil
		}
		cmds = append(cmds, next)
		start = end
	}
	return nil, cmds
}
