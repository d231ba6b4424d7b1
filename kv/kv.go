// Package kv is a sharded, replicated key-value service built on the group
// communication system: the layer the paper's §5 applications point toward,
// scaled past the single-sequencer bottleneck.
//
// A store partitions its keyspace by consistent hashing across N independent
// shard groups. Each shard is a shared.Replica — a map state machine kept
// identical on every node by the group's total order, with Isis-style atomic
// state transfer when a node (re)joins. Because every shard has its own
// sequencer, and Bootstrap spreads the shards' sequencers round-robin across
// the nodes, aggregate write throughput grows with the shard count instead
// of saturating one sequencer machine — the multi-group scaling the paper
// measures in Figure 6, put to work.
//
// # Topology
//
// By default every node hosts one replica of every shard, so any node can
// serve any key locally. Options.Replication bounds the factor instead:
// shard i then lives only on nodes {i, …, i+R−1} mod nodes, each write
// interrupts R machines rather than all of them, and aggregate capacity
// grows with the node count — the deployment shape behind the sharded
// benchmark. Nodes are created together with Bootstrap (which places shard
// i's sequencer on node i mod nodes) or added later with Join (which
// state-transfers every hosted shard).
//
// The shard count is NOT frozen at Bootstrap: Store.Resharding splits or
// merges a live store's shard groups under load, coordinating the handoff
// through an epoch-versioned routing table (see Routing and reshard.go) —
// the way the paper's Amoeba applications added groups as load grew.
//
// # Consistency
//
// Writes (Put, Delete, CAS) are sequenced through the owning shard's total
// order. Reads come in two strengths: Client.Get/MGet inject a read marker
// into the same total order and report the value at the marker's position —
// linearizable, at the cost of a group send; Client.LocalGet reads the local
// replica directly — no network traffic, but it may trail the total order.
package kv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/shared"
	"amoeba/wal"
)

// Options configures a store.
type Options struct {
	// Shards is the number of independent shard groups at bootstrap
	// (default 4). All nodes of one store must agree on it; the live count
	// afterwards is governed by the routing table (Store.Routing) and
	// changed with Store.Resharding.
	Shards int
	// Replication is the number of nodes hosting each shard. 0 (the
	// default) replicates every shard on every node, so any node serves
	// any key locally. A bounded factor (2 or 3) places shard i on nodes
	// {i, i+1, …, i+R−1} mod nodes: each write then interrupts only R
	// machines instead of all of them, which is what lets aggregate
	// throughput grow with the node count — but a Client can only reach
	// shards its node hosts, and live resharding requires full
	// replication.
	Replication int
	// Nodes is the cluster's node count — the modulus of the placement
	// rule. Bootstrap fills it in; Join with bounded replication requires
	// it (with NodeIndex) to know which shards to host. A node joined
	// without it places itself as the only node, which full replication
	// does not mind (Store.nodes holds that default).
	Nodes int
	// NodeIndex is this node's placement slot in [0, Nodes). Bootstrap
	// fills it in; Join with bounded replication requires it (a
	// replacement node takes the slot of the node it replaces).
	NodeIndex int
	// ResultWindow is ignored. It bounded a count window of command
	// results, the exactly-once horizon before client sessions; a shard now
	// keeps a session's outcomes until the client acknowledges them (see
	// session.go). The field stays so that callers which set it build.
	ResultWindow int
	// DataDir, when set, makes every hosted shard durable: each replica
	// journals its deliveries to a write-ahead log under
	// DataDir/<store>/node-<n>/shard-<i> and checkpoints snapshots, so a
	// restart of every node at once — the failure replication cannot mask
	// — recovers all data and the command-id dedup state (retried
	// commands stay exactly-once across the restart). Requires Nodes and
	// NodeIndex (Bootstrap fills them in). Empty (the default) keeps the
	// paper's in-memory semantics.
	DataDir string
	// WALSync fsyncs every journal append: durability against power loss
	// rather than process crashes, at a throughput cost.
	WALSync bool
	// WALFS is the file system every shard replica's log does its I/O
	// through (nil: the operating system's). Each log names its own
	// directory in every call, so one wrapper can fail a single replica's
	// disk (see wal.Options.FS).
	WALFS wal.FS
	// TxnRecoveryAfter is how long a transaction's prepare locks may sit
	// before the per-node janitor asks the home shard to arbitrate — the
	// coordinator client died mid-2PC (default 3s). Recovery is
	// idempotent, so a timid value only delays lock release and an eager
	// one only races (and loses to) a live coordinator's own resolve.
	TxnRecoveryAfter time.Duration
	// AuditEvery, when positive, runs the self-audit driver: every period
	// each hosted shard's sequencer submits a sequenced audit command, all
	// replicas digest their state at the same position in the total order,
	// and the node-local auditor (Group.Obs.Health) compares the digests —
	// flagging any divergence with its shard, audit seq, and key-range.
	// Zero (the default) disables the periodic driver; AuditNow still
	// works, and replicas still report digests for audits other nodes
	// submit.
	AuditEvery time.Duration
	// Leases enables sequencer-granted read leases on every shard group:
	// replicas holding a valid lease serve Get/MGet from local state —
	// linearizable without a group send — and every replica answers
	// Client.StaleGet at a bounded staleness. The price is on the write
	// path (acceptance waits for each live lease holder's stored-ack) and
	// on failover (the group pauses while old grants expire); see
	// amoeba.GroupOptions.LeaseDur. Defaults Group.LeaseDur to 2s and
	// Group.SyncInterval to 250ms when they are unset; setting
	// Group.LeaseDur directly works too.
	Leases bool
	// Group configures every shard group (resilience, method, history —
	// see amoeba.GroupOptions).
	Group amoeba.GroupOptions
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.TxnRecoveryAfter <= 0 {
		o.TxnRecoveryAfter = 3 * time.Second
	}
	if o.Leases && o.Group.LeaseDur <= 0 {
		o.Group.LeaseDur = 2 * time.Second
	}
	if o.Group.LeaseDur > 0 {
		o.Leases = true
		if o.Group.SyncInterval <= 0 {
			// The default 500ms tick would leave little renewal headroom
			// under a 2s lease; grant on a tighter cadence.
			o.Group.SyncInterval = 250 * time.Millisecond
		}
	}
	return o
}

// shardGroupName names shard i's group. Group names are global on the
// network, so the store name namespaces them.
func shardGroupName(store string, i int) string {
	return fmt.Sprintf("kv/%s/shard-%d", store, i)
}

// shardDataDir is one replica's private log directory: per store, per node
// slot, per shard — two replicas must never share a log.
func shardDataDir(dataDir, store string, node, shard int) string {
	return filepath.Join(dataDir, store, fmt.Sprintf("node-%d", node), fmt.Sprintf("shard-%d", shard))
}

// hostsShard reports whether placement slot nodeIndex hosts shard i under
// the placement rule: shard i lives on nodes {i, i+1, …, i+repl−1} mod
// nodes. repl ≤ 0 means full replication.
func hostsShard(i, nodeIndex, nodes, repl int) bool {
	if repl <= 0 || repl >= nodes {
		return true
	}
	return (nodeIndex-i%nodes+nodes)%nodes < repl
}

// Store is one node's handle on a sharded store: a replica of every shard it
// hosts, on a single kernel.
//
// Every hosted shard slot has one owner, a goroutine (hostShard) that is the
// only code putting a replica into the slot or taking one out. The owner
// opens the slot's replica and keeps it: if the replica is expelled — the
// group recovered while this node was too slow to vote, the paper's
// unreliable failure detector at work — the owner rejoins the shard with
// atomic state transfer and swaps the fresh replica in. Client operations
// in flight across the swap fail with ErrStopped internally and are retried
// against the new replica (commands are deduplicated by id, so a retry of an
// already-applied command is not re-executed).
//
// A store also follows the routing table: when a migrate-begin announcing
// new shard groups is applied by any hosted replica, the store starts an
// owner for every new slot this node should host, which creates or joins
// the slot's group; when an epoch flip retires a slot (a merge), its owner
// leaves the group and reclaims the log. Every node converges on the table
// independently — the coordinator only drives the sequenced commands.
type Store struct {
	name   string
	opts   Options
	kernel *amoeba.Kernel

	// The node-local view of the replicated routing table: the highest
	// epoch any hosted replica has applied, plus the per-shard pending
	// (mid-handoff) tables still installed. pendingRt derives from
	// shardPending: it stays non-nil while ANY hosted shard still
	// carries a pending table — even after the store-level epoch already
	// flipped (a crash between per-shard commits leaves stragglers whose
	// freeze only the resume path can lift). Guarded by routeMu;
	// routeWake is closed and replaced on every change, whenever a hosted
	// replica is installed, swapped or retired, and when a hold clears for
	// a refused local caller (see RoutingWatch).
	routeMu      sync.RWMutex
	routing      Routing
	ring         *ring
	pendingRt    *Routing
	shardPending map[int]Routing
	routeWake    chan struct{}

	// sess numbers this store's own sequenced commands (the migration
	// protocol and audits), as a client's session numbers its commands.
	sess session

	// reshardMu serialises coordinators on this node; coordinating marks
	// an active handoff driven from this node (it elects this node the
	// creator of in-memory split groups).
	reshardMu    sync.Mutex
	coordinating atomic.Bool

	// shards is written only by each slot's owner (hostShard); owners
	// records the slots that have one.
	mu     sync.RWMutex
	shards []*shared.Replica // index = shard id; grows on split
	owners map[int]bool
	closed bool

	// Read-path counters: how many reads each shortcut served and how many
	// fell back to the sequenced read marker. Exported as the
	// amoeba_kv_lease_* metric families.
	leaseServed   atomic.Uint64
	leaseFallback atomic.Uint64
	staleServed   atomic.Uint64
	staleFallback atomic.Uint64
	obsUnreg      func()

	// healCtx ends at shutdown; healWG counts the owners and background
	// loops shutdown waits for.
	healCtx    context.Context
	healCancel context.CancelFunc
	healWG     sync.WaitGroup
}

func newStore(name string, k *amoeba.Kernel, opts Options) *Store {
	ctx, cancel := context.WithCancel(context.Background())
	rt := Routing{Epoch: 0, Shards: opts.Shards, VNodes: defaultVirtualNodes}
	s := &Store{
		name:         name,
		opts:         opts,
		kernel:       k,
		routing:      rt,
		ring:         rt.ring(name),
		shardPending: make(map[int]Routing),
		routeWake:    make(chan struct{}),
		shards:       make([]*shared.Replica, opts.Shards),
		owners:       make(map[int]bool),
		healCtx:      ctx,
		healCancel:   cancel,
	}
	s.obsUnreg = opts.Group.Obs.Registry().RegisterSource(func() []obs.Sample {
		return []obs.Sample{
			{Name: "amoeba_kv_lease_reads_total", Value: s.leaseServed.Load()},
			{Name: "amoeba_kv_lease_fallbacks_total", Value: s.leaseFallback.Load()},
			{Name: "amoeba_kv_stale_reads_total", Value: s.staleServed.Load()},
			{Name: "amoeba_kv_stale_fallbacks_total", Value: s.staleFallback.Load()},
		}
	})
	return s
}

// newShardSM builds shard i's state machine, wired to report routing changes
// back to this store.
func (s *Store) newShardSM(shard int) *mapSM {
	sm := newMapSM(s.name, shard, s.Routing(), s.noteRouting)
	if hub := s.opts.Group.Obs; hub != nil {
		sm.tracer = hub.Tracer()
		sm.flight = hub.Flight()
		aud, node := hub.Health(), auditNodeName(s.opts.NodeIndex)
		sm.onAudit = func(shard int, d obs.Digest) {
			aud.Report(auditScope(s.name, shard), node, d)
		}
	}
	return sm
}

// run submits one command of the store's own session — a migration step or
// an audit, spelled by encode under the header it is given — through shard's
// total order and waits for its answer.
func (s *Store) run(ctx context.Context, shard int, op byte, encode func(header) []byte) (result, error) {
	session, seq, ack := s.sess.begin(1)
	defer s.sess.end(session, seq, 1)
	return s.do(ctx, shard, waitID(op, session, seq, 0), encode(header{session: session, seq: seq, ack: ack}))
}

// Routing returns the store's current routing table: the highest epoch any
// hosted replica has applied.
func (s *Store) Routing() Routing {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.routing
}

// PendingRouting returns the mid-handoff table a migrate-begin announced, or
// nil when no handoff is in progress.
func (s *Store) PendingRouting() *Routing {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	if s.pendingRt == nil {
		return nil
	}
	rt := *s.pendingRt
	return &rt
}

// routingRing returns the current ring and table under one lock.
func (s *Store) routingRing() (*ring, Routing) {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.ring, s.routing
}

// RoutingWatch returns a channel closed at the next routing change (epoch
// flip, handoff start or end), change to the set of replicas this node
// hosts (one installed by a split or a join, swapped in by the self-heal, or
// retired by a merge), or release of a prepare lock or freeze by a hosted
// replica that has refused a local caller since it last fired. Re-call after
// each wakeup for the next one. It is the one event everything held on
// node-local state waits for: take the channel, then look at the state, then
// wait — a change between the look and the wait has already closed the
// channel.
func (s *Store) RoutingWatch() <-chan struct{} {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.routeWake
}

// replicasChanged wakes RoutingWatch's waiters after the hosted replica set
// changed.
func (s *Store) replicasChanged() {
	s.routeMu.Lock()
	close(s.routeWake)
	s.routeWake = make(chan struct{})
	s.routeMu.Unlock()
}

// noteRouting folds one replica's routing state into the node-local view,
// and wakes RoutingWatch's waiters if the view changed or wake is set (a hold
// cleared on a replica that refused a local caller). It is called by shard
// state machines under their replica lock (including during write-ahead-log
// recovery), so it must not call back into replicas; topology work happens
// on the goroutines its RoutingWatch wakeup reaches.
func (s *Store) noteRouting(shard int, cur Routing, pending Routing, hasPending, wake bool) {
	s.routeMu.Lock()
	changed := wake
	if cur.Epoch > s.routing.Epoch || (cur.Epoch == s.routing.Epoch && cur.Shards != s.routing.Shards) {
		s.routing = cur
		s.ring = cur.ring(s.name)
		changed = true
	}
	if hasPending {
		if prev, ok := s.shardPending[shard]; !ok || prev != pending {
			s.shardPending[shard] = pending
			changed = true
		}
	} else if _, ok := s.shardPending[shard]; ok {
		delete(s.shardPending, shard)
		changed = true
	}
	// The derived pending view: the highest-epoch table any hosted shard
	// still carries. NOT gated on the store-level epoch — a straggler
	// whose siblings already committed must keep the handoff resumable.
	var best *Routing
	for _, p := range s.shardPending {
		if best == nil || p.Epoch > best.Epoch {
			p := p
			best = &p
		}
	}
	switch {
	case best == nil && s.pendingRt != nil,
		best != nil && (s.pendingRt == nil || *best != *s.pendingRt):
		s.pendingRt = best
		changed = true
	}
	if changed {
		close(s.routeWake)
		s.routeWake = make(chan struct{})
	}
	s.routeMu.Unlock()
}

// span returns the committed routing table, whether a handoff is pending,
// and how many shard slots the committed and pending tables span together.
func (s *Store) span() (cur Routing, pending bool, want int) {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	want = s.routing.Shards
	if s.pendingRt != nil {
		want = max(want, s.pendingRt.Shards)
	}
	return s.routing, s.pendingRt != nil, want
}

// nodes is the placement modulus: Options.Nodes, or 1 for a node joined
// without it.
func (s *Store) nodes() int { return max(s.opts.Nodes, 1) }

// start launches the loops that run beside the slot owners: the topology
// loop, the transaction janitor and, when configured, the audit driver.
// Called once construction succeeded.
func (s *Store) start() {
	s.healWG.Add(1)
	go s.followTopology()
	s.healWG.Add(1)
	go s.txnJanitor(s.healCtx)
	if s.opts.AuditEvery > 0 && s.opts.Group.Obs != nil {
		s.healWG.Add(1)
		go s.auditDriver(s.healCtx)
	}
}

// flight returns the store's flight recorder (nil-safe: a nil hub records
// nothing).
func (s *Store) flight() *obs.Recorder {
	return s.opts.Group.Obs.Flight()
}

// followTopology starts an owner for every slot the committed or a pending
// routing table gives this node that has none — the half of a split every
// node runs on its own; the coordinator only drives the sequenced migration
// commands. It looks again at every routing or hosted-set change.
func (s *Store) followTopology() {
	defer s.healWG.Done()
	for {
		wake := s.RoutingWatch()
		_, _, want := s.span()
		for i := 0; i < want; i++ {
			if hostsShard(i, s.opts.NodeIndex, s.nodes(), s.opts.Replication) {
				s.own(i, nil)
			}
		}
		select {
		case <-wake:
		case <-s.healCtx.Done():
			return
		}
	}
}

// bootOpen is a Bootstrap or Join waiting for one slot's first replica.
type bootOpen struct {
	ctx   context.Context // bounds the first open
	found bool            // see openShard
	done  func(error)     // called once: nil when the replica is installed
}

// own starts slot i's owner unless the slot has one or the store is shutting
// down. boot is set when Bootstrap or Join opens the slot: it has no owner
// yet, and the store is not shutting down, so boot is always told.
func (s *Store) own(i int, boot *bootOpen) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.owners[i] {
		return
	}
	for len(s.shards) <= i {
		s.shards = append(s.shards, nil)
	}
	s.owners[i] = true
	s.healWG.Add(1)
	go s.hostShard(i, boot)
}

// hostShard owns shard slot i for as long as this node hosts it: it is the
// only code that puts a replica into s.shards[i] or takes one out. It opens
// the slot's replica, retrying with backoff, and reopens it whenever it
// stops (the self-heal). Once a committed table drops the slot (a merge), it
// retires the replica, or gives the slot up if it never opened one. It
// returns at shutdown, which closes or leaves what the slot still holds.
//
// A boot owner's first open runs under the Bootstrap or Join ctx and is
// reported to it; a failure other than a transient one ends the owner, as
// does the ctx ending. Later opens retry every failure: giving up would
// strand the shard on this node forever.
func (s *Store) hostShard(i int, boot *bootOpen) {
	defer s.healWG.Done()
	// put installs r in the slot, or with nil empties the slot and gives it
	// up. It refuses once shutdown has begun.
	put := func(r *shared.Replica) bool {
		s.mu.Lock()
		ok := !s.closed
		if ok {
			s.shards[i] = r
			if r == nil {
				delete(s.owners, i)
			}
		}
		s.mu.Unlock()
		if ok {
			s.replicasChanged()
		}
		return ok
	}
	var (
		rep     *shared.Replica
		backoff time.Duration
	)
	for {
		wake := s.RoutingWatch()
		cur, pending, want := s.span()
		switch {
		case rep == nil && boot == nil && i >= want:
			put(nil)
			return
		case rep != nil && !pending && i >= cur.Shards:
			// Retire: wait until the replica has applied its own epoch flip,
			// so the departure is sequenced after the commit, leave the group
			// in total order, and reclaim the log directory.
			err := rep.Wait(s.healCtx, func(sm shared.StateMachine) bool {
				return sm.(*mapSM).routing.Epoch >= cur.Epoch
			})
			if !put(nil) {
				return
			}
			if err == nil {
				ctx, cancel := leaveCtx()
				_ = rep.Leave(ctx)
				cancel()
			}
			rep.Close()
			if s.opts.DataDir != "" {
				// The shard's history now lives (merged) in the surviving
				// shards' logs; a leftover directory would only resurrect a
				// zombie group at the next restart.
				_ = os.RemoveAll(shardDataDir(s.opts.DataDir, s.name, s.opts.NodeIndex, i))
			}
			return
		case rep != nil:
			select {
			case <-wake:
				continue
			case <-s.healCtx.Done():
				return
			case <-rep.Stopped():
				rep.Close() // release the expelled replica's transfer service (and log)
			}
		}
		ctx, found := s.healCtx, rep == nil && s.opts.DataDir == "" && s.coordinating.Load()
		if boot != nil {
			ctx, found = boot.ctx, boot.found
		}
		r, err := s.openShard(ctx, i, found)
		switch {
		case err == nil:
			if !put(r) {
				r.Close()
				return
			}
			rep, backoff = r, 0
			if boot != nil {
				boot.done(nil)
				boot = nil
			}
			continue
		// The failures a group in mid-recovery produces are transient:
		// ErrNoGroup (the sequencer died and the survivors have not rebuilt
		// yet, or the join raced a reset), ErrTransferFailed (no member could
		// donate a current snapshot in time), and ErrNotMember (a recovery
		// excluded the half-joined member before the transfer finished).
		case boot != nil && (ctx.Err() != nil || !errors.Is(err, amoeba.ErrNoGroup) &&
			!errors.Is(err, shared.ErrTransferFailed) && !errors.Is(err, amoeba.ErrNotMember)):
			boot.done(fmt.Errorf("kv: node %d opening %s: %w", s.opts.NodeIndex, shardGroupName(s.name, i), err))
			return
		case s.healCtx.Err() != nil:
			return
		}
		// A timer, not the change channel: a group failing transiently
		// raises no event on this node.
		backoff = min(max(2*backoff, 20*time.Millisecond), time.Second)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
	}
}

// leaveCtx bounds a departure nobody waits on: a retiring slot's, or an
// abandoned boot's.
func leaveCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// Bootstrap creates a store named name across the given kernels (one node
// per kernel) and returns a Store handle per node, in kernel order. Shard
// i's group is created by node i mod len(kernels) — spreading the
// sequencers, so with as many nodes as shards every node sequences exactly
// one shard — and joined by every other node.
//
// With Options.DataDir set the store is durable, and Bootstrap doubles as
// the restart path: when the store's directory already exists, every node
// recovers its shards from their write-ahead logs (including shards a past
// Resharding added — the shard count is discovered from the logs, not taken
// from Options) and the shards' groups are reformed from the longest
// surviving log each (see shared.Open) — so re-running Bootstrap after
// killing every node brings the store back with all data intact. A handoff
// the crash interrupted is resumed (or, if it had already committed
// anywhere, completed) before Bootstrap returns; see Store.Resharding.
//
// Group creation is not atomic (paper §5); Bootstrap assumes no concurrent
// store of the same name is being created on the same network.
func Bootstrap(ctx context.Context, kernels []*amoeba.Kernel, name string, opts Options) ([]*Store, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("kv: bootstrap of %q needs at least one kernel", name)
	}
	opts = opts.withDefaults()
	opts.Nodes = len(kernels)
	// A durable store's directory that does not exist yet marks a genuine
	// first boot, letting each shard's preferred creator skip the survivor
	// probe; an existing directory is a restart, and every shard runs the
	// full recover-join-or-elect path.
	fresh, shardCount := true, opts.Shards
	if opts.DataDir != "" {
		_, err := os.Stat(filepath.Join(opts.DataDir, name))
		if fresh = os.IsNotExist(err); !fresh {
			for n := range kernels {
				shardCount = discoverShardCount(opts.DataDir, name, n, shardCount)
			}
		}
	}
	stores := make([]*Store, len(kernels))
	for n := range kernels {
		o := opts
		o.NodeIndex = n
		stores[n] = newStore(name, kernels[n], o)
	}
	if err := openHosted(ctx, stores, shardCount, fresh); err != nil {
		for _, s := range stores {
			s.abandon()
		}
		return nil, err
	}
	for _, s := range stores {
		s.start()
	}
	// A crash mid-handoff leaves pending routing in the recovered state;
	// finish the migration deterministically before handing the store out.
	if !fresh {
		if err := stores[0].resumeResharding(ctx); err != nil {
			for _, s := range stores {
				s.Close()
			}
			return nil, fmt.Errorf("kv: resuming interrupted resharding of %q: %w", name, err)
		}
		// Likewise for transactions a kill-all interrupted between prepare
		// and commit: the coordinators are certainly gone, so arbitrate
		// every in-doubt prepare now instead of waiting out the janitor.
		stores[0].recoverInDoubt(ctx, 0)
	}
	return stores, nil
}

// discoverShardCount inspects one node's data directory for shard logs a
// past Resharding may have added beyond the configured bootstrap count.
func discoverShardCount(dataDir, store string, node, configured int) int {
	n := configured
	entries, err := os.ReadDir(filepath.Join(dataDir, store, fmt.Sprintf("node-%d", node)))
	if err != nil {
		return n
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "shard-") {
			continue
		}
		if i, err := strconv.Atoi(name[len("shard-"):]); err == nil && i+1 > n {
			n = i + 1
		}
	}
	return n
}

// Join adds a node to a running store: every shard group the node's
// placement slot hosts is joined with atomic state transfer, so when Join
// returns the node holds up-to-date replicas and serves reads and writes
// like any bootstrap node. With full replication (the default) that is every
// shard; with bounded replication, set Options.Nodes and Options.NodeIndex
// to the slot being (re)filled. Use it to grow a store or to re-admit a
// crashed node. With Options.DataDir set (Nodes and NodeIndex are then
// required), it (re)starts one durable node: every hosted shard is recovered
// from its write-ahead log and then rejoins its group — or, when the whole
// group is gone (a full-cluster restart), takes part in reforming it from
// the surviving logs. That is the call when each node runs in its own
// process, or to re-admit a single restarted durable node (Bootstrap
// restarts whole single-process clusters).
func Join(ctx context.Context, k *amoeba.Kernel, name string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Replication > 0 && opts.Nodes <= 0 {
		return nil, fmt.Errorf("kv: joining %q with bounded replication requires Options.Nodes and Options.NodeIndex", name)
	}
	if opts.DataDir != "" && opts.Nodes <= 0 {
		return nil, fmt.Errorf("kv: joining %q durably requires Options.Nodes and Options.NodeIndex (the cold-start election needs the node's slot)", name)
	}
	shardCount := opts.Shards
	if opts.DataDir != "" {
		shardCount = discoverShardCount(opts.DataDir, name, opts.NodeIndex, shardCount)
	}
	s := newStore(name, k, opts)
	if err := openHosted(ctx, []*Store{s}, shardCount, false); err != nil {
		s.abandon()
		return nil, err
	}
	s.start()
	return s, nil
}

// openHosted opens, on each store, every slot below shardCount its placement
// slot hosts, each by the slot's owner, and returns once all are installed.
// They open side by side, across the stores too — a durable shard's
// cold-start election needs its peers up — except that the slots a store
// founds go first, so no joiner at a fresh in-memory boot waits out a retry
// for a group that is not made yet. fresh marks a store's first boot. The
// first failure wins and cancels the rest: a joiner whose creator never came
// up retries until its context ends, so without this a single bad data
// directory would hang the whole boot.
func openHosted(ctx context.Context, stores []*Store, shardCount int, fresh bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	for _, founders := range []bool{true, false} {
		var wg sync.WaitGroup
		for _, s := range stores {
			for i := 0; i < shardCount; i++ {
				found := fresh && (s.opts.DataDir != "" || i%s.nodes() == s.opts.NodeIndex)
				if found != founders || !hostsShard(i, s.opts.NodeIndex, s.nodes(), s.opts.Replication) {
					continue
				}
				wg.Add(1)
				s.own(i, &bootOpen{ctx: ctx, found: found, done: func(err error) {
					defer wg.Done()
					mu.Lock()
					defer mu.Unlock()
					if err != nil && firstErr == nil {
						firstErr = err
						cancel()
					}
				}})
			}
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// openShard makes one attempt at shard slot i's replica. A durable store
// goes through shared.Open: recover the write-ahead log, join the live group
// if one exists, otherwise elect the longest surviving log to reform it;
// found marks a declared first boot (shared.Durability.Bootstrap), in which
// the slot's preferred rank creates. A slot a split adds runs the full
// election instead (virgin logs everywhere: the best candidate among the
// nodes that are up creates), so a dead preferred rank cannot strand it.
//
// In memory, the node that founds the slot's group creates it and every other
// node joins it with state transfer. The founder is node i mod nodes at a
// fresh Bootstrap, and the handoff coordinator for a slot a split adds — alive
// by definition, where a fixed creator would deadlock the split if it were
// the node whose death the resharding is racing.
func (s *Store) openShard(ctx context.Context, i int, found bool) (*shared.Replica, error) {
	group, sm := shardGroupName(s.name, i), s.newShardSM(i)
	switch {
	case s.opts.DataDir != "":
		return shared.Open(ctx, s.kernel, group, sm, s.opts.Group, shared.Durability{
			Dir:       shardDataDir(s.opts.DataDir, s.name, s.opts.NodeIndex, i),
			Sync:      s.opts.WALSync,
			FS:        s.opts.WALFS,
			Rank:      s.opts.NodeIndex,
			Peers:     s.nodes(),
			Preferred: i % s.nodes(),
			Bootstrap: found,
		})
	case found:
		return shared.Create(ctx, s.kernel, group, sm, s.opts.Group)
	default:
		return shared.Join(ctx, s.kernel, group, sm, s.opts.Group)
	}
}

// abandon unwinds a node whose Bootstrap or Join failed. Unlike Close (crash
// semantics), it leaves each joined shard group in total order, so a failed
// Bootstrap or Join does not plant dead members — which would otherwise
// inherit ack duty in resilient groups and stall the next attempt.
func (s *Store) abandon() {
	ctx, cancel := leaveCtx()
	defer cancel()
	_ = s.shutdown(ctx, true)
}

// Name returns the store's name.
func (s *Store) Name() string { return s.name }

// Shards returns the live shard count under the current routing table.
func (s *Store) Shards() int { return s.Routing().Shards }

// ShardFor returns the shard owning key under the current routing table.
func (s *Store) ShardFor(key string) int {
	r, _ := s.routingRing()
	return r.shard(key)
}

// HostsShard reports whether this node hosts a replica of shard i.
func (s *Store) HostsShard(i int) bool { return s.Replica(i) != nil }

// expectsShard reports whether this node's placement slot should host shard
// i under the current (or pending) table — true with a nil Replica means the
// slot's owner is still opening it (mid-split), and local callers should wait
// rather than assume a remote owner.
func (s *Store) expectsShard(i int) bool {
	_, _, want := s.span()
	return i >= 0 && i < want && hostsShard(i, s.opts.NodeIndex, s.nodes(), s.opts.Replication)
}

// Replica exposes shard i's underlying replica, for group-level operations
// (Reset, Info, Applied) and advanced reads. After a self-heal the handle a
// caller holds may be the stopped predecessor; call Replica again for the
// current one.
func (s *Store) Replica(i int) *shared.Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i]
}

// leasesOn reports whether this store's shard groups grant read leases.
func (s *Store) leasesOn() bool { return s.opts.Group.LeaseDur > 0 }

// LeaseStats reports the store's read-path counters: reads served under a
// lease, lease attempts that fell back to the sequenced marker, bounded-stale
// reads served, and stale attempts that fell back.
func (s *Store) LeaseStats() (leased, leaseFallback, stale, staleFallback uint64) {
	return s.leaseServed.Load(), s.leaseFallback.Load(), s.staleServed.Load(), s.staleFallback.Load()
}

// leaseGet answers a single-shard multi-key read from shard's local replica
// under its read lease — linearizable with no group send. It fails (false)
// when the replica is absent or holds no valid lease, or when any requested
// key is held (frozen by a live handoff or locked by a prepared
// transaction); the caller then falls back to the sequenced read marker,
// whose Moved answer Do's loop handles. Safe across a live reshard: the lease
// watermark covers every completed write, and a completed migrate-begin is
// itself lease-gated, so any key moving away is already frozen in the state
// a valid lease exposes.
func (s *Store) leaseGet(shard int, keys []string) (*Response, bool) {
	resp, ok := newReadResponse(len(keys), ReadLease), false
	if r := s.Replica(shard); r != nil {
		r.LeaseRead(func(sm shared.StateMachine) { ok = sm.(*mapSM).readKeys(keys, resp.Values, resp.Found) })
	}
	if !ok {
		s.leaseFallback.Add(1)
		return nil, false
	}
	s.leaseServed.Add(1)
	detach(resp.Values)
	return resp, true
}

// staleGet answers a single-shard multi-key read from shard's local replica
// at a bounded staleness (no lease required — the follower-read path). The
// bound covers the total order, not the handoff freeze, so held keys fall
// back like leaseGet's.
func (s *Store) staleGet(shard int, keys []string, maxStale time.Duration) (*Response, bool) {
	resp, ok := newReadResponse(len(keys), ReadStale), false
	if r := s.Replica(shard); r != nil && maxStale > 0 {
		resp.StaleFor, _ = r.StaleRead(maxStale, func(sm shared.StateMachine) {
			ok = sm.(*mapSM).readKeys(keys, resp.Values, resp.Found)
		})
	}
	if !ok {
		s.staleFallback.Add(1)
		return nil, false
	}
	s.staleServed.Add(1)
	detach(resp.Values)
	return resp, true
}

// newReadResponse is an n-key read's answer, to be filled by readKeys.
func newReadResponse(n int, path byte) *Response {
	return &Response{OK: true, ReadPath: path, Values: make([][]byte, n), Found: make([]bool, n)}
}

// detach copies values out of the state machine's storage in place: callers
// own what they get back, and mutating it must not corrupt the local replica.
func detach(vals [][]byte) {
	for i, v := range vals {
		vals[i] = copyVal(v)
	}
}

// isClosed reports whether Close or Leave has begun.
func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// snapshotShards copies the current replica set under the lock.
func (s *Store) snapshotShards() []*shared.Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*shared.Replica(nil), s.shards...)
}

// Reset rebuilds every shard group after a node crash, requiring at least
// minAlive surviving members per shard; see amoeba.Group.Reset. This node
// becomes the sequencer of every shard it resets, so prefer calling Reset on
// different surviving nodes for different shards — or set
// Options.Group.AutoReset and skip manual recovery entirely.
func (s *Store) Reset(ctx context.Context, minAlive int) error {
	for i, r := range s.snapshotShards() {
		if r == nil {
			continue
		}
		if err := r.Reset(ctx, minAlive); err != nil {
			return fmt.Errorf("kv: resetting shard %d: %w", i, err)
		}
	}
	return nil
}

// Members reports the replica-set size of shard i (0 if this node does not
// host it).
func (s *Store) Members(i int) int {
	r := s.Replica(i)
	if r == nil {
		return 0
	}
	return r.Members()
}

// Close stops the node without protocol goodbye: to the rest of the store,
// this node has crashed. Surviving nodes recover with Reset (or AutoReset).
func (s *Store) Close() { _ = s.shutdown(context.Background(), false) }

// Leave departs every shard group in total order and stops the node.
func (s *Store) Leave(ctx context.Context) error { return s.shutdown(ctx, true) }

// shutdown stops the node, once: the slot owners and background loops
// first, then every replica the slots still hold — departed in total order
// under ctx when leave is set, closed (a crash, to the rest of the store)
// otherwise. It returns the first departure's error.
func (s *Store) shutdown(ctx context.Context, leave bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.healCancel()
	s.obsUnreg()
	s.healWG.Wait()
	shards := s.snapshotShards()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, r := range shards {
		if r == nil {
			continue
		}
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if leave {
				errs[i] = r.Leave(ctx) // Leave falls back to Close internally
			} else {
				r.Close()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
