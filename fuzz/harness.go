package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"amoeba"
	"amoeba/kv"
	"amoeba/obs"
	"amoeba/wal"
)

// Config shapes one harness run. The zero value is a usable 3-node,
// 2-shard cluster under 4 clients.
type Config struct {
	// Nodes is the cluster size (default 3). Every node hosts every shard
	// (full replication), so restarts always have live donors.
	Nodes int
	// Shards is the bootstrap shard count (default 2).
	Shards int
	// Clients is the number of concurrent recording workload clients
	// (default 4).
	Clients int
	// Keys is the number of distinct keys the workload contends on
	// (default 4). Fewer keys = more contention = stronger histories.
	Keys int
	// Accounts is the number of bank-account keys the transactional half
	// of the workload transfers balance between (default 4). The accounts
	// are seeded before the workload starts; every transfer conserves the
	// total, and CheckAtomic holds every full snapshot to it.
	Accounts int
	// Balance is each account's seeded starting balance (default 100).
	Balance int64
	// Resilience is the shard groups' resilience degree r. 0 (the
	// default) means Nodes-1 — no completed write is lost to any crash
	// short of the whole cluster, which the write-ahead logs cover; a
	// clean run is then expected to verdict linearizable. Negative values
	// mean a literal r = 0, the paper's performance configuration, whose
	// documented crash window the checker WILL catch.
	Resilience int
	// MinSurvivors gates group recovery: a reset only completes when at
	// least this many members answer. 0 (the default) means a majority,
	// Nodes/2+1 — without it, a partition that also kills the sequencer
	// lets BOTH sides reform independently and diverge (split brain; the
	// quorum-less config is pinned as a failing regression schedule in
	// the tests). Negative values mean a literal 1: recovery with no
	// quorum at all.
	MinSurvivors int
	// Tail extends the workload past the last scheduled event (default
	// 500ms) so post-fault recovery is itself observed.
	Tail time.Duration
	// OpTimeout bounds one client operation (default 2s): ops stuck
	// behind a dead cluster give up and record an unknown outcome.
	OpTimeout time.Duration
	// CheckBudget bounds the linearizability search (default 30s).
	CheckBudget time.Duration
	// DataDir hosts the nodes' write-ahead logs. Empty (the default)
	// uses a fresh temp directory, removed when the run ends.
	DataDir string
	// Leases enables sequencer read leases on the cluster: plain Gets ride
	// the lease-serve path wherever a lease is held (recorded and checked
	// as ordinary linearizable reads), and the workload mixes in opt-in
	// StaleGet reads, each held to the bounded-staleness check.
	Leases bool
	// PlantStaleServe corrupts the recorded history before checking: one
	// successful bounded-staleness read is rewritten to observe a value
	// provably replaced before its bound window (or, when the history has
	// no such candidate, a value no write produced). The run's stale-bound
	// verdict MUST fail — the self-test that keeps CheckStale honest.
	PlantStaleServe bool
	// PlantStaleRead corrupts the recorded history before checking: one
	// successful read is rewritten to observe a value no write ever
	// produced. The run's verdict MUST be non-linearizable — the
	// self-test that keeps the checker honest.
	PlantStaleRead bool
	// PlantLostWrite corrupts the recorded history before checking: the
	// write that produced some successfully-read value is deleted, as if
	// the system had invented the value. The verdict MUST be
	// non-linearizable.
	PlantLostWrite bool
	// PlantTornTxn corrupts the recorded history before checking: one
	// successful snapshot is rewritten to observe a committed
	// transaction's write to one key alongside a pre-transaction value
	// for another — a torn transaction. The atomicity verdict MUST fail.
	PlantTornTxn bool
	// PlantDivergence adds one item, under a key no client writes, to one
	// replica's LIVE state machine shortly after the workload starts
	// (kv.Store.CorruptShard) — silent single-replica corruption the
	// protocol cannot see, planted through the state (not the history), so
	// only the sequenced audit tier can catch it. The run's verdict MUST
	// report a divergence.
	PlantDivergence bool
	// AuditEvery is the sequenced state-audit period (default 100ms;
	// negative disables). The auditor runs during every schedule, so any
	// replica-state divergence a fault sequence provokes is reported at
	// the audit seq where the replicas first disagree.
	AuditEvery time.Duration
	// Logf, when non-nil, receives progress lines (schedule events as
	// they fire, verdicts). Nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Keys <= 0 {
		c.Keys = 4
	}
	if c.Accounts <= 0 {
		c.Accounts = 4
	}
	if c.Balance <= 0 {
		c.Balance = 100
	}
	if c.Resilience == 0 {
		c.Resilience = c.Nodes - 1
	} else if c.Resilience < 0 {
		c.Resilience = 0
	}
	if c.MinSurvivors == 0 {
		c.MinSurvivors = c.Nodes/2 + 1
	} else if c.MinSurvivors < 0 {
		c.MinSurvivors = 1
	}
	if c.Tail <= 0 {
		c.Tail = 500 * time.Millisecond
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.CheckBudget <= 0 {
		c.CheckBudget = 30 * time.Second
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 100 * time.Millisecond
	} else if c.AuditEvery < 0 {
		c.AuditEvery = 0
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Result is one run's outcome.
type Result struct {
	// Schedule is the schedule that ran (for the replay line).
	Schedule Schedule
	// Check is the linearizability verdict over the recorded history.
	Check CheckResult
	// Atomic is the multi-key atomicity verdict: no torn transactions, and
	// every full bank snapshot sums to the seeded total.
	Atomic AtomicResult
	// Stale is the bounded-staleness verdict over the run's StaleGet reads
	// (trivially clean when the workload recorded none).
	Stale StaleResult
	// Ops counts recorded history events; Failed counts the subset whose
	// outcome is unknown (errored or timed out).
	Ops    int
	Failed int
	// Applied counts schedule events that fired.
	Applied int
	// LeaseReads and StaleReads count the reads the cluster's stores served
	// from a lease / within a staleness bound during the run — proof the
	// lease paths were actually in play, not silently falling back.
	LeaseReads uint64
	StaleReads uint64
	// Err reports a harness-level failure (bootstrap or restart machinery
	// broke) — distinct from a checker verdict.
	Err error
	// Divergences are the replica-state mismatches the sequenced auditor
	// caught during the run, each localized to (shard scope, audit seq,
	// key-ranges). Replicated state machines must never diverge, so any
	// entry is a failure regardless of the history verdicts.
	Divergences []obs.Divergence
	// Audits counts completed cross-replica digest comparisons — proof
	// the auditor was actually live during the schedule.
	Audits int
	// WALErrs are, by node, the errors that retired shard replicas' logs
	// (shared.DurabilityStats.Err) on the nodes up at the end of the run:
	// proof that the schedule's disk faults reached the logs.
	WALErrs map[int][]string
	// Flight is the cluster's flight-recorder dump, captured when the
	// verdict failed (empty otherwise): the postmortem to read first.
	Flight string
}

// Ok reports a fully clean run: harness intact, history linearizable, every
// multi-key claim atomic, and no replica-state divergence.
func (r Result) Ok() bool {
	return r.Err == nil && r.Check.Linearizable && r.Atomic.Ok() && r.Stale.Ok() && len(r.Divergences) == 0
}

// String renders the result as the one-line report the CLI prints.
func (r Result) String() string {
	if r.Err != nil {
		return fmt.Sprintf("HARNESS ERROR: %v [replay: %s]", r.Err, r.Schedule)
	}
	if len(r.Divergences) > 0 {
		return fmt.Sprintf("FAIL: %s over %d ops (%d unknown) [replay: %s]",
			r.Divergences[0], r.Ops, r.Failed, r.Schedule)
	}
	if !r.Atomic.Ok() {
		return fmt.Sprintf("FAIL: %s over %d ops (%d unknown) [replay: %s]",
			r.Atomic, r.Ops, r.Failed, r.Schedule)
	}
	if !r.Stale.Ok() {
		return fmt.Sprintf("FAIL: %s over %d ops (%d unknown) [replay: %s]",
			r.Stale, r.Ops, r.Failed, r.Schedule)
	}
	if !r.Check.Linearizable {
		return fmt.Sprintf("FAIL: %s over %d ops (%d unknown) [replay: %s]",
			r.Check, r.Ops, r.Failed, r.Schedule)
	}
	if r.Check.Timeout {
		return fmt.Sprintf("UNDECIDED: %s (%d recorded, %d unknown outcome), %d/%d events applied [replay: %s]",
			r.Check, r.Ops, r.Failed, r.Applied, len(r.Schedule.Events), r.Schedule)
	}
	return fmt.Sprintf("ok: %s, %s (%d recorded, %d unknown outcome), %d/%d events applied",
		r.Check, r.Atomic, r.Ops, r.Failed, r.Applied, len(r.Schedule.Events))
}

// walController is the schedule's disk: one wal.FS that every node's shard
// logs share. It is the operating system's file system (wal.OS), except that
// it fails (disk full) or tears (half the bytes, then an error) a targeted
// node's next segment writes. A file's node is the index in its path
// (nodeOfDir).
type walController struct {
	wal.FS
	mu       sync.Mutex
	diskFull map[int]int  // node -> remaining segment writes to fail ENOSPC
	torn     map[int]bool // node -> tear the next segment write
}

func newWALController() *walController {
	return &walController{FS: wal.OS, diskFull: make(map[int]int), torn: make(map[int]bool)}
}

// inject arms a disk event against node: a torn write tears its next segment
// write, a disk-full event fails its next B (default 4) with ENOSPC.
func (w *walController) inject(e Event, node int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case e.Kind == EvTornWrite:
		w.torn[node] = true
	case e.B > 0:
		w.diskFull[node] += e.B
	default:
		w.diskFull[node] += 4
	}
}

// fault returns the error node's next segment write fails with (nil: none),
// and whether half its bytes land first.
func (w *walController) fault(node int) (torn bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.torn[node] {
		delete(w.torn, node)
		return true, fmt.Errorf("fuzz: node %d: torn write: %w", node, syscall.EIO)
	}
	if w.diskFull[node] > 0 {
		w.diskFull[node]--
		return false, fmt.Errorf("fuzz: node %d: disk full: %w", node, syscall.ENOSPC)
	}
	return false, nil
}

// OpenAppend opens a segment: the log appends to nothing else. Checkpoints
// are left alone; a failed one takes the same path as a failed append.
func (w *walController) OpenAppend(name string) (wal.File, error) {
	f, err := w.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	node, ok := nodeOfDir(name)
	if !ok {
		return f, nil
	}
	return faultySegment{File: f, ctl: w, node: node}, nil
}

// faultySegment is a segment file of a node the schedule may fail.
type faultySegment struct {
	wal.File
	ctl  *walController
	node int
}

func (f faultySegment) Write(p []byte) (int, error) {
	torn, err := f.ctl.fault(f.node)
	if err == nil {
		return f.File.Write(p)
	}
	if !torn {
		return 0, err
	}
	n, _ := f.File.Write(p[:len(p)/2])
	return n, err
}

// nodeOfDir extracts the node index from a path in a shard log directory
// (…/node-<n>/shard-<i>/…).
func nodeOfDir(dir string) (int, bool) {
	i := strings.LastIndex(dir, "/node-")
	if i < 0 {
		return 0, false
	}
	rest := dir[i+len("/node-"):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	var n int
	if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// cluster is the harness's mutable view of the nodes: which are alive,
// their kernels, and the machinery to crash and restart them.
type cluster struct {
	cfg     Config
	net     *amoeba.MemoryNetwork
	name    string
	opts    kv.Options
	hub     *obs.Hub
	baseCtx context.Context

	mu      sync.Mutex
	stores  []*kv.Store
	kernels []*amoeba.Kernel
	booting map[int]bool // restarts in flight
	gen     int          // kernel-name generation counter
	wg      sync.WaitGroup
}

// live returns a running store, preferring node pref, or nil when the whole
// cluster is down.
func (c *cluster) live(pref int) *kv.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < len(c.stores); i++ {
		if s := c.stores[(pref+i)%len(c.stores)]; s != nil {
			return s
		}
	}
	return nil
}

// crash closes node n's store and kernel with no protocol goodbye.
func (c *cluster) crash(n int) {
	c.mu.Lock()
	s, k := c.stores[n], c.kernels[n]
	c.stores[n], c.kernels[n] = nil, nil
	c.mu.Unlock()
	if s != nil {
		s.Close()
	}
	if k != nil {
		k.Close()
	}
}

// restart brings node n back from its write-ahead logs, asynchronously (a
// rejoin can take a while under concurrent faults; the scheduler must keep
// pace). No-op while the node is alive or already booting.
func (c *cluster) restart(n int) {
	c.mu.Lock()
	if c.stores[n] != nil || c.booting[n] {
		c.mu.Unlock()
		return
	}
	c.booting[n] = true
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			c.mu.Lock()
			delete(c.booting, n)
			c.mu.Unlock()
		}()
		k, err := c.net.NewKernel(fmt.Sprintf("%s-node-%d-g%d", c.name, n, gen))
		if err != nil {
			c.cfg.logf("restart(%d): kernel: %v", n, err)
			return
		}
		o := c.opts
		o.NodeIndex = n
		s, err := kv.Join(c.baseCtx, k, c.name, o)
		if err != nil {
			c.cfg.logf("restart(%d): %v", n, err)
			k.Close()
			return
		}
		c.mu.Lock()
		dead := c.baseCtx.Err() != nil
		if !dead {
			c.stores[n], c.kernels[n] = s, k
		}
		c.mu.Unlock()
		if dead { // the run ended while we were booting
			s.Close()
			k.Close()
		} else {
			c.cfg.logf("restart(%d): rejoined", n)
		}
	}()
}

// restartAll restarts every dead node. When the whole cluster is down this
// is the cold start: each node recovers its logs independently and the
// beacon election reforms each shard group from the longest log.
func (c *cluster) restartAll() {
	c.mu.Lock()
	var dead []int
	for n, s := range c.stores {
		if s == nil && !c.booting[n] {
			dead = append(dead, n)
		}
	}
	c.mu.Unlock()
	for _, n := range dead {
		c.restart(n)
	}
}

// crashSequencer crashes whichever live node currently sequences shard's
// group (no-op if no live node does — mid-recovery, say).
func (c *cluster) crashSequencer(shard int) {
	c.mu.Lock()
	victim := -1
	for n, s := range c.stores {
		if s == nil {
			continue
		}
		r := s.Replica(shard)
		if r != nil && r.Info().IsSequencer {
			victim = n
			break
		}
	}
	c.mu.Unlock()
	if victim >= 0 {
		c.cfg.logf("crashseq(%d): sequencer is node %d", shard, victim)
		c.crash(victim)
	}
}

// apply fires one schedule event against the cluster.
func (c *cluster) apply(e Event, walCtl *walController) {
	c.cfg.logf("event %s", e)
	switch e.Kind {
	case EvCrash:
		c.crash(e.A % c.cfg.Nodes)
	case EvRestart:
		c.restart(e.A % c.cfg.Nodes)
	case EvKillAll:
		for n := 0; n < c.cfg.Nodes; n++ {
			c.crash(n)
		}
	case EvRestartAll:
		c.restartAll()
	case EvPartition:
		c.mu.Lock()
		a, b := c.kernels[e.A%c.cfg.Nodes], c.kernels[e.B%c.cfg.Nodes]
		c.mu.Unlock()
		c.net.Partition(a, b) // nil-safe: dead ends are already cut
	case EvHeal:
		c.net.Heal()
	case EvLoss:
		c.net.SetDropRate(e.Rate)
	case EvReorder:
		c.net.SetReorderRate(e.Rate)
	case EvDuplicate:
		c.net.SetDuplicateRate(e.Rate)
	case EvNetClean:
		c.net.SetDropRate(0)
		c.net.SetReorderRate(0)
		c.net.SetDuplicateRate(0)
	case EvDiskFull, EvTornWrite:
		walCtl.inject(e, e.A%c.cfg.Nodes)
	case EvReshard:
		s := c.live(0)
		if s == nil || e.A <= 0 {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := s.Resharding(c.baseCtx, e.A); err != nil {
				c.cfg.logf("reshard(%d): %v", e.A, err)
			}
		}()
	case EvCrashSequencer:
		c.crashSequencer(e.A % c.cfg.Shards)
	}
}

// walErrs collects, by node, the errors that retired the live nodes' shard
// logs.
func (c *cluster) walErrs() map[int][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	errs := make(map[int][]string)
	for n, s := range c.stores {
		for i := 0; s != nil && i < s.Shards(); i++ {
			if r := s.Replica(i); r != nil {
				if err := r.DurabilityStats().Err; err != "" {
					errs[n] = append(errs[n], err)
				}
			}
		}
	}
	return errs
}

// closeAll tears the cluster down and waits for stragglers.
func (c *cluster) closeAll() {
	c.wg.Wait() // restarts and reshards first: they hold kernels
	c.mu.Lock()
	stores := append([]*kv.Store(nil), c.stores...)
	c.mu.Unlock()
	for _, s := range stores {
		if s != nil {
			s.Close()
		}
	}
	c.net.Close() // closes the kernels too
}

// Run replays one schedule against a fresh durable cluster under the
// recording workload and checks the history. Fault injection, the workload's
// op stream, and the schedule are all pure functions of sched.Seed, so the
// same seed and schedule reproduce the same run.
func Run(cfg Config, sched Schedule) Result {
	cfg = cfg.withDefaults()
	res := Result{Schedule: sched}

	dataDir := cfg.DataDir
	if dataDir == "" {
		d, err := os.MkdirTemp("", "amoeba-fuzz-")
		if err != nil {
			res.Err = fmt.Errorf("fuzz: temp data dir: %w", err)
			return res
		}
		defer os.RemoveAll(d)
		dataDir = d
	}

	hub := obs.NewHub(obs.Options{Node: "fuzz"})
	walCtl := newWALController()
	net := amoeba.NewMemoryNetworkWithFaults(amoeba.MemoryNetworkConfig{Seed: sched.Seed})

	horizon := cfg.Tail
	for _, e := range sched.Events {
		if e.At+cfg.Tail > horizon {
			horizon = e.At + cfg.Tail
		}
	}
	runCtx, cancelRun := context.WithTimeout(context.Background(), horizon+60*time.Second)
	defer cancelRun()

	opts := kv.Options{
		Shards:     cfg.Shards,
		Nodes:      cfg.Nodes,
		Leases:     cfg.Leases,
		DataDir:    dataDir,
		WALFS:      walCtl,
		AuditEvery: cfg.AuditEvery,
		Group: amoeba.GroupOptions{
			Resilience:   cfg.Resilience,
			AutoReset:    true,
			MinSurvivors: cfg.MinSurvivors,
			Obs:          hub,
		},
	}
	kernels := make([]*amoeba.Kernel, cfg.Nodes)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("fuzz-node-%d", i))
		if err != nil {
			res.Err = fmt.Errorf("fuzz: kernel %d: %w", i, err)
			net.Close()
			return res
		}
		kernels[i] = k
	}
	stores, err := kv.Bootstrap(runCtx, kernels, "fuzz", opts)
	if err != nil {
		res.Err = fmt.Errorf("fuzz: bootstrap: %w", err)
		net.Close()
		return res
	}
	cl := &cluster{
		cfg: cfg, net: net, name: "fuzz", opts: opts, hub: hub,
		baseCtx: runCtx, stores: stores, kernels: kernels,
		booting: make(map[int]bool),
	}

	// Seed the bank accounts before any client runs: transfers conserve
	// the total from here on, and the seed writes are recorded (client id
	// cfg.Clients) so the checker can explain every observed balance.
	hist := kv.NewHistory()
	{
		seedCl := stores[0].NewClient()
		rc := kv.Record(seedCl, hist, cfg.Clients)
		pairs := make([]kv.Pair, cfg.Accounts)
		for i := range pairs {
			pairs[i] = kv.Pair{Key: bankKey(i), Val: bankVal(cfg.Balance, "s", 0, i)}
		}
		seedCtx, cancelSeed := context.WithTimeout(runCtx, 10*time.Second)
		err := rc.BatchPut(seedCtx, pairs)
		cancelSeed()
		seedCl.Close()
		if err != nil {
			res.Err = fmt.Errorf("fuzz: seeding bank accounts: %w", err)
			cl.closeAll()
			return res
		}
	}

	// The workload: cfg.Clients recording clients, each a deterministic op
	// stream drawn from the seed, rebinding to a live node when its node
	// crashes.
	wlCtx, cancelWL := context.WithCancel(context.Background())
	var wl sync.WaitGroup
	for ci := 0; ci < cfg.Clients; ci++ {
		wl.Add(1)
		go func(ci int) {
			defer wl.Done()
			runClient(wlCtx, cfg, cl, hist, sched.Seed, ci)
		}(ci)
	}

	// Plant the state corruption after the workload has populated some
	// keys, before the schedule starts: the corruption is in the replica
	// state, invisible to the recorded history, and the sequenced audit
	// must flag it.
	if cfg.PlantDivergence {
		time.Sleep(250 * time.Millisecond)
		planted := false
		for n := 0; n < cfg.Nodes && !planted; n++ {
			s := cl.live(n)
			if s == nil {
				continue
			}
			for sh := 0; sh < cfg.Shards && !planted; sh++ {
				if key, ok := s.CorruptShard(sh); ok {
					cfg.logf("planted state corruption: shard %d key %q", sh, key)
					planted = true
				}
			}
		}
		if !planted {
			res.Err = fmt.Errorf("fuzz: no shard had state to corrupt")
			cancelWL()
			wl.Wait()
			cl.closeAll()
			return res
		}
	}

	// The scheduler: fire events at their offsets.
	start := time.Now()
	for _, e := range sched.Events {
		if d := time.Until(start.Add(e.At)); d > 0 {
			time.Sleep(d)
		}
		cl.apply(e, walCtl)
		res.Applied++
	}
	if d := time.Until(start.Add(horizon)); d > 0 {
		time.Sleep(d)
	}

	cancelWL()
	wl.Wait()
	cancelRun()
	for n := 0; n < cfg.Nodes; n++ {
		if s := cl.live(n); s != nil {
			leased, _, stale, _ := s.LeaseStats()
			res.LeaseReads += leased
			res.StaleReads += stale
		}
	}
	res.WALErrs = cl.walErrs()
	cl.closeAll()

	events := hist.Events()
	if cfg.PlantStaleRead {
		events = plantStaleRead(events)
	}
	if cfg.PlantStaleServe {
		events = plantStaleServe(events)
	}
	if cfg.PlantLostWrite {
		events = plantLostWrite(events)
	}
	if cfg.PlantTornTxn {
		events = plantTornTxn(events)
	}
	res.Ops = len(events)
	for _, e := range events {
		if e.Failed() {
			res.Failed++
		}
	}
	spec := &BankSpec{Total: cfg.Balance * int64(cfg.Accounts)}
	for i := 0; i < cfg.Accounts; i++ {
		spec.Keys = append(spec.Keys, bankKey(i))
	}
	res.Atomic = CheckAtomic(events, spec)
	res.Check = Check(events, cfg.CheckBudget)
	res.Stale = CheckStale(events, fuzzStaleSlack)
	if cfg.PlantStaleServe && res.Stale.Ok() && res.Err == nil {
		res.Err = fmt.Errorf("fuzz: planted stale serve escaped the bound check (%d stale reads)", res.Stale.Reads)
	}
	res.Divergences = hub.Health().Divergences()
	for _, c := range hub.Registry().Counters() {
		if c.Name == "amoeba_health_audits_total" {
			res.Audits = int(c.Value)
		}
	}
	if cfg.PlantDivergence && len(res.Divergences) == 0 && res.Err == nil {
		res.Err = fmt.Errorf("fuzz: planted state corruption escaped the auditor (%d audits ran)", res.Audits)
	}
	if !res.Ok() {
		res.Flight = hub.Flight().Format()
	}
	cfg.logf("%s", res)
	return res
}

// bankKey names account i.
func bankKey(i int) string { return fmt.Sprintf("acct-%d", i) }

// bankVal encodes a balance with a globally unique suffix, the format
// bankBalance parses.
func bankVal(balance int64, who string, ci, opn int) []byte {
	return []byte(fmt.Sprintf("%d|%s%d-%d", balance, who, ci, opn))
}

// runClient is one workload client: a deterministic stream of contended
// operations with globally unique write values (uniqueness is what lets the
// checker pin every observed value to exactly one write).
func runClient(ctx context.Context, cfg Config, cl *cluster, hist *kv.History, seed int64, ci int) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(ci)))
	var cur *kv.Client
	var curStore *kv.Store
	defer func() {
		if cur != nil {
			cur.Close()
		}
	}()
	for opn := 0; ; opn++ {
		if ctx.Err() != nil {
			return
		}
		s := cl.live(ci % cfg.Nodes)
		if s == nil {
			// Whole cluster down: nothing to invoke against. (rng is
			// drawn per op below, so the stream stays aligned with opn.)
			select {
			case <-ctx.Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
			continue
		}
		if s != curStore {
			if cur != nil {
				cur.Close()
			}
			cur, curStore = s.NewClient(), s
		}
		rc := kv.Record(cur, hist, ci)
		key := fmt.Sprintf("key-%d", rng.Intn(cfg.Keys))
		val := []byte(fmt.Sprintf("c%d-%d", ci, opn))
		opCtx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
		switch r := rng.Intn(100); {
		case r < 25:
			_ = rc.Put(opCtx, key, val)
		case r < 50:
			if cfg.Leases && r >= 42 {
				// Opt-in bounded-staleness read: held to CheckStale, not
				// the linearizability search.
				_, _, _, _ = rc.StaleGet(opCtx, key, fuzzStaleBound)
			} else {
				_, _, _ = rc.Get(opCtx, key)
			}
		case r < 62:
			// CAS against the last value observed by a quick read —
			// contended enough to exercise both outcomes.
			if v, ok, err := rc.Get(opCtx, key); err == nil {
				if ok {
					_, _ = rc.CAS(opCtx, key, v, val)
				} else {
					_, _ = rc.CAS(opCtx, key, nil, val)
				}
			}
		case r < 70:
			_, _ = rc.Delete(opCtx, key)
		case r < 78:
			k2 := fmt.Sprintf("key-%d", rng.Intn(cfg.Keys))
			_, _ = rc.MGet(opCtx, key, k2)
		case r < 85:
			k2 := fmt.Sprintf("key-%d", rng.Intn(cfg.Keys))
			_ = rc.BatchPut(opCtx, []kv.Pair{
				{Key: key, Val: val},
				{Key: k2, Val: []byte(fmt.Sprintf("c%d-%db", ci, opn))},
			})
		case r < 95:
			// Bank transfer: move balance between two accounts with a
			// conditional cross-shard transaction — the atomicity
			// workload. A concurrent transfer changes a balance under
			// us: the conditions fail, which is a recorded known abort.
			a := rng.Intn(cfg.Accounts)
			b := (a + 1 + rng.Intn(cfg.Accounts-1)) % cfg.Accounts
			amt := int64(1 + rng.Intn(5))
			ka, kb := bankKey(a), bankKey(b)
			m, err := rc.MGet(opCtx, ka, kb)
			if err != nil || m[ka] == nil || m[kb] == nil {
				break
			}
			ba, ok1 := bankBalance(m[ka])
			bb, ok2 := bankBalance(m[kb])
			if !ok1 || !ok2 || ba < amt {
				break
			}
			_, _ = rc.Txn(opCtx, kv.TxnOp{
				Conds: []kv.TxnCond{
					{Key: ka, ExpectPresent: true, Expect: m[ka]},
					{Key: kb, ExpectPresent: true, Expect: m[kb]},
				},
				Writes: []kv.TxnWrite{
					{Key: ka, Val: bankVal(ba-amt, "c", ci, opn)},
					{Key: kb, Val: bankVal(bb+amt, "c", ci, opn+1000000)},
				},
			})
		default:
			// Full-bank snapshot: the observation the bank invariant is
			// checked against.
			keys := make([]string, cfg.Accounts)
			for i := range keys {
				keys[i] = bankKey(i)
			}
			_, _ = rc.MGet(opCtx, keys...)
		}
		cancel()
	}
}

// fuzzStaleBound is the staleness budget the workload's StaleGet reads
// request; reads the server cannot bound that tightly fall back to the
// sequenced path (still recorded as stale events, trivially within bound).
const fuzzStaleBound = 500 * time.Millisecond

// fuzzStaleSlack pads the bound during checking: the server's freshness
// accounting is tick-granular and strictly conservative, so a legitimate
// serve is always well inside bound+slack.
const fuzzStaleSlack = 250 * time.Millisecond

// plantStaleServe corrupts the history for checker self-validation: the last
// successful bounded-staleness read is rewritten to observe a value that was
// provably replaced before its bound window opened — the exact over-stale
// serve CheckStale exists to refute. When the history offers no replaced
// value old enough, the read observes a value no write produced, which the
// checker must flag just the same.
func plantStaleServe(events []kv.HistoryEvent) []kv.HistoryEvent {
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if e.Op != kv.OpStaleGet || e.Failed() || !e.Found {
			continue
		}
		t0 := e.Invoke - int64(e.Bound+fuzzStaleSlack)
		// An old value of this key: a successful put whose successor (a
		// later successful put) completed before the read's bound window.
		for _, w := range events {
			if w.Op != kv.OpPut || w.Failed() || w.Key != e.Key {
				continue
			}
			for _, w2 := range events {
				if w2.Op == kv.OpPut && !w2.Failed() && w2.Key == e.Key &&
					w2.Invoke >= w.Return && w2.Return <= t0 {
					events[i].Val = append([]byte(nil), w.Val...)
					return events
				}
			}
		}
		events[i].Val = []byte("__planted-stale-serve__")
		return events
	}
	return events
}

// plantStaleRead corrupts the history for checker self-validation: the last
// successful read that found a value is rewritten to observe a value no
// write ever produced — the purest stale read. A checker that passes this
// history is broken.
func plantStaleRead(events []kv.HistoryEvent) []kv.HistoryEvent {
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if e.Op == kv.OpGet && !e.Failed() && e.Found {
			events[i].Val = []byte("__planted-stale-read__")
			return events
		}
	}
	return events
}

// plantTornTxn corrupts a recorded snapshot to observe a committed
// transaction's write to its first key alongside a certainly-pre-transaction
// value for its second — the exact half-applied state the atomicity checker
// exists to refute. A checker that passes this history is broken.
func plantTornTxn(events []kv.HistoryEvent) []kv.HistoryEvent {
	for i := len(events) - 1; i >= 0; i-- {
		t := events[i]
		if t.Op != kv.OpTxn || t.Failed() || !t.Committed || len(t.Writes) < 2 {
			continue
		}
		ka, kb := t.Writes[0].Key, t.Writes[1].Key
		// A value for kb whose writer certainly returned before t began.
		var pre []byte
		for _, w := range events {
			if w.Failed() || w.Return >= t.Invoke {
				continue
			}
			switch {
			case w.Op == kv.OpPut && w.Key == kb:
				pre = w.Val
			case w.Op == kv.OpTxn && w.Committed:
				for _, tw := range w.Writes {
					if tw.Key == kb && !tw.Delete {
						pre = tw.Val
					}
				}
			}
		}
		if pre == nil {
			continue
		}
		for j, s := range events {
			if s.Op != kv.OpTxn || s.Failed() || len(s.ReadKeys) == 0 {
				continue
			}
			ia, ib := -1, -1
			for k, rk := range s.ReadKeys {
				if rk == ka {
					ia = k
				}
				if rk == kb {
					ib = k
				}
			}
			if ia < 0 || ib < 0 {
				continue
			}
			events[j].ReadVals[ia], events[j].ReadFound[ia] = t.Writes[0].Val, true
			events[j].ReadVals[ib], events[j].ReadFound[ib] = pre, true
			return events
		}
	}
	return events
}

// plantLostWrite corrupts the history the other way: the write whose value
// some successful read observed is deleted, leaving the read unexplainable —
// as if the store had invented the value.
func plantLostWrite(events []kv.HistoryEvent) []kv.HistoryEvent {
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if e.Op == kv.OpGet && !e.Failed() && e.Found {
			for j, w := range events {
				if w.Op == kv.OpPut && w.Key == e.Key && string(w.Val) == string(e.Val) {
					return append(events[:j:j], events[j+1:]...)
				}
			}
		}
	}
	return events
}
