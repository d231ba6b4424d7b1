// Package shared provides replicated state machines with atomic state
// transfer on top of the group communication system.
//
// The paper's §5 reports that building fault-tolerant applications on the
// raw group primitives was harder than expected for exactly two reasons: no
// support for atomic group creation, and no support for a process
// (re)joining a running group — "a library for atomic state transfer as
// provided in Isis would have simplified building these fault-tolerant
// programs". This package is that library.
//
// A Replica binds an application StateMachine to a group. Commands submitted
// through any replica are totally ordered by the group and applied to every
// copy in the same sequence, so the copies never diverge. A replica that
// joins a running group performs state transfer before applying anything:
// it fetches a snapshot from an existing member over RPC, tagged with the
// sequence number it reflects, installs it, discards the already-reflected
// prefix of its delivery stream, and applies the rest — joining atomically
// at a well-defined point in the total order.
package shared

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/wal"
)

// StateMachine is the replicated application state. Apply must be
// deterministic: given the same command sequence, every copy must reach the
// same state. The package serialises all calls; implementations need no
// internal locking.
type StateMachine interface {
	// Apply executes one committed command.
	Apply(cmd []byte)
	// Snapshot serialises the current state for transfer to a joiner.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a snapshot.
	Restore(snapshot []byte) error
}

// SeqApplier is an optional StateMachine extension: a state machine that
// wants the sequence number alongside each command (e.g. to stamp
// "applied@seq" span events into an op trace) implements ApplySeq, and the
// replica calls it instead of Apply. The two must be behaviourally
// identical.
type SeqApplier interface {
	ApplySeq(seq uint32, cmd []byte)
}

// Digester is an optional StateMachine extension: a state machine that can
// fold its replicated state into one deterministic 64-bit digest. Durable
// replicas stamp every WAL checkpoint with the digest, and cold-start
// recovery verifies the restored state against the stamp — a checkpoint
// whose bytes survived (CRC-clean) but whose state does not round-trip is
// refused, falling back to the previous checkpoint and a longer replay (see
// wal.Log.RecoverVerified). The digest must be a pure function of replicated
// state only, so every replica of a group computes the same value at the
// same position in the total order.
type Digester interface {
	StateDigest() uint64
}

// Errors returned by the package.
var (
	// ErrStopped reports use of a closed or expelled replica.
	ErrStopped = errors.New("shared: replica stopped")
	// ErrTransferFailed reports that no member could supply a usable
	// snapshot.
	ErrTransferFailed = errors.New("shared: state transfer failed")
)

// Replica is one copy of the replicated state: a group membership plus the
// state machine it drives.
type Replica struct {
	group  *amoeba.Group
	kernel *amoeba.Kernel
	name   string
	xfer   *amoeba.RPCServer
	beacon *beacon // durable replicas advertise their recovery state

	mu          sync.Mutex
	sm          StateMachine
	lastApplied uint32
	members     int
	stopped     bool
	stoppedCh   chan struct{} // closed when stopped is set (stopLocked); see Stopped
	closed      bool
	// applyWake is what Wait callers sleep on until the state machine may
	// have changed: closed and replaced by the first apply (or stop) after
	// a caller took it — waiting says one has since the last wake — and
	// left alone while nobody is listening.
	applyWake chan struct{}
	waiting   bool

	// Durability (nil log: in-memory replica, the paper's semantics). The
	// apply loop journals delivered entries before applying them and
	// checkpoints every dur.CheckpointEvery entries; see Open. durable is
	// immutable after construction (the apply loop reads it without the
	// lock); log can drop to nil under the lock if the disk fails.
	durable   bool
	log       *wal.Log
	dur       Durability
	sinceCkpt int
	walErr    error

	// Observability (all nil-safe no-ops when the group carries no hub).
	seqApply   SeqApplier     // sm, when it implements SeqApplier
	digester   Digester       // sm, when it implements Digester
	applyH     *obs.Histogram // amoeba_replica_apply_ns (1-in-8 sampled)
	applyCount uint64         // applies since start, for the sampling rule
	flight     *obs.Recorder

	done   chan struct{}
	cancel context.CancelFunc
}

// Create starts the first replica of a named state machine. The calling
// process becomes the group's sequencer.
func Create(ctx context.Context, k *amoeba.Kernel, name string, sm StateMachine, opts amoeba.GroupOptions) (*Replica, error) {
	g, err := k.CreateGroup(ctx, name, opts)
	if err != nil {
		return nil, fmt.Errorf("shared: creating %q: %w", name, err)
	}
	r := newReplica(k, g, name, sm, opts.Obs)
	if err := r.serveTransfers(); err != nil {
		g.Close()
		return nil, err
	}
	r.start()
	return r, nil
}

// Join adds a replica to a running state machine, performing state transfer:
// when Join returns, sm holds the state as of this replica's position in the
// total order, and subsequent commands apply on top.
func Join(ctx context.Context, k *amoeba.Kernel, name string, sm StateMachine, opts amoeba.GroupOptions) (*Replica, error) {
	return joinWithLog(ctx, k, name, sm, opts, nil, Durability{})
}

// joinWithLog is Join with an optional write-ahead log: when log is non-nil
// the transferred snapshot resets the log (the transfer is authoritative —
// entries journaled on the replica's previous timeline must not resurface)
// and the replica journals from there on. If the log held entries beyond the
// transfer point — this member recovered more than the reformed group did
// but arrived after the cold-start election — that suffix is given up, and
// wal.Stats.ResetDiscarded records how much.
func joinWithLog(ctx context.Context, k *amoeba.Kernel, name string, sm StateMachine, opts amoeba.GroupOptions, log *wal.Log, dur Durability) (*Replica, error) {
	g, err := k.JoinGroup(ctx, name, opts)
	if err != nil {
		return nil, fmt.Errorf("shared: joining %q: %w", name, err)
	}
	r := newReplica(k, g, name, sm, opts.Obs)

	// The first delivery is our own join at seq J: nothing before J will
	// ever be delivered to us, so the snapshot must reflect at least J.
	first, err := g.Receive(ctx)
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("shared: joining %q: %w", name, err)
	}
	joinSeq := first.Seq

	// Fetch a snapshot from an existing member while buffering whatever
	// the group delivers meanwhile.
	var buffered []amoeba.Message
	snapSeq, snapshot, err := r.fetchSnapshot(ctx, joinSeq, func() error {
		// Drain without blocking so the receive queue cannot pin the
		// sender side while we wait on RPC.
		for {
			m, err := g.Receive(polled)
			if err != nil {
				return nil // queue momentarily empty
			}
			buffered = append(buffered, m)
		}
	})
	if err != nil {
		g.Close()
		return nil, err
	}
	if err := sm.Restore(snapshot); err != nil {
		g.Close()
		return nil, fmt.Errorf("shared: restoring snapshot: %w", err)
	}
	r.lastApplied = snapSeq
	r.members = first.Members
	if log != nil {
		var digest uint64
		if r.digester != nil {
			digest = r.digester.StateDigest()
		}
		if err := log.Reset(snapSeq, digest, snapshot); err != nil {
			g.Close()
			return nil, fmt.Errorf("shared: resetting log to transfer point: %w", err)
		}
		r.log = log
		r.dur = dur
		r.durable = true
	}
	// Apply the buffered suffix beyond the snapshot (journaled, when
	// durable — these entries are already part of this replica's history).
	for _, m := range buffered {
		r.apply(m)
	}
	if err := r.serveTransfers(); err != nil {
		g.Close()
		return nil, err
	}
	r.start()
	return r, nil
}

func newReplica(k *amoeba.Kernel, g *amoeba.Group, name string, sm StateMachine, hub *obs.Hub) *Replica {
	r := &Replica{
		group:     g,
		kernel:    k,
		name:      name,
		sm:        sm,
		stoppedCh: make(chan struct{}),
		applyWake: make(chan struct{}),
		done:      make(chan struct{}),
	}
	r.seqApply, _ = sm.(SeqApplier)
	r.digester, _ = sm.(Digester)
	if hub != nil {
		r.applyH = hub.Histogram("amoeba_replica_apply_ns")
		r.flight = hub.Flight()
	}
	return r
}

// transferAddr is the well-known RPC address of a member's snapshot service.
func transferAddr(group string, member int) amoeba.Addr {
	return amoeba.AddrForName(fmt.Sprintf("shared-xfer/%s/%d", group, member))
}

// transferWait bounds how long a donor holds a transfer request for a
// sequence number it has not applied yet — inside the half second the RPC
// layer retransmits for, so a donor that stays behind still answers in time
// to be told apart from a dead one.
const transferWait = 400 * time.Millisecond

// serveTransfers starts this replica's snapshot service. A request carries
// the sequence number the snapshot must reflect (4 bytes big-endian; none
// means any), and the donor answers once it has applied that far: a joiner's
// join is ordered before the donor's apply loop has seen it, and a donor
// that answered "not yet" would send the joiner on to the next member —
// during a concurrent boot the other joiner, which serves nothing until its
// own join completes. The handler waits, so it runs off the kernel's delivery
// goroutine (the apply it waits for needs deliveries) on a worker the server
// starts when a joiner first asks; joiners are few, so it seldom needs a
// second.
func (r *Replica) serveTransfers() error {
	self := r.group.Info().Self
	srv, err := r.kernel.NewRPCServerWith(transferAddr(r.name, self), func(req []byte) ([]byte, amoeba.Addr) {
		var minSeq uint32
		if len(req) >= 4 {
			minSeq = binary.BigEndian.Uint32(req)
		}
		ctx, cancel := context.WithTimeout(context.Background(), transferWait)
		defer cancel()
		var out []byte
		err := r.Wait(ctx, func(sm StateMachine) bool {
			if r.lastApplied < minSeq {
				return false
			}
			if snap, err := sm.Snapshot(); err == nil {
				out = make([]byte, 4+len(snap))
				binary.BigEndian.PutUint32(out, r.lastApplied)
				copy(out[4:], snap)
			}
			return true
		})
		if err != nil {
			return nil, 0 // still behind, or stopped; empty reply: the joiner asks again, or another member
		}
		return out, 0
	}, amoeba.RPCServerOptions{Concurrent: true})
	if err != nil {
		return fmt.Errorf("shared: starting transfer service: %w", err)
	}
	r.xfer = srv
	return nil
}

// fetchSnapshot asks existing members for a snapshot reflecting at least
// minSeq (our join, which a donor may not have applied yet: it holds the
// request until it has). drain is called between rounds to keep the delivery
// queue flowing.
func (r *Replica) fetchSnapshot(ctx context.Context, minSeq uint32, drain func() error) (uint32, []byte, error) {
	cl, err := r.kernel.NewRPCClient()
	if err != nil {
		return 0, nil, fmt.Errorf("shared: transfer client: %w", err)
	}
	defer cl.Close()

	want := binary.BigEndian.AppendUint32(nil, minSeq)
	info := r.group.Info()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, member := range info.MemberIDs {
			if member == info.Self {
				continue
			}
			callCtx, cancel := context.WithTimeout(ctx, time.Second)
			reply, err := cl.Call(callCtx, transferAddr(r.name, member), want)
			cancel()
			if err != nil || len(reply) < 4 {
				continue
			}
			snapSeq := binary.BigEndian.Uint32(reply)
			if snapSeq < minSeq {
				continue // never install a state older than our join
			}
			return snapSeq, reply[4:], nil
		}
		if err := drain(); err != nil {
			return 0, nil, err
		}
		// Paced by a timer: no event on this node says a donor came back.
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return 0, nil, ErrTransferFailed
}

// polled is a context cancelled from the start: it makes Receive a
// non-blocking poll, which returns a queued message if one is present and
// the context error otherwise.
var polled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// maxJournalBurst bounds the deliveries coalesced into one journal record
// (and, with Durability.Sync, one fsync).
const maxJournalBurst = 128

// start launches the apply loop. A durable replica coalesces the queued
// deliveries behind each blocking receive into one burst, journaling the
// whole run as a single log record before applying it — group commit at the
// replica, mirroring the sequencer's batch amortisation on the wire.
func (r *Replica) start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer close(r.done)
		for {
			m, err := r.group.Receive(ctx)
			if err != nil {
				r.mu.Lock()
				r.stopLocked()
				r.mu.Unlock()
				return
			}
			if !r.durable {
				r.apply(m)
				continue
			}
			burst := []amoeba.Message{m}
			for len(burst) < maxJournalBurst {
				m2, err := r.group.Receive(polled)
				if err != nil {
					break // queue momentarily empty
				}
				burst = append(burst, m2)
			}
			r.applyBurst(burst)
		}
	}()
}

// stopLocked marks the replica stopped — its group is gone, it was expelled,
// or it was closed — and tells everyone asleep on it: Stopped's channel closes
// and Wait's callers wake. r.mu must be held.
func (r *Replica) stopLocked() {
	if !r.stopped {
		r.stopped = true
		close(r.stoppedCh)
	}
	r.wakeLocked()
}

// Stopped returns a channel closed once the replica has stopped: nothing more
// will be applied through it, and a caller waiting for a command of its own to
// apply should give up on this replica (Submit answers ErrStopped from then
// on).
func (r *Replica) Stopped() <-chan struct{} { return r.stoppedCh }

// wakeLocked wakes every Wait caller; r.mu must be held.
func (r *Replica) wakeLocked() {
	if !r.waiting {
		return
	}
	r.waiting = false
	close(r.applyWake)
	r.applyWake = make(chan struct{})
}

// apply folds one delivery into the state machine.
func (r *Replica) apply(m amoeba.Message) {
	r.applyBurst([]amoeba.Message{m})
}

// applyBurst journals then applies a run of deliveries under one lock hold:
// the data entries land in the write-ahead log as a single record (one
// write, one optional fsync) before any of them mutates the state machine,
// so a crash never leaves applied-but-unjournaled state behind.
func (r *Replica) applyBurst(ms []amoeba.Message) {
	r.mu.Lock()
	if r.log != nil {
		var entries []wal.Entry
		last := r.lastApplied
		for i := range ms {
			if ms[i].Kind == amoeba.Data && ms[i].Seq > last {
				entries = append(entries, wal.Entry{Seq: ms[i].Seq, Payload: ms[i].Payload})
				last = ms[i].Seq
			}
		}
		if len(entries) > 0 {
			if err := r.log.Append(entries); err != nil {
				r.walFailLocked(err)
			} else {
				r.sinceCkpt += len(entries)
			}
		}
	}
	for i := range ms {
		r.applyLocked(ms[i])
	}
	log, seq, digest, snap := r.prepareCheckpointLocked()
	r.wakeLocked()
	r.mu.Unlock()
	if log == nil {
		return
	}
	// The checkpoint's disk I/O runs on the log's own mutex, not the
	// replica lock: Read/Wait callers are not stalled behind a snapshot
	// fsync every CheckpointEvery entries. The apply loop is the only
	// appender, and it is here — nothing appends concurrently, so the
	// checkpoint still covers exactly the entries journaled so far.
	if err := log.CheckpointDigest(seq, digest, snap); err != nil {
		r.mu.Lock()
		// The log may have been retired (or swapped by Close) meanwhile;
		// only degrade the one that failed.
		if r.log == log {
			r.walFailLocked(err)
		}
		r.mu.Unlock()
	}
}

// prepareCheckpointLocked decides whether a checkpoint is due and, if so,
// serialises the snapshot — and its state digest, when the state machine is
// a Digester — under the lock (the consistent read) and resets the
// countdown, returning the log to checkpoint into. The disk write itself
// happens at the caller, outside r.mu.
func (r *Replica) prepareCheckpointLocked() (*wal.Log, uint32, uint64, []byte) {
	if r.log == nil || r.sinceCkpt < r.dur.CheckpointEvery {
		return nil, 0, 0, nil
	}
	snap, err := r.sm.Snapshot()
	if err != nil {
		return nil, 0, 0, nil // not fatal: try again after the next burst
	}
	var digest uint64
	if r.digester != nil {
		digest = r.digester.StateDigest()
	}
	r.sinceCkpt = 0
	return r.log, r.lastApplied, digest, snap
}

// applyLocked folds one delivery into the state machine; r.mu must be held.
func (r *Replica) applyLocked(m amoeba.Message) {
	switch m.Kind {
	case amoeba.Data:
		if m.Seq <= r.lastApplied {
			return // already reflected by the snapshot
		}
		// Sample 1-in-8 applies: a median apply is ~1µs, so stamping the
		// wall clock around every one costs more than the work measured.
		var t0 time.Time
		timed := r.applyH != nil && r.applyCount&7 == 0
		r.applyCount++
		if timed {
			t0 = time.Now()
		}
		if r.seqApply != nil {
			r.seqApply.ApplySeq(m.Seq, m.Payload)
		} else {
			r.sm.Apply(m.Payload)
		}
		if timed {
			r.applyH.Observe(time.Since(t0))
		}
		r.lastApplied = m.Seq
	case amoeba.Join, amoeba.Leave, amoeba.Reset:
		r.members = m.Members
		if m.Seq > r.lastApplied {
			r.lastApplied = m.Seq
		}
	case amoeba.Expelled:
		r.stopLocked()
	}
}

// walFailLocked retires a failing log: the replica stays live (the group
// still replicates in memory, and state transfer can heal a restart), but
// durability is lost and reported through DurabilityStats.
func (r *Replica) walFailLocked(err error) {
	if r.walErr == nil {
		r.walErr = err
	}
	r.flight.Recordf("replica/"+r.name, "wal degraded, running in memory only: %v", err)
	r.log.Close()
	r.log = nil
}

// Submit routes a command through the group; when it returns, the command is
// totally ordered (and, with resilience, stored by r other members). The
// local state reflects it once the apply loop catches up — use Read for
// read-your-writes patterns.
func (r *Replica) Submit(ctx context.Context, cmd []byte) error {
	select {
	case <-r.stoppedCh:
		return ErrStopped
	default:
		return r.group.Send(ctx, cmd)
	}
}

// Start submits cmds as one pipelined burst and returns without waiting. Each
// command is ordered, journaled and applied on its own, in slice order, but
// the group coalesces small ones into batch ordering requests; every
// per-command cost on every replica remains, so many small writes do better
// packed into one command, as kv's BatchPut does. done is called once, when
// every command is ordered, with the first error (ErrStopped at once if the
// replica has stopped). The commands are copied before Start returns. A
// caller that starts several submissions — to several replicas — and then
// waits for them all pays one goroutine, not one per replica. done may run
// before Start returns or on a protocol goroutine; it must not block.
func (r *Replica) Start(cmds [][]byte, done func(error)) {
	select {
	case <-r.stoppedCh:
		done(ErrStopped)
	default:
		r.group.Start(cmds, done)
	}
}

// Stats exposes the underlying group's protocol counters, including the
// sequencer-side batch amortisation counters.
func (r *Replica) Stats() amoeba.GroupStats { return r.group.Stats() }

// Read runs fn with exclusive, consistent access to the state machine.
func (r *Replica) Read(fn func(sm StateMachine)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.sm)
}

// Lease returns the replica's read-lease snapshot (see
// amoeba.GroupOptions.LeaseDur).
func (r *Replica) Lease() amoeba.LeaseInfo { return r.group.Lease() }

// LeaseRead runs fn with consistent access to the state machine if — and only
// if — a linearizable local read is permitted right now: the replica holds a
// valid read lease and has applied every delivery through the lease
// watermark. It reports whether fn ran; on false the caller must fall back to
// an ordered read (Submit a read marker, or route to another replica).
//
// Linearizability argument: the read's linearization point is the Lease()
// snapshot. At that instant the lease was valid, so (write gating) every
// write completed before it was stored here — and stored entries are below
// the watermark, which the state was verified to have applied through.
// Anything newer the read happens to observe was already accepted by the
// sequencer, i.e. its effect point precedes the observation.
func (r *Replica) LeaseRead(fn func(sm StateMachine)) bool {
	li := r.group.Lease()
	if !li.Held {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || r.lastApplied < li.Watermark {
		return false
	}
	fn(r.sm)
	return true
}

// StaleRead runs fn against local state if its staleness is provably within
// maxStale: every write completed more than the returned bound ago (plus one
// network transit) is reflected in what fn observes. It reports the bound and
// whether fn ran; on false the caller falls back to a linearizable path.
// Unlike LeaseRead this needs no lease — any replica that has heard a recent
// sequencer tick can serve — so it is the read path that survives lease
// churn, at the price of bounded (not zero) staleness.
func (r *Replica) StaleRead(maxStale time.Duration, fn func(sm StateMachine)) (time.Duration, bool) {
	r.mu.Lock()
	applied := r.lastApplied
	stopped := r.stopped
	r.mu.Unlock()
	if stopped {
		return 0, false
	}
	bound, ok := r.group.FreshAt(applied)
	if !ok || bound > maxStale {
		return bound, false
	}
	// State only advances between the bound computation and the read, so
	// fn observes something at least as fresh as the bound promises.
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return bound, false
	}
	fn(r.sm)
	return bound, true
}

// Wait blocks until pred (evaluated with the same exclusive access as Read)
// returns true, rechecking after every applied command. It returns ErrStopped
// if the replica stops first, or ctx.Err() on cancellation. Use it to wait
// for a submitted command's effect to reach the local copy.
func (r *Replica) Wait(ctx context.Context, pred func(sm StateMachine) bool) error {
	for {
		r.mu.Lock()
		if pred(r.sm) {
			r.mu.Unlock()
			return nil
		}
		if r.stopped {
			r.mu.Unlock()
			return ErrStopped
		}
		wake := r.applyWake
		r.waiting = true
		r.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Applied reports the sequence number of the last applied command.
func (r *Replica) Applied() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// Members reports the current replica-set size.
func (r *Replica) Members() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members
}

// Info exposes the underlying group state.
func (r *Replica) Info() amoeba.GroupInfo { return r.group.Info() }

// Reset rebuilds the replica set after failures; see amoeba.Group.Reset.
func (r *Replica) Reset(ctx context.Context, minAlive int) error {
	return r.group.Reset(ctx, minAlive)
}

// Leave departs the replica set in total order and stops the replica.
func (r *Replica) Leave(ctx context.Context) error {
	err := r.group.Leave(ctx)
	r.Close()
	return err
}

// Close stops the replica without protocol goodbye (a crash, to the rest of
// the replica set). It also releases the resources of a replica that already
// stopped on its own (e.g. one expelled by a recovery it missed).
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.stopLocked()
	r.mu.Unlock()
	if r.cancel != nil {
		r.cancel()
	}
	r.group.Close()
	if r.xfer != nil {
		r.xfer.Close()
	}
	<-r.done
	// The apply loop has exited; the log is safe to flush and close.
	r.mu.Lock()
	if r.log != nil {
		r.log.Close()
		r.log = nil
	}
	r.mu.Unlock()
	if r.beacon != nil {
		r.beacon.Close()
	}
}

// DurabilityStats reports the state of a replica's write-ahead log.
type DurabilityStats struct {
	// Enabled reports whether the replica was opened with durability.
	Enabled bool
	// Log carries the journal's counters.
	Log wal.Stats
	// LastSeq is the highest journaled or checkpointed sequence number.
	LastSeq uint32
	// CheckpointSeq is the newest checkpoint's sequence number.
	CheckpointSeq uint32
	// Err is a non-empty description if the log failed and was retired
	// (the replica keeps running in memory).
	Err string
}

// DurabilityStats returns a snapshot of the replica's durability state.
func (r *Replica) DurabilityStats() DurabilityStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := DurabilityStats{Enabled: r.durable}
	if r.walErr != nil {
		st.Err = r.walErr.Error()
	}
	if r.log != nil {
		st.Log = r.log.Stats()
		st.LastSeq = r.log.LastSeq()
		st.CheckpointSeq = r.log.CheckpointSeq()
	}
	return st
}

// Debug renders the replica's group-protocol state for diagnostics. The
// format is unstable; log it, do not parse it.
func (r *Replica) Debug() string { return r.group.Debug() }
