// Live resharding: the coordinated handoff that grows (split) or shrinks
// (merge) a running store's shard-group count with zero lost or duplicated
// keys, under client load.
//
// The unit of truth is the epoch-versioned Routing table, replicated inside
// every shard's state machine and changed only by sequenced migration
// commands — so the handoff inherits the total order's guarantees and, on
// durable stores, the write-ahead log's crash safety:
//
//	begin(E)    every shard (old and new) installs the pending table;
//	            ranges moving away from a shard freeze (reads and writes
//	            answer Moved and are retried by the client layer until the
//	            flip) — no moved key is ever served from two places
//	import(E)   each source shard's frozen moving pairs stream into their
//	            new owners, chunked under the group message limit; imports
//	            are epoch-gated so a re-driven chunk can never overwrite a
//	            post-flip client write
//	commit(E)   each shard flips to the new table and deletes moved keys;
//	            commits are issued only after EVERY import completed, which
//	            is the invariant the crash-resume path leans on: any shard
//	            observed at epoch E proves the import phase finished
//
// A crash mid-handoff (even of every node at once) recovers the exact
// migration state from the logs: Bootstrap finds the pending table and
// re-drives the handoff — re-exporting from still-frozen sources if nothing
// committed, or going straight to the remaining commits if anything did.
// Both paths are idempotent, so a dueling coordinator is safe, just wasted
// work.
package kv

import (
	"context"
	"errors"
	"fmt"

	"amoeba/shared"
)

// ErrReshardPending reports a Resharding call that conflicts with a handoff
// already in progress (resume it by asking for the pending shard count).
var ErrReshardPending = errors.New("kv: a resharding is already in progress")

// Resharding changes the live store to newShards shard groups: a split
// (N→N+k) creates the new groups across the nodes and streams the key
// ranges they take over out of every old shard; a merge (N→N−k) streams the
// dying shards' keys into their surviving owners and retires the dead
// groups. The handoff runs under client load: operations on moving keys are
// held (retried internally) between freeze and flip, everything else
// proceeds, and when Resharding returns the whole keyspace is served under
// the new table — consistent hashing keeps the moved fraction near
// (|new−old|)/max(new,old) instead of a full rehash.
//
// Any node of the store can coordinate. If a previous handoff was
// interrupted (coordinator crash), calling Resharding with the pending
// shard count resumes it; any other count fails with ErrReshardPending.
// Live resharding requires full replication (Options.Replication 0).
func (s *Store) Resharding(ctx context.Context, newShards int) error {
	if newShards <= 0 {
		return fmt.Errorf("kv: resharding to %d shards", newShards)
	}
	if s.opts.Replication > 0 && s.opts.Nodes > 0 && s.opts.Replication < s.opts.Nodes {
		return fmt.Errorf("kv: live resharding requires full replication (replication is %d of %d nodes)",
			s.opts.Replication, s.opts.Nodes)
	}
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	cur := s.Routing()
	if pend := s.PendingRouting(); pend != nil {
		if newShards != pend.Shards {
			return fmt.Errorf("%w (to %d shards, epoch %d); call Resharding(%d) to resume it first",
				ErrReshardPending, pend.Shards, pend.Epoch, pend.Shards)
		}
		return s.reshardTo(ctx, *pend)
	}
	if newShards == cur.Shards {
		return nil
	}
	target := Routing{Epoch: cur.Epoch + 1, Shards: newShards, VNodes: cur.VNodes}
	return s.reshardTo(ctx, target)
}

// resumeResharding finishes a handoff a crash interrupted, if the recovered
// state holds one. Called by the durable bootstrap path before the store is
// handed out.
func (s *Store) resumeResharding(ctx context.Context) error {
	pend := s.PendingRouting()
	if pend == nil {
		return nil
	}
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	return s.reshardTo(ctx, *pend)
}

// reshardTo drives (or re-drives) the handoff to the target table. Every
// step is idempotent, so the same target can be driven again after any
// partial failure.
func (s *Store) reshardTo(ctx context.Context, target Routing) error {
	cur := s.Routing()
	if target.Epoch < cur.Epoch {
		return nil // superseded by a later table
	}
	s.coordinating.Store(true)
	defer s.coordinating.Store(false)
	flight := s.opts.Group.Obs.Flight()
	tag := "kv/" + s.name + "/coord"
	flight.Recordf(tag, "reshard: driving epoch %d (%d -> %d shards)",
		target.Epoch, cur.Shards, target.Shards)
	if target.Epoch == cur.Epoch {
		// The table already committed somewhere (that is how the store
		// epoch reached it), but straggler shards still carry the pending
		// freeze — a crash landed between per-shard commits. The import
		// phase provably finished before the first commit, so only the
		// remaining commits are owed.
		return s.commitAll(ctx, target)
	}
	oldN := cur.Shards
	maxN := oldN
	if target.Shards > maxN {
		maxN = target.Shards
	}
	// Resume detection: a shard already at the target epoch proves every
	// import completed before the crash — re-exporting would race post-flip
	// client writes, so skip straight to the remaining commits.
	committed, err := s.anyShardAtEpoch(ctx, maxN, target.Epoch)
	if err != nil {
		return err
	}
	if committed {
		flight.Recordf(tag, "reshard: epoch %d partially committed, resuming at flip", target.Epoch)
	}
	if !committed {
		// Phase 1: freeze. Every old shard installs the pending table; the
		// ranges it loses stop serving until its commit.
		for i := 0; i < oldN; i++ {
			if err := s.migrate(ctx, i, opMigrateBegin, target, nil); err != nil {
				return fmt.Errorf("kv: migrate-begin on shard %d: %w", i, err)
			}
		}
		// Phase 2: topology. The begins just applied start an owner on
		// every node for each announced slot, which creates (this node, the
		// coordinator, in memory) or joins the slot's group — wait until
		// this node hosts them all.
		if target.Shards > oldN {
			if err := s.waitHosted(ctx, oldN, target.Shards); err != nil {
				return err
			}
			for i := oldN; i < target.Shards; i++ {
				if err := s.migrate(ctx, i, opMigrateBegin, target, nil); err != nil {
					return fmt.Errorf("kv: migrate-begin on new shard %d: %w", i, err)
				}
			}
		}
		// Phase 3: stream. Export every old shard's frozen moving pairs
		// into their new owners through the owners' total order.
		next := target.ring(s.name)
		for src := 0; src < oldN; src++ {
			if err := s.exportShard(ctx, src, next, target); err != nil {
				return err
			}
		}
		flight.Recordf(tag, "reshard: epoch %d streamed, flipping", target.Epoch)
	} else if target.Shards > oldN {
		if err := s.waitHosted(ctx, oldN, target.Shards); err != nil {
			return err
		}
	}
	// Phase 4: flip.
	if err := s.commitAll(ctx, target); err != nil {
		return err
	}
	flight.Recordf(tag, "reshard: epoch %d committed (%d shards)", target.Epoch, target.Shards)
	return nil
}

// commitAll drives migrate-commit through every shard that could still be
// pre-flip: sources delete their moved keys, frozen ranges thaw at their
// new owners. Commits are idempotent, so driving an already-committed shard
// is a no-op. A merged-away shard may already have been retired by its
// owner (retirement waits for that shard's own flip, so a missing replica
// proves its commit applied) — racing a retire is success.
func (s *Store) commitAll(ctx context.Context, target Routing) error {
	n := len(s.snapshotShards())
	if target.Shards > n {
		n = target.Shards
	}
	retired := func(i int) bool { return i >= target.Shards && s.Replica(i) == nil }
	for i := 0; i < n; i++ {
		if retired(i) {
			continue
		}
		if err := s.migrate(ctx, i, opMigrateCommit, target, nil); err != nil {
			if retired(i) {
				continue
			}
			return fmt.Errorf("kv: migrate-commit on shard %d: %w", i, err)
		}
	}
	// The slot owners retire merged-away shards on every node as the flip
	// is observed; nothing to wait for here.
	return nil
}

// exportShard streams the pairs shard src loses under next into their new
// owners, chunked to stay under the group message limit. The source is
// frozen (begin applied before the export read), so the chunks are a
// consistent cut however often they are re-driven.
func (s *Store) exportShard(ctx context.Context, src int, next *ring, target Routing) error {
	r := s.Replica(src)
	if r == nil {
		return fmt.Errorf("kv: exporting shard %d: not hosted on this node", src)
	}
	var chunks map[int][]*importChunk
	r.Read(func(sm shared.StateMachine) {
		chunks = sm.(*mapSM).exportChunks(next, maxCommandBytes)
	})
	for dest, list := range chunks {
		for _, chunk := range list {
			if err := s.migrate(ctx, dest, opMigrateImport, target, chunk); err != nil {
				return fmt.Errorf("kv: importing %d pairs from shard %d into shard %d: %w",
					len(chunk.Pairs), src, dest, err)
			}
		}
	}
	return nil
}

// migrate submits one migration command — op to the target table, an import
// carrying chunk — through shard's total order and waits for its replicated
// result. A Moved result (an import landing after the target already flipped
// — possible only when a second coordinator finished the handoff first)
// counts as success: the flip it lost to subsumes it. A rejected begin (OK
// false: the shard carries a CONFLICTING pending table) is an error —
// exporting an unfrozen shard would lose the writes that raced the export, so
// the coordinator must stop.
func (s *Store) migrate(ctx context.Context, shard int, op byte, target Routing, chunk *importChunk) error {
	res, err := s.run(ctx, shard, op, func(h header) []byte {
		if op == opMigrateImport {
			return encodeMigrateImport(h, target, chunk)
		}
		return encodeMigrate(op, h, target)
	})
	if err != nil {
		if errors.Is(err, errMoved) {
			return nil
		}
		return err
	}
	if !res.OK && op == opMigrateBegin {
		return fmt.Errorf("kv: shard %d rejected migrate-begin for epoch %d (conflicting handoff in progress?)", shard, target.Epoch)
	}
	return nil
}

// anyShardAtEpoch reports whether any hosted shard in [0, n) has already
// committed the given epoch.
func (s *Store) anyShardAtEpoch(ctx context.Context, n int, epoch uint64) (bool, error) {
	for i := 0; i < n; i++ {
		r := s.Replica(i)
		if r == nil {
			continue
		}
		at := false
		r.Read(func(sm shared.StateMachine) {
			at = sm.(*mapSM).routing.Epoch >= epoch
		})
		if at {
			return true, nil
		}
	}
	return false, ctx.Err()
}

// waitHosted blocks until this node hosts replicas of shards [lo, hi) — the
// slots' owners join or create them once the begins propagate.
func (s *Store) waitHosted(ctx context.Context, lo, hi int) error {
	for {
		wake := s.RoutingWatch() // fires as each replica is installed
		missing := -1
		for i := lo; i < hi; i++ {
			if s.Replica(i) == nil {
				missing = i
				break
			}
		}
		if missing < 0 {
			return nil
		}
		if err := s.awaitChange(ctx, wake); err != nil {
			return fmt.Errorf("kv: waiting for new shard %d to come up: %w", missing, err)
		}
	}
}
