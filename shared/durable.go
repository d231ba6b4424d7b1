// Durable replicas: a write-ahead log under the replicated state machine,
// and a cold-start path that reforms a group from the surviving logs.
//
// A Replica opened with a Durability config journals every delivered command
// (see wal) and checkpoints snapshots, so its state survives the failure the
// group protocol cannot mask: every member going down at once. On restart,
// Open rebuilds the local state from the log, then picks one of two paths —
//
//   - the group is still running (other members survived): join it with
//     atomic state transfer, exactly as a fresh joiner would. The transfer
//     is authoritative; the log is reset to the transferred snapshot.
//   - the group is gone (whole-cluster restart): the restarting members
//     elect the one whose log recovered the highest sequence number — ties
//     broken toward a preferred rank — and that member re-creates the group
//     with its sequence space seeded past the recovered history
//     (GroupOptions.FirstSeq); the rest join it and state-transfer as today.
//
// The election runs over a per-member recovery beacon: a tiny RPC service at
// a well-known address derived from (group, rank) answering "I recovered up
// to seq S" — or "the group exists, join it" once its owner is a member.
// Like group creation itself (paper §5), the election is not atomic: a
// candidate that boots long after the survivors decided simply finds the
// reformed group and joins it. The election can only weigh the logs of
// members that are up: a longer log that boots after the group reformed
// joins like anyone else, and the suffix it held beyond the transfer point
// is discarded (observable as wal.Stats.ResetDiscarded in
// DurabilityStats) — the price of recovering availability without waiting
// for every last member.
package shared

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/wal"
)

// Durability configures a replica's write-ahead log and its place in the
// cold-start election. Dir is required; the zero values of everything else
// are sensible.
type Durability struct {
	// Dir is the replica's private log directory. Required; two replicas
	// must never share one.
	Dir string
	// Sync fsyncs every journal append record, extending the journal's
	// durability from process crashes to power loss, at a throughput
	// cost (the benchmark's wal.append_sync_p50_us rung against
	// wal.append_p50_us). Replicas journal at apply time, so this covers
	// everything the replica has applied; see the wal package's durability
	// contract for the bound.
	Sync bool
	// FS is the file system the log does its I/O through (nil: the
	// operating system's); see wal.Options.FS.
	FS wal.FS

	// Rank is this replica's slot among the group's durable hosts, in
	// [0, Peers); it names the replica's recovery beacon.
	Rank int
	// Peers is the number of durable hosts (and beacons) of this group.
	// 0 or 1 means the replica recovers alone: no election, just
	// join-else-create.
	Peers int
	// Preferred is the rank that wins cold-start ties (equal recovered
	// seqs — including a fresh cluster, where everyone recovered 0). Use
	// it to spread reformed sequencers across nodes, as kv does.
	Preferred int
	// Bootstrap declares a brand-new deployment: a replica whose log is
	// virgin (never recorded anything) creates the group immediately when
	// Rank == Preferred instead of probing for survivors first, making a
	// first boot as fast as the non-durable path. A log that has recorded
	// anything ignores the flag — a restart is never a bootstrap.
	Bootstrap bool
}

// electionPollTimeout bounds one beacon probe; electionWins is how many
// consecutive winning rounds a candidate needs before re-creating the group
// (two, so a beacon that comes up between rounds gets a vote).
const (
	electionPollTimeout = 250 * time.Millisecond
	electionWins        = 2
)

// beaconAddr is the well-known address of a durable replica's recovery
// beacon.
func beaconAddr(group string, rank int) amoeba.Addr {
	return amoeba.AddrForName(fmt.Sprintf("wal-beacon/%s/%d", group, rank))
}

// Beacon wire format: state(1) | recovered seq(4). The state is 0 while the
// replica is a recovery candidate and beaconMember once it is a member.
const beaconMember byte = 1

// beacon serves a replica's recovery state to its peers' elections.
type beacon struct {
	srv *amoeba.RPCServer
	// word packs state<<32 | seq, updated as the owner's recovery
	// progresses.
	word atomic.Uint64
}

func startBeacon(k *amoeba.Kernel, group string, rank int, seq uint32) (*beacon, error) {
	b := &beacon{}
	b.word.Store(uint64(seq))
	srv, err := k.NewRPCServer(beaconAddr(group, rank), func([]byte) ([]byte, amoeba.Addr) {
		w := b.word.Load()
		out := make([]byte, 5)
		out[0] = byte(w >> 32)
		binary.BigEndian.PutUint32(out[1:], uint32(w))
		return out, 0
	})
	if err != nil {
		return nil, fmt.Errorf("shared: starting recovery beacon: %w", err)
	}
	b.srv = srv
	return b, nil
}

func (b *beacon) setMember() {
	b.word.Store(uint64(beaconMember)<<32 | uint64(uint32(b.word.Load())))
}

func (b *beacon) Close() { b.srv.Close() }

// betterCandidate reports whether candidate a (seq, rank) beats b in the
// cold-start election: higher recovered seq wins — no surviving log may be
// discarded in favour of a shorter one — and ties go to the rank closest
// (cyclically) to the preferred creator.
func betterCandidate(aSeq uint32, aRank int, bSeq uint32, bRank int, preferred, peers int) bool {
	if aSeq != bSeq {
		return aSeq > bSeq
	}
	if peers <= 0 {
		peers = 1
	}
	da := (aRank - preferred%peers + peers) % peers
	db := (bRank - preferred%peers + peers) % peers
	return da < db
}

// pollPeers probes every other rank's beacon once, in parallel, and reports
// the best candidate seen (starting from self) and whether any peer already
// reached membership — in which case the group exists and the caller must
// join, not create.
func pollPeers(ctx context.Context, cl *amoeba.RPCClient, group string, dur Durability, selfSeq uint32) (bestSeq uint32, bestRank int, memberSeen bool) {
	bestSeq, bestRank = selfSeq, dur.Rank
	type answer struct {
		rank  int
		seq   uint32
		state byte
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ans []answer
	)
	for rank := 0; rank < dur.Peers; rank++ {
		if rank == dur.Rank {
			continue
		}
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			callCtx, cancel := context.WithTimeout(ctx, electionPollTimeout)
			defer cancel()
			reply, err := cl.Call(callCtx, beaconAddr(group, rank), nil)
			if err != nil || len(reply) < 5 {
				return // peer still down (or not a durable host): no vote
			}
			mu.Lock()
			ans = append(ans, answer{rank: rank, seq: binary.BigEndian.Uint32(reply[1:]), state: reply[0]})
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, a := range ans {
		if a.state == beaconMember {
			memberSeen = true
		}
		if betterCandidate(a.seq, a.rank, bestSeq, bestRank, dur.Preferred, dur.Peers) {
			bestSeq, bestRank = a.seq, a.rank
		}
	}
	return bestSeq, bestRank, memberSeen
}

// Open starts a durable replica: the state machine is rebuilt from the
// write-ahead log in dur.Dir (newest checkpoint plus the journal suffix),
// and the replica then joins its group — or, when the whole group is gone,
// takes part in the cold-start election and either re-creates the group from
// its recovered history or joins whoever did. When Open returns, sm is
// current with the group's total order and every subsequent delivery is
// journaled. ctx bounds the whole recovery, including waiting out peers that
// are still rebooting.
func Open(ctx context.Context, k *amoeba.Kernel, name string, sm StateMachine, opts amoeba.GroupOptions, dur Durability) (*Replica, error) {
	if dur.Dir == "" {
		return nil, errors.New("shared: Durability.Dir is required")
	}
	log, err := wal.Open(dur.Dir, wal.Options{Sync: dur.Sync, Obs: opts.Obs, FS: dur.FS})
	if err != nil {
		return nil, fmt.Errorf("shared: opening log for %q: %w", name, err)
	}
	// A state machine that can digest itself gets verified recovery: each
	// restored checkpoint's digest is recomputed and compared against the
	// stamp, and a checkpoint that does not round-trip is refused in favour
	// of an older one plus a longer replay.
	var verify func(seq uint32, digest uint64) bool
	if dg, ok := sm.(Digester); ok {
		verify = func(seq uint32, digest uint64) bool { return dg.StateDigest() == digest }
	}
	recovered, err := log.Recover(
		func(snap []byte, seq uint32) error { return sm.Restore(snap) },
		func(e wal.Entry) error { sm.Apply(e.Payload); return nil },
		verify,
	)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("shared: recovering %q from %s: %w", name, dur.Dir, err)
	}

	beacon, err := startBeacon(k, name, dur.Rank, recovered)
	if err != nil {
		log.Close()
		return nil, err
	}
	// Declared bootstrap of a never-used log: the preferred rank creates
	// immediately; everyone else joins, electing a creator if the group is
	// gone.
	create := dur.Bootstrap && log.Virgin() && dur.Rank == dur.Preferred%max(dur.Peers, 1)
	var r *Replica
	if !create {
		r, create, err = joinOrElect(ctx, k, name, sm, opts, log, dur, recovered)
	}
	if create && err == nil {
		r, err = createSeeded(ctx, k, name, sm, opts, log, recovered)
	}
	if err != nil {
		beacon.Close()
		log.Close()
		return nil, err
	}
	beacon.setMember()
	r.beacon = beacon
	return r, nil
}

// joinOrElect joins the group with the log until the join succeeds, or until
// the group is gone and this replica is the one to re-create it (true): it
// recovers alone, or it won the cold-start election electionWins rounds
// running.
func joinOrElect(ctx context.Context, k *amoeba.Kernel, name string, sm StateMachine, opts amoeba.GroupOptions, log *wal.Log, dur Durability, recovered uint32) (*Replica, bool, error) {
	cl, err := k.NewRPCClient()
	if err != nil {
		return nil, false, fmt.Errorf("shared: election client: %w", err)
	}
	defer cl.Close()
	wins := 0
	for {
		r, err := joinWithLog(ctx, k, name, sm, opts, log)
		if err == nil {
			return r, false, nil
		}
		if ctx.Err() != nil {
			return nil, false, err
		}
		switch {
		case errors.Is(err, amoeba.ErrNoGroup):
			if dur.Peers <= 1 {
				return nil, true, nil // recovering alone: nothing to elect against
			}
			if dur.Bootstrap && log.Virgin() {
				// Fresh log in a declared bootstrap: the preferred rank
				// is creating; just keep trying to join it.
				wins = 0
				continue
			}
			_, bestRank, memberSeen := pollPeers(ctx, cl, name, dur, recovered)
			if memberSeen || bestRank != dur.Rank {
				// Someone else reformed the group, or holds (or ties
				// ahead with) a longer log and will: go back to joining.
				wins = 0
				continue
			}
			wins++
			if wins == electionWins {
				return nil, true, nil
			}
			// One more join round, in case a peer is racing up.
		case errors.Is(err, ErrTransferFailed), errors.Is(err, amoeba.ErrNotMember):
			// The group is there but mid-churn; retry the join.
			wins = 0
		default:
			return nil, false, err
		}
	}
}

// createSeeded re-creates (or first-creates) the group from this replica's
// recovered history: the new sequence space starts past everything the log
// knows, and a checkpoint of the recovered state marks the log non-virgin
// and bounds the next recovery's replay. On failure the caller closes log.
func createSeeded(ctx context.Context, k *amoeba.Kernel, name string, sm StateMachine, opts amoeba.GroupOptions, log *wal.Log, recovered uint32) (*Replica, error) {
	opts.FirstSeq = recovered
	g, err := k.CreateGroup(ctx, name, opts)
	if err != nil {
		return nil, fmt.Errorf("shared: re-creating %q: %w", name, err)
	}
	r := newReplica(k, g, name, sm, opts.Obs)
	r.lastApplied.Store(recovered)
	r.log = log
	r.durable = true
	snap, err := sm.Snapshot()
	if err == nil {
		err = log.Checkpoint(recovered, r.stampLocked(), snap)
	}
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("shared: checkpointing recovered state of %q: %w", name, err)
	}
	if err := r.serveTransfers(); err != nil {
		g.Close()
		return nil, err
	}
	r.start()
	return r, nil
}
