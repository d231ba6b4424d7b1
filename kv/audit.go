package kv

import (
	"context"
	"fmt"
	"slices"
	"time"

	"amoeba/obs"
	"amoeba/shared"
)

// Sequenced state-digest audits.
//
// An audit is an ordinary command riding the shard's total order: the
// sequencer (or any member) submits opAudit, every replica applies it at the
// same sequence number, and each replica hashes its replicated state at that
// exact point in the order. Because the state machine is deterministic, the
// digests MUST agree — any mismatch is corruption (bit rot, a heisenbug in
// apply, a torn snapshot) and the per-node obs.Auditor localizes it to the
// (shard, audit seq, key-range) where the replicas first disagree.
//
// The digest is range-partitioned: keys hash into defaultAuditRanges buckets
// and each bucket folds its items with an order-independent wrapping sum, so
// two replicas' digests can be diffed bucket-by-bucket without shipping the
// state. Everything replicated participates — items, the client sessions'
// outcomes and records, routing epoch and pending table, transaction
// portions — while
// node-local fields (lockSeen, rings, trace hooks) are excluded by
// construction. The same fold (collapsed to one range) stamps WAL
// checkpoints via shared.Digester, so cold-start recovery verifies the state
// it restores.

const (
	// defaultAuditRanges is the key-range partition count the audit driver
	// requests: fine enough to localize a divergence to ~1/16th of the key
	// space, coarse enough that a digest report is a few hundred bytes.
	defaultAuditRanges = 16
	// maxAuditRanges bounds the partition count a decoded audit command may
	// request — a byzantine client must not make replicas allocate
	// unbounded digest vectors.
	maxAuditRanges = 4096
)

// FNV-64a, inlined so the digest needs no hasher allocation per fold.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fnvAdd folds one 64-bit word, byte by byte big-endian.
func fnvAdd(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (v >> shift & 0xff)) * fnvPrime64
	}
	return h
}

// digestState hashes the replicated state into n key-range digests plus a
// meta digest. It is a pure function of the replicated state: every replica
// of one shard computes the identical result at the same position in the
// total order, and a replica restored from a snapshot computes the same value
// as the replica that took it — the fold reads lengths and contents, never
// whether a slice is nil or empty, which a snapshot need not keep apart.
func (s *mapSM) digestState(n int) obs.Digest {
	if n <= 0 {
		n = 1
	}
	d := obs.Digest{
		Epoch:  s.routing.Epoch,
		Keys:   len(s.items),
		Ranges: make([]uint64, n),
	}
	// Items: per-key fold, bucketed by key hash, combined with a wrapping
	// sum so map iteration order cannot matter.
	for k, v := range s.items {
		h := fnvAdd(fnvOffset64, uint64(len(k)))
		h = fnvStr(h, k)
		h = fnvAdd(h, uint64(len(v)))
		h = fnvBytes(h, v)
		bucket := fnvStr(fnvOffset64, k) % uint64(n)
		d.Ranges[bucket] += h
	}
	// Meta: the session table as its incrementally-maintained wrapping sum
	// of per-entry folds (every session's ack, outcome and record — see
	// session.go, which keeps the sum current), with the session count and
	// the clock: folding the table entry by entry on every audit is what the
	// sum avoids. Then routing, pending, and the prepared portions.
	m := uint64(fnvOffset64)
	m = fnvAdd(m, uint64(len(s.sessions)))
	m = fnvAdd(m, s.clock)
	m = fnvAdd(m, s.sessSum)
	m = fnvAdd(m, s.routing.Epoch)
	m = fnvAdd(m, uint64(s.routing.Shards))
	m = fnvAdd(m, uint64(s.routing.VNodes))
	if s.pending != nil {
		m = fnvAdd(m, s.pending.Epoch)
		m = fnvAdd(m, uint64(s.pending.Shards))
		m = fnvAdd(m, uint64(s.pending.VNodes))
	}
	// Prepared portions, sorted for determinism and folded fully — an
	// in-flight portion's held-back writes are replicated state too — as
	// their records are: spelled, then folded.
	txnIDs := make([]txnID, 0, len(s.txns))
	for id := range s.txns {
		txnIDs = append(txnIDs, id)
	}
	slices.SortFunc(txnIDs, txnID.compare)
	m = fnvAdd(m, uint64(len(txnIDs)))
	var spelled []byte
	for _, id := range txnIDs {
		spelled = appendPortion(spelled[:0], s.txns[id])
		m = foldPortion(m, spelled)
	}
	d.Meta = m
	// Sum folds the meta and every range into one word — the value a WAL
	// checkpoint is stamped with.
	sum := fnvAdd(fnvOffset64, m)
	for _, r := range d.Ranges {
		sum = fnvAdd(sum, r)
	}
	d.Sum = sum
	return d
}

// foldPortion folds one transaction portion spelled as appendPortion spells
// it: state, attempt, home key, all keys, then each read key with its
// captured value and found bit beside it, each write (key, value, delete bit)
// and each condition (key, expected value, presence bit). It reads the
// spelling in place, the three read lists side by side, and allocates
// nothing.
func foldPortion(m uint64, rec []byte) uint64 {
	r := reader{b: rec}
	m = fnvAdd(m, uint64(r.u8()))
	m = fnvAdd(m, r.u64())
	m = fnvAdd(m, r.uvarint())
	m = fnvAdd(m, r.uvarint())
	m = fnvBytes(m, r.raw())
	n := r.count(1)
	m = fnvAdd(m, uint64(n))
	for ; n > 0; n-- {
		m = fnvBytes(m, r.raw())
	}
	// Reads, values and found bits come as three lists: a reader at the
	// head of each.
	nReads := r.count(1)
	reads := r
	for i := 0; i < nReads; i++ {
		r.raw()
	}
	nVals := r.count(1)
	vals := r
	for i := 0; i < nVals; i++ {
		r.raw()
	}
	nFound := r.count(1)
	found := r
	for i := 0; i < nFound; i++ {
		r.u8()
	}
	m = fnvAdd(m, uint64(nReads))
	for i := 0; i < nReads; i++ {
		m = fnvBytes(m, reads.raw())
		if i < nVals {
			v := vals.raw()
			m = fnvAdd(m, uint64(len(v)))
			m = fnvBytes(m, v)
		}
		m = fnvAdd(m, bit(i < nFound && found.flag()))
	}
	for list := 0; list < 2; list++ { // the writes, then the conditions
		n = r.count(3)
		m = fnvAdd(m, uint64(n))
		for ; n > 0; n-- {
			k, flag, v := r.raw(), r.flag(), r.raw()
			m = fnvBytes(m, k)
			m = fnvBytes(m, v)
			m = fnvAdd(m, bit(flag))
		}
	}
	return m
}

// bit is a flag as a digest word: 1 or 0.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// StateDigest implements shared.Digester: the single-range collapse of the
// audit digest, stamped onto WAL checkpoints so recovery can verify the
// snapshot it restores (see wal.Log.Recover).
func (s *mapSM) StateDigest() uint64 {
	return s.digestState(1).Sum
}

var _ shared.Digester = (*mapSM)(nil)

// applyAudit evaluates one sequenced audit: hash the state as it stands at
// this position in the order (BEFORE its own outcome is recorded, which is
// also what wakes the caller that submitted it) and hand the digest to the
// node-local auditor hook. Dedup suppresses re-execution of a retried audit,
// so one audit yields at most one report per replica per timeline; WAL
// replay re-reporting one recomputes the identical digest — harmless.
//
// This is the one apply that is not short (shared.StateMachine.Apply): it
// hashes every key, and on an in-memory replica it does so on the goroutine
// that delivered the audit, so no other group on the node takes a packet
// meanwhile. The digest must see the state at this position in the order,
// so it cannot move off the apply path until the state can hand out an
// immutable view (ROADMAP item 13(b)).
func (s *mapSM) applyAudit(c *command) {
	if s.onAudit != nil {
		d := s.digestState(c.ranges)
		d.ID = c.waitID()
		d.Seq = s.seq
		s.onAudit(s.shard, d)
	}
}

// auditScope names one shard's audit stream — the same label the shard's
// flight-recorder events use, so a divergence dump and the shard's recent
// history line up.
func auditScope(store string, shard int) string {
	return fmt.Sprintf("kv/%s/%d", store, shard)
}

// auditNodeName labels this node's reports in the auditor.
func auditNodeName(nodeIndex int) string {
	return fmt.Sprintf("node-%d", nodeIndex)
}

// auditDriver periodically submits audit commands and reports apply
// progress. Every hosting node runs a driver (reporting its replicas'
// applied seq each tick, which feeds the apply-lag gauge), but only the
// shard's sequencer submits the audit command — one audit per shard per
// period, not one per replica.
func (s *Store) auditDriver(ctx context.Context) {
	defer s.healWG.Done()
	t := time.NewTicker(s.opts.AuditEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.auditTick(ctx)
		}
	}
}

// auditTick runs one audit period: progress reports for every hosted
// replica, plus an audit submission for each shard this node sequences.
func (s *Store) auditTick(ctx context.Context) {
	aud := s.opts.Group.Obs.Health()
	node := auditNodeName(s.opts.NodeIndex)
	for i, r := range s.snapshotShards() {
		if r == nil {
			continue
		}
		aud.Progress(auditScope(s.name, i), node, r.Applied())
		info := r.Info()
		if !info.IsSequencer {
			continue
		}
		session, seq, ack := s.sess.begin(1)
		cmd := encodeAudit(header{session: session, seq: seq, ack: ack}, defaultAuditRanges)
		sctx, cancel := context.WithTimeout(ctx, s.opts.AuditEvery)
		err := r.Submit(sctx, cmd)
		cancel()
		s.sess.end(session, seq, 1)
		if err != nil && ctx.Err() == nil {
			s.flight().Recordf(auditScope(s.name, i), "audit submit failed: %v", err)
		}
	}
}

// CorruptShard adds one item to shard i's LOCAL replica, under a key the
// shard serves and no client writes — silent single-replica state
// corruption, exactly what the audit tier exists to catch, and one no later
// write can undo: a write to a key the workload uses (a transaction
// committing over a key it locked before the damage, say) would overwrite a
// damaged value alike on every replica. It reports the key. Test hook: the
// fuzz harness's planted-divergence self-test and the kv regression test use
// it to prove a divergence is detected and localized.
func (s *Store) CorruptShard(i int) (string, bool) {
	r := s.Replica(i)
	if r == nil {
		return "", false
	}
	var key string
	var ok bool
	r.Read(func(m shared.StateMachine) {
		sm := m.(*mapSM)
		for n := 0; n < 1<<16 && !ok; n++ {
			key = fmt.Sprintf("\x00planted-%d", n)
			_, taken := sm.items[key]
			ok = sm.serves(key) && !taken
		}
		if ok {
			sm.items[key] = []byte{0xff}
		}
	})
	return key, ok
}
