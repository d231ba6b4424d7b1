package core

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

var errBadLeaseGrants = errors.New("core: malformed lease grant payload")

// This file implements sequencer-granted read leases (Gray & Cheriton style,
// adapted to the Amoeba sequencer): the sequencer piggybacks lease grants on
// its periodic sync ticks, and a member holding an unexpired lease may serve
// linearizable reads from local state without touching the ordering path.
//
// Safety rests on three rules:
//
//  1. Write gating. With leases enabled every message takes the
//     tentative/accept path (even at resilience 0), and the sequencer
//     accepts an entry only once every member holding an unexpired grant
//     has acknowledged storing it. A completed write is therefore stored by
//     every live lease holder before its sender's Send returns — so a
//     holder that reads at its contiguous-storage watermark observes every
//     completed write.
//
//  2. The silence rule. The sequencer grants (and renews) leases only while
//     every member has been heard from within leaseSilence — a fraction of
//     the guard. A deposed sequencer on the wrong side of a partition loses
//     contact with the members that participate in the recovery (they
//     freeze and fall silent), so its granting stops within leaseSilence of
//     the recovery's start regardless of quorum configuration, and every
//     lease it ever issued expires within LeaseDur of that.
//
//  3. The failover fence. A new sequencer (recovery coordinator, recovery
//     voter, or handoff successor) suspends acceptance, delivery, and send
//     completions for LeaseDur+LeaseGuard after installing the new regime —
//     long enough for rule 2 to kill every grant of the old one. Nothing
//     the old holders might lack becomes visible (or acknowledged to a
//     client) while any of their leases could still be live.
//
// Holder-side validity is receipt-time + LeaseDur − LeaseGuard; the granter
// remembers grant-time + LeaseDur + LeaseGuard. The 2×guard asymmetry
// absorbs transit delay and clock-timer skew between the two endpoints.

// freshRingMax bounds the member-side ring of freshness anchors used for
// bounded-staleness reads.
const freshRingMax = 32

// freshMark is one bounded-staleness anchor: at local time `at`, the
// sequencer's watermark was `seq` — every write completed before `at` (less
// one network transit) has a sequence number ≤ seq.
type freshMark struct {
	at  time.Duration
	seq uint32
}

// leasesOn reports whether read leases are enabled.
func (c *Config) leasesOn() bool { return c.LeaseDur > 0 }

// leaseSilence is how long a member may be unheard before the sequencer
// suspends all granting (rule 2). It must not exceed the guard: grants stop
// at least guard before the earliest moment a recovery fence could lift.
func (c *Config) leaseSilence() time.Duration { return c.LeaseGuard * 4 / 5 }

// LeaseInfo is a snapshot of this endpoint's read-lease state.
type LeaseInfo struct {
	// Enabled reports whether the group runs with read leases.
	Enabled bool
	// Held reports whether a local linearizable read is currently
	// permitted: a valid unexpired lease (member), or granting authority
	// (sequencer).
	Held bool
	// Remaining is the time left on the held lease (members; nominal for
	// the sequencer, whose authority is re-evaluated per read).
	Remaining time.Duration
	// Watermark is the sequence number a local read must have applied
	// through before serving: every write completed before this snapshot
	// has a seqno ≤ Watermark.
	Watermark uint32
	// Incarnation is the view incarnation the lease state belongs to.
	Incarnation uint32
}

// Lease returns the endpoint's read-lease snapshot, at the cost of the
// endpoint's lock and a few fields: nothing walks the history. A member's
// watermark is the higher of its delivery point and its contiguous top (the
// history keeps it as entries arrive, are pruned or truncated), so it may lie
// above what the local state has applied: an entry the member stored and
// acked — which a completed write may be — whose accept is still on its way.
// A reader serving at the watermark waits for that apply, for at most
// Remaining, rather than leave the fast path (shared.Replica.LeaseRead).
func (ep *Endpoint) Lease() LeaseInfo {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	li := LeaseInfo{Enabled: ep.cfg.leasesOn(), Incarnation: ep.view.incarnation}
	if !li.Enabled || ep.st != stNormal {
		return li
	}
	now := ep.cfg.Clock.Now()
	if ep.isSeq {
		li.Watermark = ep.nextDeliver - 1
		if ep.grantAllowedLocked(now) {
			li.Held = true
			li.Remaining = ep.cfg.leaseSilence()
		}
		return li
	}
	wm := ep.hist.contiguousTop()
	if nd := ep.nextDeliver - 1; nd > wm {
		wm = nd
	}
	li.Watermark = wm
	if ep.leaseInc == ep.view.incarnation && now < ep.leaseUntil {
		li.Held = true
		li.Remaining = ep.leaseUntil - now
	}
	return li
}

// FreshAt bounds the staleness of local state that has applied through
// `applied`: every write completed more than the returned duration ago (plus
// one network transit) is reflected in that state. ok=false means no bound is
// known and the caller must fall back to a linearizable path.
func (ep *Endpoint) FreshAt(applied uint32) (time.Duration, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.st != stNormal {
		return 0, false
	}
	now := ep.cfg.Clock.Now()
	if ep.isSeq {
		// The sequencer's own state is fresh while it provably still
		// sequences (the silence rule): a depositing recovery silences
		// its members first.
		if ep.grantAllowedLocked(now) && applied >= ep.nextDeliver-1 {
			return 0, true
		}
		return 0, false
	}
	for i := len(ep.fresh) - 1; i >= 0; i-- {
		if ep.fresh[i].seq <= applied {
			return now - ep.fresh[i].at, true
		}
	}
	return 0, false
}

// recordFreshLocked notes a sync-tick watermark as a staleness anchor. Only
// sync ticks qualify: accepts and broadcasts can be transmitted after later
// ordering decisions were already made, so their (time, seq) pairs bound
// nothing.
func (ep *Endpoint) recordFreshLocked(seq uint32) {
	now := ep.cfg.Clock.Now()
	if n := len(ep.fresh); n > 0 {
		if ep.fresh[n-1].seq == seq {
			ep.fresh[n-1].at = now // same watermark, fresher anchor
			return
		}
		if seq < ep.fresh[n-1].seq {
			return // reordered straggler
		}
	}
	ep.fresh = append(ep.fresh, freshMark{at: now, seq: seq})
	if len(ep.fresh) > freshRingMax {
		ep.fresh = append(ep.fresh[:0], ep.fresh[len(ep.fresh)-freshRingMax:]...)
	}
}

// --- Granter (sequencer) side ------------------------------------------------

// heardWithinLocked reports whether member id was heard within window of now.
func (ep *Endpoint) heardWithinLocked(id MemberID, now, window time.Duration) bool {
	t, ok := ep.lastHeard[id]
	return ok && now-t <= window
}

// lastHeardSetLocked stamps a member as heard now.
func (ep *Endpoint) lastHeardSetLocked(id MemberID) {
	if !ep.cfg.leasesOn() {
		return
	}
	if ep.lastHeard == nil {
		ep.lastHeard = make(map[MemberID]time.Duration)
	}
	ep.lastHeard[id] = ep.cfg.Clock.Now()
}

// leaseSeedHeardLocked marks every current member as just heard — called when
// an endpoint assumes sequencing duty, so the silence rule measures from the
// takeover rather than from stale (or absent) history.
func (ep *Endpoint) leaseSeedHeardLocked() {
	if !ep.cfg.leasesOn() {
		return
	}
	ep.lastHeard = make(map[MemberID]time.Duration, len(ep.pending.members))
	now := ep.cfg.Clock.Now()
	for _, m := range ep.pending.members {
		if m.ID != ep.self {
			ep.lastHeard[m.ID] = now
		}
	}
}

// grantAllowedLocked is the silence rule (and the sequencer's own read
// authority): granting — and serving local reads as the sequencer — is
// allowed only while every member has been heard within leaseSilence, the
// endpoint sequences in normal state, no fence is pending, and no own leave
// is in flight. A partitioned, deposed sequencer fails this within
// leaseSilence of the recovery participants freezing.
func (ep *Endpoint) grantAllowedLocked(now time.Duration) bool {
	if !ep.cfg.leasesOn() || !ep.isSeq || ep.st != stNormal ||
		ep.fenced || ep.leaveSeq != 0 {
		return false
	}
	window := ep.cfg.leaseSilence()
	for _, m := range ep.pending.members {
		if m.ID == ep.self {
			continue
		}
		if !ep.heardWithinLocked(m.ID, now, window) {
			return false
		}
	}
	return true
}

// leaseTickLocked runs on every sync tick: prune expired grants, then (if
// granting is allowed) grant a lease to every member that is both recently
// heard and caught up to the previous tick's watermark. Returns the encoded
// grant payload for the tick packet, or nil.
func (ep *Endpoint) leaseTickLocked() []byte {
	now := ep.cfg.Clock.Now()
	ep.pruneLeasesLocked(now)
	prevTick := ep.leaseTickSeq
	ep.leaseTickSeq = ep.globalSeq
	if !ep.grantAllowedLocked(now) {
		return nil
	}
	var ids []MemberID
	for _, m := range ep.pending.members {
		if m.ID == ep.self {
			continue
		}
		if !ep.heardWithinLocked(m.ID, now, ep.cfg.leaseSilence()) {
			continue
		}
		if ep.lastRecv[m.ID] < prevTick {
			continue // not caught up: a grant would only stall its reads
		}
		ids = append(ids, m.ID)
		if ep.leases == nil {
			ep.leases = make(map[MemberID]time.Duration)
		}
		ep.leases[m.ID] = now + ep.cfg.LeaseDur + ep.cfg.LeaseGuard
	}
	if len(ids) == 0 {
		return nil
	}
	ep.stats.LeaseGrants += uint64(len(ids))
	return encodeLeaseGrants(ep.cfg.LeaseDur, ids)
}

// pruneLeasesLocked drops expired and departed grants.
func (ep *Endpoint) pruneLeasesLocked(now time.Duration) {
	for id, exp := range ep.leases {
		if now >= exp {
			delete(ep.leases, id)
			continue
		}
		if _, ok := ep.pending.find(id); !ok {
			delete(ep.leases, id)
		}
	}
}

// leaseAcceptGateLocked is rule 1's sequencer half: a tentative entry may be
// accepted only once every member with an unexpired grant has acknowledged
// storing it (and never while the failover fence is pending). A dead holder
// blocks acceptance until its lease expires — the price of its reads having
// been local.
func (ep *Endpoint) leaseAcceptGateLocked(e *entry) bool {
	if !ep.cfg.leasesOn() {
		return true
	}
	if ep.fenced {
		return false
	}
	now := ep.cfg.Clock.Now()
	for id, exp := range ep.leases {
		if now >= exp {
			continue
		}
		if _, ok := ep.pending.find(id); !ok {
			continue
		}
		if !e.ackedBy(id) {
			return false
		}
	}
	return true
}

// leaseRetryAcceptLocked re-attempts acceptance of the oldest tentative
// entry; called when time (a lease expiry, the fence lifting) rather than a
// new ack may have unblocked the gate.
func (ep *Endpoint) leaseRetryAcceptLocked() {
	if !ep.isSeq || ep.st != stNormal {
		return
	}
	for s := ep.nextDeliver; s <= ep.globalSeq; s++ {
		e, ok := ep.hist.get(s)
		if !ok {
			return
		}
		if e.tentative {
			ep.maybeAcceptLocked(e)
			return
		}
		s = e.lastSeq()
	}
}

// --- Holder (member) side ----------------------------------------------------

// adoptLeaseGrantLocked applies a sync tick's piggybacked grant list: if this
// member is named, its lease is renewed for the granter-declared duration
// less the local guard.
func (ep *Endpoint) adoptLeaseGrantLocked(p packet) {
	dur, ids, err := decodeLeaseGrants(p.payload)
	if err != nil {
		return
	}
	for _, id := range ids {
		if id != ep.self {
			continue
		}
		until := ep.cfg.Clock.Now() + dur - ep.cfg.LeaseGuard
		if until > ep.leaseUntil || ep.leaseInc != p.view {
			ep.leaseUntil = until
			ep.leaseInc = p.view
		}
		ep.stats.LeaseRenewals++
		return
	}
}

// leaseDropLocked invalidates holder-side lease state (freeze, expulsion,
// departure).
func (ep *Endpoint) leaseDropLocked() {
	ep.leaseUntil = 0
}

// --- Failover fence -----------------------------------------------------------

// armLeaseFenceLocked starts (or extends) the failover fence: for
// LeaseDur+LeaseGuard from now, this endpoint accepts nothing, delivers
// nothing, and completes no sends — the window in which a lease granted by
// the previous regime could still be honoured somewhere. Grants of the old
// regime are forgotten; the holder-side lease (if any) dies with them.
func (ep *Endpoint) armLeaseFenceLocked() {
	if !ep.cfg.leasesOn() {
		return
	}
	now := ep.cfg.Clock.Now()
	until := now + ep.cfg.LeaseDur + ep.cfg.LeaseGuard
	ep.leases = nil
	ep.leaseUntil = 0
	ep.leaseTickSeq = ep.globalSeq
	if until <= ep.leaseFence {
		return // an equal-or-longer fence is already pending
	}
	ep.leaseFence = until
	ep.fenced = true
	ep.stats.LeaseFences++
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "lease fence armed for %v (incarnation %d)", until-now, ep.view.incarnation)
	if ep.fenceTimer != nil {
		ep.fenceTimer.Stop()
	}
	ep.fenceTimer = ep.after(until-now, func() {
		ep.fenceTimer = nil
		ep.liftLeaseFenceLocked()
	})
}

// liftLeaseFenceLocked ends the fence: deferred send completions fire, and
// acceptance + delivery resume.
func (ep *Endpoint) liftLeaseFenceLocked() {
	if !ep.fenced {
		return
	}
	if now := ep.cfg.Clock.Now(); now < ep.leaseFence {
		// Extended while the timer was in flight: re-arm for the rest.
		ep.fenceTimer = ep.after(ep.leaseFence-now, func() {
			ep.fenceTimer = nil
			ep.liftLeaseFenceLocked()
		})
		return
	}
	ep.fenced = false
	ep.flushFencedDonesLocked(nil)
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "lease fence lifted (incarnation %d)", ep.view.incarnation)
	ep.leaseRetryAcceptLocked()
	ep.deliverReadyLocked()
	ep.pumpSendLocked()
}

// flushFencedDonesLocked releases every send completion the fence deferred.
// err is nil on a normal lift (the sends did complete — their acknowledgement
// was merely withheld); teardown paths pass nil too, since a fenced done's
// send succeeded protocol-wise before the fence deferred it.
func (ep *Endpoint) flushFencedDonesLocked(err error) {
	for _, dones := range ep.fencedDones {
		dones := dones
		ep.enqueue(func() {
			for _, d := range dones {
				d(err)
			}
		})
	}
	ep.fencedDones = nil
}

// --- Grant wire codec ---------------------------------------------------------

// Lease grants ride the sync tick's payload: uvarint duration in
// milliseconds, uvarint grant count, then each grantee's member id as two
// big-endian bytes. An empty payload is a plain tick.

func encodeLeaseGrants(dur time.Duration, ids []MemberID) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen32+2*len(ids))
	buf = binary.AppendUvarint(buf, uint64(dur/time.Millisecond))
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = append(buf, byte(id>>8), byte(id))
	}
	return buf
}

func decodeLeaseGrants(body []byte) (time.Duration, []MemberID, error) {
	if len(body) == 0 {
		return 0, nil, nil
	}
	ms, w := binary.Uvarint(body)
	if w <= 0 || ms > uint64(math.MaxInt64/time.Millisecond) {
		return 0, nil, errBadLeaseGrants
	}
	body = body[w:]
	n, w := binary.Uvarint(body)
	if w <= 0 || n > uint64(noMember) || uint64(len(body)-w) < 2*n {
		return 0, nil, errBadLeaseGrants
	}
	body = body[w:]
	ids := make([]MemberID, 0, n)
	for i := uint64(0); i < n; i++ {
		ids = append(ids, MemberID(body[2*i])<<8|MemberID(body[2*i+1]))
	}
	return time.Duration(ms) * time.Millisecond, ids, nil
}
