package core

import (
	"time"

	"amoeba/internal/flip"
)

// joinAck is a stashed admission response, kept for lost-ack retransmission.
type joinAck struct {
	seq  uint32
	view []byte
}

// This file implements ordered group membership: JoinGroup and LeaveGroup.
// Joins and leaves travel through the normal ordering path as system
// messages, so every member — including the joiner and the leaver — observes
// them at the same point in the totally-ordered stream, the property the
// paper's introduction illustrates with the concurrent JoinGroup /
// SendToGroup example.

// maxJoinAcksRetained bounds the stash of join acknowledgements kept for
// retransmission to joiners whose first ack was lost.
const maxJoinAcksRetained = 64

// sendJoinReqLocked multicasts a join request to the group; only the
// sequencer answers.
func (ep *Endpoint) sendJoinReqLocked() {
	ep.multicastPkt(packet{typ: ptJoinReq})
	ep.joinTimer = ep.after(ep.cfg.RetryInterval, func() {
		ep.joinTimer = nil
		if ep.st != stJoining {
			return
		}
		ep.joinRetries++
		if ep.joinRetries > ep.cfg.MaxRetries {
			ep.st = stDead
			for _, d := range ep.joinDone {
				d := d
				ep.enqueue(func() { d(ErrJoinFailed) })
			}
			ep.joinDone = nil
			return
		}
		ep.sendJoinReqLocked()
	})
}

// handleJoinReq admits a new member (sequencer side): assign the lowest free
// id, order a KindJoin system message carrying the post-join view, and
// acknowledge the joiner with that view once the join is accepted.
func (ep *Endpoint) handleJoinReq(p packet, from flip.Address) {
	if !ep.isSeq || ep.st != stNormal || ep.leaveSeq != 0 {
		return
	}
	// Duplicate join request: the ack was lost; resend the stashed one —
	// unless the join is still tentative (resilience-gated), in which case
	// the joiner must keep waiting for acceptance, not proceed on a view
	// that r crashes could still erase.
	if _, ok := ep.pending.findAddr(from); ok {
		if ack, ok := ep.joinAcks[from]; ok {
			if e, held := ep.hist.get(ack.seq); !held || !e.tentative {
				ep.sendPkt(from, packet{typ: ptJoinAck, seq: ack.seq, payload: ack.view})
			}
		}
		return
	}
	if ep.hist.full() {
		ep.tryPruneLocked()
		if ep.hist.full() {
			return // joiner retries
		}
	}
	id := ep.pending.nextID()
	ep.pending.add(Member{ID: id, Addr: from})
	joinSeq := ep.globalSeq + 1
	viewBytes := encodeView(ep.pending, joinSeq)
	if !ep.orderLocked(KindJoin, id, 0, viewBytes) {
		// Could not order after all: roll the admission back.
		ep.pending.remove(id)
		return
	}
	ep.lastRecv[id] = joinSeq
	ep.lastHeardSetLocked(id)
	ep.stashJoinAckLocked(from, joinSeq, viewBytes)
	if ep.cfg.Resilience > 0 || ep.cfg.leasesOn() {
		// Ack the joiner only once the join survives r crashes — and,
		// with leases, only once the join clears the lease/fence
		// acceptance gate, so a joiner cannot deliver entries that are
		// invisible to a still-live old-regime lease holder; see
		// maybeAcceptLocked → sendPendingJoinAckLocked.
		if ep.pendingJoinAcks == nil {
			ep.pendingJoinAcks = make(map[uint32]flip.Address)
		}
		ep.pendingJoinAcks[joinSeq] = from
		if e, ok := ep.hist.get(joinSeq); ok && !e.tentative {
			ep.sendPendingJoinAckLocked(joinSeq)
		}
		return
	}
	ep.sendPkt(from, packet{typ: ptJoinAck, seq: joinSeq, payload: viewBytes})
}

// stashJoinAckLocked retains an ack for retransmission, bounded.
func (ep *Endpoint) stashJoinAckLocked(from flip.Address, seq uint32, viewBytes []byte) {
	if ep.joinAcks == nil {
		ep.joinAcks = make(map[flip.Address]joinAck)
	}
	if len(ep.joinAcks) >= maxJoinAcksRetained {
		// Evict the oldest stashed ack.
		var oldest flip.Address
		var oldestSeq uint32 = ^uint32(0)
		for a, j := range ep.joinAcks {
			if j.seq < oldestSeq {
				oldest, oldestSeq = a, j.seq
			}
		}
		delete(ep.joinAcks, oldest)
	}
	ep.joinAcks[from] = joinAck{seq: seq, view: viewBytes}
}

// sendPendingJoinAckLocked releases a resilience-gated join ack.
func (ep *Endpoint) sendPendingJoinAckLocked(seq uint32) {
	from, ok := ep.pendingJoinAcks[seq]
	if !ok {
		return
	}
	delete(ep.pendingJoinAcks, seq)
	if ack, ok := ep.joinAcks[from]; ok {
		ep.sendPkt(from, packet{typ: ptJoinAck, seq: ack.seq, payload: ack.view})
	}
}

// handleJoinAck installs the sequencer's admission response (joiner side).
func (ep *Endpoint) handleJoinAck(p packet) {
	if ep.st != stJoining {
		return
	}
	v, joinSeq, err := decodeView(p.payload)
	if err != nil {
		return
	}
	me, ok := v.findAddr(ep.cfg.Self)
	if !ok {
		return
	}
	if ep.joinTimer != nil {
		ep.joinTimer.Stop()
		ep.joinTimer = nil
	}
	ep.st = stNormal
	ep.self = me.ID
	ep.view = v
	ep.pending = v.clone()
	ep.isSeq = false
	ep.nextDeliver = joinSeq
	if joinSeq > ep.maxSeen {
		ep.maxSeen = joinSeq
	}
	// The join itself is the joiner's first stored message: keeping the
	// entry (rather than starting past it) lets this member serve its own
	// join to laggards if it ever coordinates a recovery.
	ep.hist.pruneTo(joinSeq - 1)
	pl := make([]byte, len(p.payload))
	copy(pl, p.payload)
	ep.hist.add(entry{seq: joinSeq, kind: KindJoin, sender: me.ID, payload: pl})
	ep.deliverReadyLocked()
	for _, d := range ep.joinDone {
		d := d
		ep.enqueue(func() { d(nil) })
	}
	ep.joinDone = nil
	ep.pumpSendLocked()
	ep.checkGapLocked()
}

// --- Leaving -----------------------------------------------------------------

// startLeaveLocked begins an ordered departure.
func (ep *Endpoint) startLeaveLocked() {
	if ep.st == stJoining {
		ep.failLeaveLocked(ErrNotMember)
		return
	}
	if ep.isSeq {
		ep.sequencerLeaveLocked()
		return
	}
	ep.sendLeaveReqLocked(0)
}

func (ep *Endpoint) failLeaveLocked(err error) {
	for _, d := range ep.leaveDone {
		d := d
		ep.enqueue(func() { d(err) })
	}
	ep.leaveDone = nil
}

// sendLeaveReqLocked transmits (and retries) the leave request.
func (ep *Endpoint) sendLeaveReqLocked(tries int) {
	if ep.st == stDead || len(ep.leaveDone) == 0 {
		return
	}
	if tries > ep.cfg.MaxRetries {
		if ep.cfg.AutoReset {
			ep.initiateResetLocked(ep.cfg.MinSurvivors)
			return
		}
		ep.failLeaveLocked(ErrSequencerDead)
		return
	}
	ep.sendPkt(ep.view.sequencerAddr(), packet{typ: ptLeaveReq})
	ep.after(ep.cfg.RetryInterval, func() {
		if ep.st == stDead || len(ep.leaveDone) == 0 {
			return
		}
		ep.sendLeaveReqLocked(tries + 1)
	})
}

// handleLeaveReq orders a member's departure (sequencer side).
func (ep *Endpoint) handleLeaveReq(p packet, from flip.Address) {
	if !ep.isSeq || ep.st != stNormal || ep.leaveSeq != 0 {
		return
	}
	m, ok := ep.pending.findAddr(from)
	if !ok {
		return // already ordered: the leaver will see its own leave
	}
	if !ep.orderLocked(KindLeave, m.ID, 0, nil) {
		return // history full: the leaver retries
	}
	ep.pending.remove(m.ID)
	// Keep serving retransmissions to the leaver until it has seen its
	// own leave; only then may pruning stop waiting for it.
	if ep.leavers == nil {
		ep.leavers = make(map[MemberID]uint32)
	}
	ep.leavers[m.ID] = ep.globalSeq
}

// sequencerLeaveLocked begins the graceful handoff: order our own leave
// naming a successor, keep sequencing duties (retransmissions, redirects)
// until every member has caught up past the leave, then depart.
func (ep *Endpoint) sequencerLeaveLocked() {
	if len(ep.pending.members) == 1 {
		// Last member: the group dissolves with us.
		ep.st = stDead
		ep.stopTimersLocked()
		ep.deliverLocked(Delivery{
			Kind: KindLeave, Seq: ep.globalSeq + 1, Sender: ep.self,
			SenderAddr: ep.cfg.Self, Members: 0,
		})
		ep.failLeaveLocked(nil)
		return
	}
	successor := ep.pending.lowestOther(ep.self)
	if !ep.orderLocked(KindLeave, ep.self, uint32(successor), nil) {
		// History full: try again shortly.
		ep.after(ep.cfg.RetryInterval, func() {
			if ep.isSeq && ep.st == stNormal && ep.leaveSeq == 0 && len(ep.leaveDone) > 0 {
				ep.sequencerLeaveLocked()
			}
		})
		return
	}
	ep.leaveSeq = ep.globalSeq
	ep.pending.remove(ep.self)
	// Safety valve: hand off even if some member never confirms.
	ep.after(time.Duration(ep.cfg.MaxRetries)*ep.cfg.RetryInterval, func() {
		ep.finishHandoffLocked(true)
	})
	ep.maybeFinishHandoffLocked()
}

// maybeFinishHandoffLocked departs once all remaining members have received
// everything up to and including the leave.
func (ep *Endpoint) maybeFinishHandoffLocked() {
	if ep.leaveSeq == 0 || ep.st != stNormal {
		return
	}
	for _, m := range ep.pending.members {
		if ep.lastRecv[m.ID] < ep.leaveSeq {
			return
		}
	}
	ep.finishHandoffLocked(false)
}

// finishHandoffLocked completes the departing sequencer's exit.
func (ep *Endpoint) finishHandoffLocked(forced bool) {
	if ep.leaveSeq == 0 || ep.st != stNormal {
		return
	}
	ep.multicastPkt(packet{typ: ptHandoff, seq: ep.globalSeq, aux: ep.leaveSeq})
	ep.leaveSeq = 0
	ep.st = stDead
	ep.stopTimersLocked()
	ep.failLeaveLocked(nil)
}

// handleHandoff notes the departing sequencer's final watermark.
func (ep *Endpoint) handleHandoff(p packet) {
	if ep.st != stNormal {
		return
	}
	ep.noteSyncLocked(p.seq, 0)
	ep.checkGapLocked()
}

// leftLocked finishes an ordered departure at the leaver, after it has
// delivered its own leave.
func (ep *Endpoint) leftLocked() {
	if ep.isSeq {
		// The departing sequencer lingers in handoff; see
		// finishHandoffLocked.
		return
	}
	ep.st = stDead
	ep.stopTimersLocked()
	ep.leaseDropLocked()
	ep.flushFencedDonesLocked(nil)
	ep.failSendQLocked(ErrNotMember)
	ep.failLeaveLocked(nil)
}

// adoptNewSequencerLocked reacts to a delivered sequencer leave: everyone
// repoints at the successor; the successor itself assumes sequencing duty,
// rebuilding ordering state from its own history.
func (ep *Endpoint) adoptNewSequencerLocked(successor MemberID) {
	if successor == noMember {
		return
	}
	ep.view.sequencer = successor
	if successor != ep.self || ep.isSeq {
		return
	}
	ep.isSeq = true
	ep.pending = ep.view.clone()
	// The leave we just delivered is the last message of the old regime.
	ep.globalSeq = ep.nextDeliver - 1
	ep.lastRecv = make(map[MemberID]uint32, len(ep.pending.members))
	for _, m := range ep.pending.members {
		if m.ID == ep.self {
			continue
		}
		// Conservative: assume others have only what is surely stable;
		// piggybacks will correct this within a round trip.
		ep.lastRecv[m.ID] = ep.hist.floor
	}
	ep.rebuildDedupLocked()
	if ep.nakTimer != nil {
		ep.nakTimer.Stop()
		ep.nakTimer = nil
	}
	// The old sequencer's grants survive its departure (incarnation is
	// unchanged), and we cannot know which holders it considered live:
	// fence until they have all expired, then grant afresh.
	ep.armLeaseFenceLocked()
	ep.leaseSeedHeardLocked()
	ep.armSyncLocked()
	// In-flight sends of our own are now sequenced locally; resend the
	// window in FIFO order (the pump stays suppressed meanwhile, so a
	// synchronous completion cannot order a newer op ahead of an older
	// one).
	ep.resendWindowLocked()
}

// rebuildDedupLocked reconstructs duplicate-suppression state from retained
// history, for a successor or recovered sequencer. Batch entries count with
// their full localID range.
func (ep *Endpoint) rebuildDedupLocked() {
	ep.dedup = make(map[MemberID]dedupEntry)
	for s := ep.hist.floor + 1; s <= ep.globalSeq; s++ {
		e, ok := ep.hist.get(s)
		if !ok || (e.kind != KindData && e.kind != KindBatch) {
			continue
		}
		if d, ok := ep.dedup[e.sender]; !ok || e.lastLocalID() > d.localID {
			ep.dedup[e.sender] = dedupEntry{localID: e.lastLocalID(), seq: e.seq}
		}
	}
}
