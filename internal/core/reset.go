package core

import (
	"time"

	"amoeba/internal/flip"
	"amoeba/internal/sim"
)

// This file implements ResetGroup: recovery from processor failure. Any
// member that suspects a failure (exhausted retries, an unanswered status
// probe, or an application call to Reset) becomes a recovery coordinator.
// It invites every known member into a new epoch; members freeze and vote
// with their delivery and storage state; unresponsive members are declared
// dead after retries — the paper's explicitly unreliable failure detector.
// The coordinator computes the highest sequence number any survivor has
// contiguously stored, fetches what it lacks, installs itself as the new
// sequencer, and distributes the new view. The guarantee (paper §2.1): every
// message successfully sent before the failure is delivered in the rebuilt
// group — which holds whenever at most r members crashed, because a
// resilience-r message was stored by r members plus the sequencer before its
// send completed. If fewer than the required minimum survive, recovery keeps
// retrying and the group stays blocked, exactly as specified.
//
// Concurrent recoveries resolve by precedence: higher (epoch, coordinator
// address) wins; a lower-precedence coordinator abdicates and votes. A voter
// whose coordinator goes silent starts its own recovery at a higher epoch —
// "the recovery algorithm starts again until it succeeds".

// resetVote is one member's recovery state report.
type resetVote struct {
	id        MemberID
	addr      flip.Address
	delivered uint32 // nextDeliver-1 at vote time
	top       uint32 // contiguous storage high-water mark
}

// recovery tracks one endpoint's participation in a recovery epoch.
type recovery struct {
	epoch     uint32
	coordAddr flip.Address

	// Coordinator state.
	coordinating bool
	minAlive     int
	invited      []Member
	votes        map[flip.Address]resetVote
	round        int
	target       uint32
	fetchTries   int
	resultSent   bool
	resultAcks   map[flip.Address]bool
	resultTries  int
	timer        sim.Timer

	// Voter state.
	watchdog sim.Timer
}

func (r *recovery) stopTimersLocked() {
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	if r.watchdog != nil {
		r.watchdog.Stop()
		r.watchdog = nil
	}
}

// precedes reports whether recovery (e1,a1) outranks (e2,a2).
func precedes(e1 uint32, a1 flip.Address, e2 uint32, a2 flip.Address) bool {
	if e1 != e2 {
		return e1 > e2
	}
	return a1 > a2
}

// highestEpochLocked returns the largest recovery epoch this endpoint has
// observed.
func (ep *Endpoint) highestEpochLocked() uint32 {
	e := ep.view.incarnation
	if ep.rec != nil && ep.rec.epoch > e {
		e = ep.rec.epoch
	}
	return e
}

// initiateResetLocked starts a recovery with this endpoint as coordinator.
func (ep *Endpoint) initiateResetLocked(minAlive int) {
	if ep.st == stDead || ep.st == stJoining {
		return
	}
	if minAlive < 1 {
		minAlive = 1
	}
	if ep.st == stCoordinating && ep.rec != nil && ep.rec.coordinating {
		if minAlive > ep.rec.minAlive {
			ep.rec.minAlive = minAlive
		}
		return
	}
	epoch := ep.highestEpochLocked() + 1
	if ep.rec != nil {
		ep.rec.stopTimersLocked()
	}
	ep.freezeLocked()
	ep.st = stCoordinating
	rec := &recovery{
		epoch:        epoch,
		coordAddr:    ep.cfg.Self,
		coordinating: true,
		minAlive:     minAlive,
		votes:        make(map[flip.Address]resetVote),
	}
	for _, m := range ep.pending.members {
		if m.ID == ep.self {
			continue
		}
		rec.invited = append(rec.invited, m)
	}
	rec.votes[ep.cfg.Self] = resetVote{
		id: ep.self, addr: ep.cfg.Self,
		delivered: ep.nextDeliver - 1,
		top:       ep.hist.contiguousTop(),
	}
	ep.rec = rec
	ep.sendInvitesLocked()
}

// freezeLocked suspends normal-operation timers for the recovery epoch.
func (ep *Endpoint) freezeLocked() {
	for _, t := range []sim.Timer{ep.nakTimer, ep.sendTimer, ep.syncTimer, ep.tentTimer} {
		if t != nil {
			t.Stop()
		}
	}
	ep.nakTimer, ep.sendTimer, ep.syncTimer, ep.tentTimer = nil, nil, nil, nil
	ep.sendDeadline = 0
	ep.nakBackoff = 0
	// A frozen member must not serve lease reads: its silence is what lets
	// a deposed sequencer's granting stop (lease.go rule 2), and silence
	// only helps if we also stop honouring the lease we hold.
	ep.leaseDropLocked()
	for _, pr := range ep.statusProbe {
		if pr.timer != nil {
			pr.timer.Stop()
		}
	}
	ep.statusProbe = nil
	// Parked requests belong to the regime being frozen; their senders
	// resend their windows to whoever sequences next. So do early BB
	// accepts: recovery may hand the sequence numbers they name to other
	// messages.
	ep.parked = nil
	ep.bbEarly = nil
}

// sendInvitesLocked multicasts and unicasts the recovery invitation to every
// member that has not voted yet.
func (ep *Endpoint) sendInvitesLocked() {
	rec := ep.rec
	ep.multicastPkt(packet{typ: ptResetInvite, seq: rec.epoch})
	for _, m := range rec.invited {
		if _, ok := rec.votes[m.Addr]; ok {
			continue
		}
		ep.sendPkt(m.Addr, packet{typ: ptResetInvite, seq: rec.epoch})
	}
	rec.timer = ep.after(ep.cfg.ResetTimeout, func() { ep.voteDeadlineLocked(rec) })
}

// voteDeadlineLocked advances the coordinator when the vote window closes.
func (ep *Endpoint) voteDeadlineLocked(rec *recovery) {
	if ep.rec != rec || !rec.coordinating || ep.st != stCoordinating {
		return
	}
	missing := 0
	for _, m := range rec.invited {
		if _, ok := rec.votes[m.Addr]; !ok {
			missing++
		}
	}
	if missing > 0 && rec.round < ep.cfg.ResetRetries {
		rec.round++
		ep.sendInvitesLocked()
		return
	}
	if len(rec.votes) < rec.minAlive {
		// Not enough survivors: the group blocks, retrying until
		// processors recover (paper §2.1).
		rec.round = 0
		rec.timer = ep.after(2*ep.cfg.ResetTimeout, func() {
			if ep.rec == rec && rec.coordinating {
				ep.sendInvitesLocked()
			}
		})
		return
	}
	// Non-voters are hereby declared dead.
	ep.startFetchLocked(rec)
}

// startFetchLocked brings the coordinator's history up to the recovery
// target.
func (ep *Endpoint) startFetchLocked(rec *recovery) {
	rec.target = 0
	var donor flip.Address
	for _, v := range rec.votes {
		if v.top > rec.target {
			rec.target = v.top
			donor = v.addr
		}
	}
	myTop := ep.hist.contiguousTop()
	if myTop >= rec.target {
		ep.finishRecoveryLocked(rec)
		return
	}
	rec.fetchTries++
	if rec.fetchTries > ep.cfg.ResetRetries+1 {
		// Donor unresponsive: restart the whole recovery at a higher
		// epoch; the dead donor will not vote again.
		ep.restartRecoveryLocked(rec)
		return
	}
	ep.sendPkt(donor, packet{typ: ptResetFetch, seq: myTop + 1, aux: rec.target})
	rec.timer = ep.after(ep.cfg.ResetTimeout, func() {
		if ep.rec == rec && rec.coordinating && ep.st == stCoordinating {
			ep.startFetchLocked(rec)
		}
	})
}

// restartRecoveryLocked abandons the current epoch and starts a fresh one.
func (ep *Endpoint) restartRecoveryLocked(rec *recovery) {
	rec.stopTimersLocked()
	ep.rec = nil
	ep.st = stNormal // transiently; initiateReset freezes again
	ep.initiateResetLocked(rec.minAlive)
}

// finishRecoveryLocked installs the new view with this endpoint as
// sequencer and distributes it.
func (ep *Endpoint) finishRecoveryLocked(rec *recovery) {
	if rec.resultSent {
		return
	}
	rec.resultSent = true
	startSeq := rec.target + 1

	newView := view{incarnation: rec.epoch, sequencer: ep.self}
	for _, v := range rec.votes {
		newView.add(Member{ID: v.id, Addr: v.addr})
	}

	// Anything a deposed sequencer ordered beyond the target dies here;
	// no survivor delivered past the target (their votes bound it).
	ep.hist.truncateAbove(rec.target)
	if ep.maxSeen > rec.target {
		ep.maxSeen = rec.target
	}
	// Fence before anointing: anointment completes sends whose entries an
	// old-regime lease holder may not have stored; their callbacks (and
	// all delivery/acceptance) wait until every old grant has expired.
	ep.armLeaseFenceLocked()
	// Surviving tentative messages are anointed: they were ordered, the
	// survivors agree on them, and keeping them preserves total order.
	for s := ep.hist.floor + 1; s <= rec.target; s++ {
		if e, ok := ep.hist.get(s); ok && e.tentative {
			e.tentative = false
			if e.kind == KindData || e.kind == KindBatch {
				ep.completeSendsUpToLocked(e.sender, e.lastLocalID())
			}
		}
	}

	// Order the reset itself as the first message of the new epoch.
	viewBytes := encodeView(newView, startSeq)
	ep.view.incarnation = rec.epoch // stamp outgoing packets with the new epoch
	ep.view.sequencer = ep.self
	ep.pending = newView.clone()
	ep.isSeq = true
	ep.globalSeq = startSeq
	ep.hist.forceAdd(entry{seq: startSeq, kind: KindReset, sender: ep.self, payload: viewBytes})
	if ep.maxSeen < startSeq {
		ep.maxSeen = startSeq
	}
	ep.lastRecv = make(map[MemberID]uint32, len(rec.votes))
	for _, v := range rec.votes {
		if v.id == ep.self {
			continue
		}
		ep.lastRecv[v.id] = v.delivered
	}
	ep.leavers = nil
	ep.leaveSeq = 0
	ep.rebuildDedupLocked()
	ep.leaseSeedHeardLocked()

	rec.resultAcks = map[flip.Address]bool{ep.cfg.Self: true}
	ep.sendResultLocked(rec, viewBytes)
	ep.maybeCompleteAfterAcksLocked(rec) // a solo survivor needs no acks
}

// maybeCompleteAfterAcksLocked finishes the recovery once every voter has
// installed the new view.
func (ep *Endpoint) maybeCompleteAfterAcksLocked(rec *recovery) {
	if ep.rec != rec || !rec.resultSent || ep.st != stCoordinating {
		return
	}
	for _, v := range rec.votes {
		if !rec.resultAcks[v.addr] {
			return
		}
	}
	ep.completeRecoveryLocked()
}

// sendResultLocked distributes (and re-distributes) the new view.
func (ep *Endpoint) sendResultLocked(rec *recovery, viewBytes []byte) {
	ep.multicastPkt(packet{typ: ptResetResult, seq: rec.epoch, payload: viewBytes})
	for _, v := range rec.votes {
		if rec.resultAcks[v.addr] {
			continue
		}
		ep.sendPkt(v.addr, packet{typ: ptResetResult, seq: rec.epoch, payload: viewBytes})
	}
	rec.timer = ep.after(ep.cfg.ResetTimeout, func() {
		if ep.rec != rec || ep.st != stCoordinating {
			return
		}
		for _, v := range rec.votes {
			if !rec.resultAcks[v.addr] {
				rec.resultTries++
				if rec.resultTries > ep.cfg.ResetRetries {
					// A voter died between vote and ack:
					// rebuild once more without it.
					ep.restartRecoveryLocked(rec)
					return
				}
				ep.sendResultLocked(rec, viewBytes)
				return
			}
		}
	})
}

// completeRecoveryLocked returns the endpoint to normal operation in the new
// epoch.
func (ep *Endpoint) completeRecoveryLocked() {
	rec := ep.rec
	if rec != nil {
		rec.stopTimersLocked()
	}
	ep.rec = nil
	ep.st = stNormal
	ep.stats.Resets++
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "recovery complete: incarnation %d, %d members, sequencer %d (self=%d)", ep.view.incarnation, len(ep.view.members), ep.view.sequencer, ep.self)
	for _, d := range ep.resetWaiters {
		d := d
		ep.enqueue(func() { d(nil) })
	}
	ep.resetWaiters = nil
	if ep.isSeq {
		ep.armSyncLocked()
	}
	ep.deliverReadyLocked()
	// Resume (or re-aim) the in-flight send window at the new sequencer.
	// Retransmission happens in FIFO order: the new sequencer gates
	// out-of-order localIDs, so the window re-establishes itself without
	// double ordering or reordering whatever the old regime did or did not
	// sequence.
	for _, op := range ep.sendQ {
		if op.active {
			op.retries = 0
		}
	}
	ep.resendWindowLocked()
	ep.checkGapLocked()
}

// --- Handlers ----------------------------------------------------------------

// handleResetInvite processes a recovery invitation (any member).
func (ep *Endpoint) handleResetInvite(p packet, from flip.Address) {
	if ep.st == stDead || ep.st == stJoining {
		return
	}
	epoch := p.seq
	if epoch <= ep.view.incarnation {
		return // stale epoch
	}
	if ep.rec != nil {
		cur := ep.rec
		curAddr := cur.coordAddr
		if !precedes(epoch, from, cur.epoch, curAddr) {
			if epoch == cur.epoch && from == curAddr && !cur.coordinating {
				// Duplicate invite from our coordinator: re-vote.
				ep.voteLocked(cur)
			}
			return
		}
		// Higher-precedence recovery: abdicate/defect to it.
		cur.stopTimersLocked()
	}
	ep.freezeLocked()
	ep.st = stRecovering
	rec := &recovery{epoch: epoch, coordAddr: from}
	ep.rec = rec
	ep.voteLocked(rec)
}

// voteLocked sends this member's recovery vote and arms the
// dead-coordinator watchdog.
func (ep *Endpoint) voteLocked(rec *recovery) {
	// aux2, the history floor, stays on the wire; no coordinator reads it.
	ep.sendPkt(rec.coordAddr, packet{
		typ: ptResetVote, seq: rec.epoch,
		aux: ep.hist.contiguousTop(), aux2: ep.hist.floor,
	})
	if rec.watchdog != nil {
		rec.watchdog.Stop()
	}
	rec.watchdog = ep.after(time.Duration(ep.cfg.ResetRetries+2)*ep.cfg.ResetTimeout, func() {
		if ep.rec != rec || ep.st != stRecovering {
			return
		}
		// Coordinator went silent mid-recovery: take over.
		ep.initiateResetLocked(ep.cfg.MinSurvivors)
	})
}

// handleResetVote records a vote (coordinator side).
func (ep *Endpoint) handleResetVote(p packet, from flip.Address) {
	rec := ep.rec
	if rec == nil || !rec.coordinating || ep.st != stCoordinating || p.seq != rec.epoch {
		return
	}
	if _, ok := rec.votes[from]; ok {
		return
	}
	rec.votes[from] = resetVote{
		id: p.sender, addr: from,
		delivered: p.lastRecv, top: p.aux,
	}
	// All invited present: close the vote early.
	for _, m := range rec.invited {
		if _, ok := rec.votes[m.Addr]; !ok {
			return
		}
	}
	if rec.timer != nil {
		rec.timer.Stop()
		rec.timer = nil
	}
	if !rec.resultSent {
		ep.startFetchLocked(rec)
	}
}

// handleResetFetch serves stored messages to a recovering coordinator. Unlike
// ordinary retransmission, tentative entries are served too: they were
// ordered, and re-anointing them preserves total order.
func (ep *Endpoint) handleResetFetch(p packet, from flip.Address) {
	if ep.st == stDead || ep.st == stJoining {
		return
	}
	lo, hi := p.seq, p.aux
	if hi < lo {
		return
	}
	if hi-lo >= nakBatch*4 {
		hi = lo + nakBatch*4 - 1
	}
	var served *entry
	for s := lo; s <= hi; s++ {
		e, ok := ep.hist.get(s)
		if !ok || e == served {
			continue // batch entries cover several seqnos: send once
		}
		served = e
		ep.stats.Retransmitted++
		ep.sendPkt(from, packet{
			typ: ptRetrans, kind: e.kind, seq: e.seq, localID: e.localID,
			aux: ep.hist.floor, aux2: uint32(e.sender), payload: e.payload,
		})
	}
}

// handleResetResult installs the new view (voter side).
func (ep *Endpoint) handleResetResult(p packet, from flip.Address) {
	epoch := p.seq
	if ep.st == stNormal && ep.view.incarnation == epoch {
		// Duplicate result after we already installed it: re-ack.
		ep.sendPkt(from, packet{typ: ptResetAck, seq: epoch})
		return
	}
	if ep.st != stRecovering || ep.rec == nil || ep.rec.epoch != epoch {
		return
	}
	v, startSeq, err := decodeView(p.payload)
	if err != nil {
		return
	}
	rec := ep.rec
	rec.stopTimersLocked()
	ep.rec = nil
	// Same fence as the coordinator's (finishRecoveryLocked): the
	// anointment below makes previously-tentative entries deliverable, and
	// nothing anointed may become visible here while an old-regime lease
	// holder could still serve reads that lack it.
	ep.armLeaseFenceLocked()

	if _, ok := v.findAddr(ep.cfg.Self); !ok {
		// Voted but excluded: treated as dead; the application learns
		// via KindExpelled.
		ep.expelledLocked()
		return
	}
	target := startSeq - 1
	ep.hist.truncateAbove(target)
	// Anoint surviving tentatives; the new epoch's prefix includes them.
	for s := ep.hist.floor + 1; s <= target; s++ {
		if e, ok := ep.hist.get(s); ok && e.tentative {
			e.tentative = false
			if e.kind == KindData || e.kind == KindBatch {
				ep.completeSendsUpToLocked(e.sender, e.lastLocalID())
			}
		}
	}
	// Install the reset message; it delivers in order like everything
	// else.
	if ep.nextDeliver <= startSeq {
		if _, ok := ep.hist.get(startSeq); !ok {
			pl := make([]byte, len(p.payload))
			copy(pl, p.payload)
			ep.hist.forceAdd(entry{seq: startSeq, kind: KindReset, sender: v.sequencer, payload: pl})
		}
	}
	ep.maxSeen = startSeq
	// Transport-level switch happens now; the application-level view
	// changes when KindReset is delivered.
	ep.view.incarnation = epoch
	ep.view.sequencer = v.sequencer
	if m, ok := v.find(v.sequencer); ok {
		ep.view.add(m)
	}
	ep.isSeq = false
	ep.sendPkt(from, packet{typ: ptResetAck, seq: epoch})
	ep.completeRecoveryLocked()
}

// handleResetAck counts view installations (coordinator side).
func (ep *Endpoint) handleResetAck(p packet, from flip.Address) {
	rec := ep.rec
	if rec == nil || !rec.coordinating || !rec.resultSent || p.seq != rec.epoch {
		return
	}
	rec.resultAcks[from] = true
	ep.maybeCompleteAfterAcksLocked(rec)
}
