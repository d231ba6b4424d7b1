package core

import (
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/flip"
)

// This file is the member (non-sequencer) side of the protocol: the send
// pump with pipelining and retries, receiving ordered messages, gap
// detection with negative acknowledgements, and the in-order delivery loop.

// pumpSendLocked activates queued ordering requests until Config.SendWindow
// of them are in flight. Active ops are always a FIFO prefix of sendQ.
func (ep *Endpoint) pumpSendLocked() {
	if ep.st != stNormal || ep.resending {
		return
	}
	for {
		active := 0
		var next *sendOp
		for _, op := range ep.sendQ {
			if !op.active {
				next = op
				break
			}
			active++
		}
		if next == nil || active >= ep.cfg.SendWindow {
			return
		}
		next.active = true
		next.sent = true
		next.retries = 0
		// Transmission may complete synchronously (own sequencer) and
		// mutate sendQ; re-scan each round.
		ep.transmitOpLocked(next)
		if ep.st != stNormal {
			return
		}
	}
}

// transmitOpLocked puts one in-flight ordering request on the wire.
func (ep *Endpoint) transmitOpLocked(op *sendOp) {
	ep.cfg.Meter.Charge(cost.GroupOut, 0)
	if ep.isSeq {
		// The sequencer orders its own sends without any wire request: one
		// multicast total. (The paper notes heavy senders were co-located
		// with the sequencer for exactly this reason.) Re-activation after
		// a recovery or handoff must not re-order an already-sequenced
		// request.
		if d, ok := ep.dedup[ep.self]; ok && op.lastLocalID() <= d.localID {
			if e, ok := ep.findOwnOrderedLocked(op.localID); ok && !e.tentative {
				ep.finishSendLocked(op, nil)
			}
			// Still tentative (or entry pruned — then long since
			// complete): acceptance will complete it.
			return
		}
		ep.deferSelfOrderLocked(op)
		return
	}
	kind, body := op.wireBody()
	seqAddr := ep.view.sequencerAddr()
	if seqAddr == 0 {
		ep.armSendRetryLocked()
		return
	}
	// The FIFO barrier: everything below the oldest outstanding localID has
	// completed at this sender, so the sequencer may order a request at the
	// barrier even after a recovery erased its dedup state for us.
	barrier := op.localID
	if len(ep.sendQ) > 0 {
		barrier = ep.sendQ[0].localID
	}
	switch op.method {
	case MethodBB:
		// Multicast the payload; the sequencer answers with a short
		// accept. Loopback stores our own copy in the BB cache. BB ops
		// are never batched: the data is already on the wire once.
		ep.multicastPkt(packet{typ: ptBBData, kind: KindData, localID: op.localID, aux: barrier, payload: body})
	default:
		ep.sendPkt(seqAddr, packet{typ: ptReq, kind: kind, localID: op.localID, aux: barrier, payload: body})
	}
	ep.armSendRetryLocked()
}

// deferSelfOrderLocked queues one of the sequencer's own active requests for
// ordering at the end of the current drain cycle instead of ordering it
// inline. Synchronous self-ordering completes each send before the next can
// even be queued, so the co-located sender's window never fills and its
// sends never coalesce — every message costs a full multicast. Deferring by
// one drain cycle lets sends queued in the same burst (SendMany, or other
// goroutines racing the drain) coalesce into batch entries, giving the
// paper's hottest deployment shape — heavy senders on the sequencer machine —
// the same amortisation remote members get from the network round-trip.
func (ep *Endpoint) deferSelfOrderLocked(op *sendOp) {
	for _, q := range ep.selfPend {
		if q == op {
			return // already deferred (window retransmission)
		}
	}
	ep.selfPend = append(ep.selfPend, op)
	if ep.selfFlush {
		return
	}
	ep.selfFlush = true
	ep.enqueue(ep.selfFlushFn)
}

// flushSelfOrders is the queued half of deferSelfOrderLocked. It runs inside a
// drain; actions the flush enqueues (multicasts, completions) are picked up by
// the running drainer.
func (ep *Endpoint) flushSelfOrders() {
	ep.mu.Lock()
	ep.flushSelfOrdersLocked()
	ep.mu.Unlock()
}

// flushSelfOrdersLocked runs the deferred order of the sequencer's own sends.
func (ep *Endpoint) flushSelfOrdersLocked() {
	ep.selfFlush = false
	if len(ep.selfPend) == 0 {
		return
	}
	clear(ep.selfPend)
	ep.selfPend = ep.selfPend[:0]
	ep.orderOwnSendsLocked()
}

// orderOwnSendsLocked orders every active own send that is still unordered.
// Ops that completed meanwhile (a retransmission round raced the flush) or
// whose endpoint stopped sequencing (recovery, handoff) are skipped — the
// normal send path re-homes the survivors.
//
// It walks the send queue, NOT the deferral list: the queue is the
// authoritative per-sender FIFO. A pass that stops on a full history leaves
// earlier ops unordered while a later flush — enqueued by a pump that ran
// meanwhile — may hold only younger ones; ordering from that younger list
// would advance the self-dedup state past the stranded ops, falsely
// completing them via the prefix rule without ever sequencing them. Walking
// the queue makes every pass start with the oldest unordered op.
func (ep *Endpoint) orderOwnSendsLocked() {
	if ep.st != stNormal || !ep.isSeq {
		return
	}
	// Walk a snapshot: ordering completes ops, which leave the queue. The
	// snapshot's array is reused by the next pass.
	q := append(ep.ownWalk[:0], ep.sendQ...)
	ep.ownWalk = nil
	defer func() {
		clear(q)
		ep.ownWalk = q[:0]
	}()
	for _, op := range q {
		if !ep.opQueuedLocked(op) || !op.active {
			continue
		}
		if d, ok := ep.dedup[ep.self]; ok && op.lastLocalID() <= d.localID {
			if e, ok := ep.findOwnOrderedLocked(op.localID); ok && !e.tentative {
				ep.finishSendLocked(op, nil)
			}
			continue
		}
		if ep.leaveSeq != 0 {
			// This sequencer has ordered its own leave, and its successor
			// orders from the seqno after it: an entry ordered here now
			// would take a seqno the successor also hands out. What the
			// leave overtook fails, as a leaving member's unordered sends do
			// (leftLocked).
			ep.finishSendLocked(op, ErrNotMember)
			continue
		}
		kind, body := op.wireBody()
		if !ep.orderLocked(kind, ep.self, op.localID, body) {
			// History full: stop the whole pass. Ordering a LATER op now
			// would advance the self-dedup state past this one — falsely
			// completing it via the prefix rule and breaking per-sender
			// FIFO. Park a marker (the zero packet) so the status round the
			// refusal started re-runs this pass, behind whatever was refused
			// before it; the retry timer stays armed only as the budget that
			// ends in ErrSequencerDead when a silent member pins the floor.
			ep.parkLocked(packet{}, 0)
			ep.armSendRetryLocked()
			return
		}
	}
}

// opQueuedLocked reports whether op is still in the send queue.
func (ep *Endpoint) opQueuedLocked(op *sendOp) bool {
	for _, o := range ep.sendQ {
		if o == op {
			return true
		}
	}
	return false
}

// findOwnOrderedLocked locates the retained entry holding this endpoint's own
// request starting at localID, if any.
func (ep *Endpoint) findOwnOrderedLocked(localID uint32) (*entry, bool) {
	for s := ep.hist.floor + 1; s <= ep.globalSeq; s++ {
		e, ok := ep.hist.get(s)
		if ok && e.sender == ep.self && e.localID == localID &&
			(e.kind == KindData || e.kind == KindBatch) {
			return e, true
		}
	}
	return nil, false
}

// armSendRetryLocked starts the send retry clock if it is not already running.
// The retry fires only after RetryInterval with no completed request; every
// completion restarts the clock (see finishSendLocked), so a pipelined window
// that is making progress never retransmits spuriously.
//
// The clock is a deadline, not a timer per send: progress moves sendDeadline,
// and the one runtime timer, if it finds on firing that the deadline has moved
// on, re-arms itself for the remainder. A busy sender thus costs one timer per
// RetryInterval instead of one created and stopped per message, and the retry
// still fires at last-progress + RetryInterval exactly.
func (ep *Endpoint) armSendRetryLocked() {
	if ep.sendDeadline != 0 {
		return
	}
	ep.sendDeadline = ep.cfg.Clock.Now() + ep.cfg.RetryInterval
	if ep.sendTimer == nil {
		ep.sendTimer = ep.after(ep.cfg.RetryInterval, ep.sendTimerFiredLocked)
	}
}

// sendTimerFiredLocked is the send retry timer's callback.
func (ep *Endpoint) sendTimerFiredLocked() {
	ep.sendTimer = nil
	if ep.sendDeadline == 0 {
		return // nothing in flight any more
	}
	if wait := ep.sendDeadline - ep.cfg.Clock.Now(); wait > 0 {
		ep.sendTimer = ep.after(wait, ep.sendTimerFiredLocked)
		return
	}
	ep.sendDeadline = 0
	ep.retrySendLocked()
}

// retrySendLocked retransmits the whole in-flight window or gives up on the
// sequencer. The oldest active op carries the retry budget: it is the one
// whose silence proves the sequencer unresponsive.
func (ep *Endpoint) retrySendLocked() {
	if len(ep.sendQ) == 0 || ep.st != stNormal {
		return
	}
	op := ep.sendQ[0]
	if !op.active {
		return
	}
	if ep.fenced {
		// The lease fence stalls acceptance for up to LeaseDur+LeaseGuard,
		// far longer than the retry budget; counting retries here would
		// turn every failover into a spurious second recovery. Keep the
		// timer ticking without consuming the budget.
		ep.armSendRetryLocked()
		return
	}
	op.retries++
	ep.stats.RequestRetries++
	if op.retries > ep.cfg.MaxRetries {
		// The sequencer is not responding: the paper's failure
		// detector has spoken.
		ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "sequencer suspected dead after %d request retries (autoReset=%v)", op.retries-1, ep.cfg.AutoReset)
		if ep.cfg.AutoReset && !ep.isSeq {
			for _, o := range ep.sendQ {
				o.active = false // re-pumped after recovery
			}
			ep.syncSendGaugesLocked()
			ep.initiateResetLocked(ep.cfg.MinSurvivors)
			return
		}
		ep.finishSendLocked(op, ErrSequencerDead)
		return
	}
	ep.resendWindowLocked()
	ep.armSendRetryLocked()
	ep.syncSendGaugesLocked()
}

// resendWindowLocked retransmits every in-flight op in FIFO order. The pump
// is suppressed for the duration: on an endpoint that sequences its own
// sends, a retransmission can complete synchronously, and the resulting pump
// must not inject a newer op ahead of a not-yet-resent older one.
func (ep *Endpoint) resendWindowLocked() {
	ep.resending = true
	for _, op := range append([]*sendOp(nil), ep.sendQ...) {
		if op.active {
			ep.transmitOpLocked(op)
		}
	}
	ep.resending = false
	ep.pumpSendLocked()
}

// finishSendLocked completes one in-flight request — all of its payloads —
// and pumps the window.
func (ep *Endpoint) finishSendLocked(op *sendOp, err error) {
	idx := -1
	for i, o := range ep.sendQ {
		if o == op {
			idx = i
			break
		}
	}
	if idx == -1 {
		return // already completed
	}
	ep.sendQ = append(ep.sendQ[:idx], ep.sendQ[idx+1:]...)
	// Progress: restart the retry clock for the rest of the window (re-armed
	// below if anything is still in flight).
	ep.sendDeadline = 0
	if err == nil {
		ep.stats.Sent += uint64(len(op.payloads))
	}
	if err == nil && ep.fenced {
		// A send completing during the lease fence was anointed by
		// recovery but is not yet visible anywhere; reporting success now
		// would let the sender read-back through a stale lease holder and
		// miss its own write. Park the callbacks until the fence lifts.
		ep.fencedDones = append(ep.fencedDones, op.dones)
	} else {
		ep.actions = append(ep.actions, action{kind: actComplete, op: op, err: err})
	}
	for _, o := range ep.sendQ {
		if o.active {
			ep.armSendRetryLocked()
			break
		}
	}
	ep.pumpSendLocked()
	ep.syncSendGaugesLocked()
}

// completeSendsUpToLocked completes every in-flight send of ours covered by
// an ordering proof for lastLocalID (our own broadcast, accept, or a
// retransmission arriving back). Ordering proof for a localID implies every
// lower localID was ordered first — the sequencer refuses out-of-order
// requests — so the whole prefix of the window completes.
func (ep *Endpoint) completeSendsUpToLocked(sender MemberID, lastLocalID uint32) {
	if sender != ep.self {
		return
	}
	for len(ep.sendQ) > 0 {
		op := ep.sendQ[0]
		if !op.sent || op.lastLocalID() > lastLocalID {
			return
		}
		ep.finishSendLocked(op, nil)
	}
}

// --- Receiving ordered messages ---------------------------------------------

// currentViewLocked gates normal-operation packets on state and view. A
// packet from a FUTURE incarnation observed in normal operation is proof
// that a recovery completed without this member — it was declared dead while
// merely slow (the paper's unreliable failure detector) and the group moved
// on. Silently dropping such packets would leave the member a zombie,
// forever discarding the new view's traffic; instead it learns of its
// expulsion at once and the application can rejoin with state transfer.
// Packets from past incarnations are stragglers and stay ignored.
func (ep *Endpoint) currentViewLocked(p packet) bool {
	if ep.st != stNormal {
		return false
	}
	if p.view == ep.view.incarnation {
		return true
	}
	if p.view > ep.view.incarnation {
		ep.expelledLocked()
	}
	return false
}

// handleBcast stores a sequenced message or batch (PB broadcast or a
// retransmission).
func (ep *Endpoint) handleBcast(p packet, retrans bool) {
	if retrans {
		// Retransmissions also feed a recovering coordinator's fetch
		// and a frozen voter's catch-up.
		if ep.st != stNormal && ep.st != stRecovering && ep.st != stCoordinating {
			return
		}
	} else {
		if !ep.currentViewLocked(p) {
			return
		}
	}
	origin := p.sender
	if retrans {
		origin = MemberID(p.aux2)
	}
	ep.noteSyncLocked(p.seq, p.aux)
	// A packet for a message already held — every loopback of the
	// sequencer's own broadcast, a duplicate, a retransmission that crossed
	// the original — is answered for by the held entry: no second copy.
	e, ok := ep.hist.get(p.seq)
	var fresh entry
	if !ok || e.seq != p.seq || e.kind != p.kind || e.sender != origin || e.localID != p.localID {
		if fresh, ok = entryFromPacket(p, origin); !ok {
			return // malformed batch body: NAK will refetch
		}
		e = &fresh
	}
	if e.lastSeq() > ep.maxSeen {
		ep.maxSeen = e.lastSeq()
	}
	if e.lastSeq() < ep.nextDeliver {
		// Already delivered — but a duplicate or retransmission may
		// still be the sender's first proof that its message was
		// sequenced.
		ep.completeSendsUpToLocked(origin, e.lastLocalID())
		return
	}
	if held, ok := ep.hist.get(p.seq); !ok {
		// A full history refuses the entry; the NAK machinery refetches
		// once space frees.
		ep.hist.add(*e)
	} else if held.tentative {
		// Broadcasts and retransmissions are only ever sent for accepted
		// messages (the sequencer serves tentative entries to nobody but
		// a recovery coordinator): the accept we were waiting for was
		// lost, and this packet is its substitute.
		held.tentative = false
	}
	ep.completeSendsUpToLocked(origin, e.lastLocalID())
	ep.deliverReadyLocked()
	ep.checkGapLocked()
}

// entryFromPacket builds a history entry from a data-bearing packet, copying
// the payload out of the frame it borrows and decoding batch bodies. ok is
// false for a malformed batch.
func entryFromPacket(p packet, origin MemberID) (e entry, ok bool) {
	pl := make([]byte, len(p.payload))
	copy(pl, p.payload)
	if p.kind == KindBatch {
		return newBatchEntry(p.seq, origin, p.localID, pl)
	}
	return entry{seq: p.seq, kind: p.kind, sender: origin, localID: p.localID, payload: pl}, true
}

// handleBBData caches an unordered BB payload until its accept arrives — or,
// on the sequencer, orders it the moment the data is seen.
func (ep *Endpoint) handleBBData(p packet) {
	if !ep.currentViewLocked(p) {
		return
	}
	if ep.isSeq {
		if _, ok := ep.pending.find(p.sender); !ok || ep.leaveSeq != 0 {
			// Not a member; or this sequencer has ordered its own leave,
			// and the sender's retry reaches the successor.
			return
		}
		if d, ok := ep.dedup[p.sender]; ok && p.localID <= d.localID {
			// Duplicate BB data for something already ordered: the
			// accept was lost at the sender; re-announce it.
			if e, ok := ep.hist.get(d.seq); ok && p.localID == d.localID && e.kind != KindBatch {
				ep.multicastPkt(packet{
					typ: ptAccept, kind: e.kind, seq: e.seq,
					localID: e.localID, aux: ep.hist.floor,
					aux2: uint32(e.sender),
				})
			}
			return
		}
		if ep.parkBehindLocked(p, 0) {
			return
		}
		if !ep.fifoAdmitsLocked(p.sender, p.localID, p.aux) {
			// Arrived ahead of an earlier in-flight send (pipelining):
			// ordering it now would break the sender's FIFO. The
			// sender's retry resends the window in order.
			return
		}
		if !ep.orderBBLocked(p.sender, p.localID, p.kind, p.payload) {
			// Parked with its payload: the sender multicast the data once
			// and is waiting for the accept, not to send it again.
			ep.parkLocked(p, 0)
		}
		return
	}
	key := bbKey{sender: p.sender, localID: p.localID}
	if seq, ok := ep.bbEarly[key]; ok {
		// The accept got here first (handleAccept): the data goes straight
		// to the slot it named, before the NAK armed for the gap fires.
		delete(ep.bbEarly, key)
		if _, held := ep.hist.get(seq); !held && seq >= ep.nextDeliver && !ep.hist.full() {
			p.seq = seq
			if e, ok := entryFromPacket(p, p.sender); ok {
				ep.hist.add(e)
			}
			ep.deliverReadyLocked()
			ep.checkGapLocked()
			return
		}
	}
	if _, ok := ep.bbCache[key]; ok {
		return
	}
	// Bound the cache: every member may have a full window of unordered
	// data outstanding (the sequencer parks what its history has no room
	// for), plus a history's worth of slack for entries whose accept never
	// matched; beyond that the accept path will fetch from the sequencer
	// instead.
	if len(ep.bbCache) >= ep.cfg.HistorySize+len(ep.view.members)*ep.cfg.SendWindow {
		return
	}
	ep.bbCache[key] = append([]byte(nil), p.payload...)
}

// handleAccept processes the sequencer's short accept: either the ordering
// of a BB message (aux2 = sender id) or the finalisation of a tentative
// message (aux2 = noMember).
func (ep *Endpoint) handleAccept(p packet) {
	if !ep.currentViewLocked(p) {
		return
	}
	ep.noteSyncLocked(p.seq, p.aux)
	if p.seq > ep.maxSeen {
		ep.maxSeen = p.seq
	}
	if MemberID(p.aux2) == noMember {
		// Tentative finalisation. The sequencer accepts in sequence
		// order, so an accept is cumulative: every buffered tentative at
		// or below p.seq is final too (their own accepts may have been
		// lost on the wire).
		for s := ep.nextDeliver; s <= p.seq; s++ {
			e, ok := ep.hist.get(s)
			if !ok || !e.tentative {
				continue
			}
			e.tentative = false
			if e.lastSeq() > ep.maxSeen {
				ep.maxSeen = e.lastSeq()
			}
			if e.kind == KindData || e.kind == KindBatch {
				ep.completeSendsUpToLocked(e.sender, e.lastLocalID())
			}
			s = e.lastSeq()
		}
		// If we never got the tentative itself, the gap logic will
		// NAK it as a plain missing message.
		ep.deliverReadyLocked()
		ep.checkGapLocked()
		return
	}
	// BB ordering.
	sender := MemberID(p.aux2)
	if p.seq < ep.nextDeliver {
		return
	}
	if _, ok := ep.hist.get(p.seq); !ok && !ep.hist.full() {
		key := bbKey{sender: sender, localID: p.localID}
		if pl, have := ep.bbCache[key]; have {
			delete(ep.bbCache, key)
			ep.hist.add(entry{seq: p.seq, kind: p.kind, sender: sender, localID: p.localID, payload: pl})
		} else {
			// Data missing: leave the slot empty; the gap logic NAKs and
			// the sequencer retransmits the full message. Unless the data
			// is merely behind: it travels from the sender, the accept from
			// the sequencer, and nothing orders the two (a sender's own
			// loopback copy can lose the race too). Remember where it
			// belongs so that handleBBData can close the gap without a NAK.
			ep.noteEarlyAcceptLocked(key, p.seq)
		}
	}
	ep.completeSendsUpToLocked(sender, p.localID)
	ep.deliverReadyLocked()
	ep.checkGapLocked()
}

// noteEarlyAcceptLocked records a BB accept that arrived before its data.
// The table is bounded like the BB cache; entries whose slot was since filled
// by a retransmission are dropped when room is needed.
func (ep *Endpoint) noteEarlyAcceptLocked(key bbKey, seq uint32) {
	if len(ep.bbEarly) >= ep.cfg.HistorySize {
		for k, s := range ep.bbEarly {
			if s < ep.nextDeliver {
				delete(ep.bbEarly, k)
			}
		}
		if len(ep.bbEarly) >= ep.cfg.HistorySize {
			return
		}
	}
	if ep.bbEarly == nil {
		ep.bbEarly = make(map[bbKey]uint32)
	}
	ep.bbEarly[key] = seq
}

// handleTentative buffers a resilience-degree message and acknowledges it if
// this member is one of the r designated ackers (the r lowest-numbered
// members other than the sequencer).
func (ep *Endpoint) handleTentative(p packet) {
	if !ep.currentViewLocked(p) {
		return
	}
	ep.noteSyncLocked(p.seq, p.aux2)
	if p.seq > ep.maxSeen {
		ep.maxSeen = p.seq
	}
	if ep.isSeq {
		return // own tentative echoed by loopback
	}
	if p.seq >= ep.nextDeliver {
		if _, ok := ep.hist.get(p.seq); !ok {
			e, ok := entryFromPacket(p, p.sender)
			if !ok {
				return // malformed batch body
			}
			e.tentative = true
			ep.hist.add(e) // room-checked for the entry's full span
			if e.lastSeq() > ep.maxSeen {
				ep.maxSeen = e.lastSeq()
			}
		}
	}
	// Ack duty falls on the r lowest-numbered members; counting skips the
	// sequencer, which stores everything anyway. Acking requires actually
	// holding the message — a member that joined after the message was
	// sent cannot vouch for it in recovery — AND everything ordered before
	// it: recovery redistributes each survivor's contiguously-stored
	// prefix, so an ack for a message sitting above an unfilled gap would
	// let the send complete and then be truncated by the very recovery
	// that must preserve it. A gap defers the ack; the NAK machinery fills
	// the hole and the sequencer's tentative retry collects the ack on the
	// next round. With leases enabled every member acks: acceptance gates
	// on lease holders' stored-acks, and grants churn too fast for a
	// static ack-duty subset to cover them.
	if e, stored := ep.hist.get(p.seq); stored &&
		ep.hist.contiguousTop() >= e.lastSeq() &&
		(ep.ackDutyLocked(int(p.aux)) || ep.cfg.leasesOn()) {
		ep.stats.AcksSent++
		ep.sendPkt(ep.view.sequencerAddr(), packet{typ: ptAck, seq: p.seq})
	}
	ep.checkGapLocked()
}

// ackDutyLocked reports whether this member is one of the r lowest-numbered
// non-sequencer members.
func (ep *Endpoint) ackDutyLocked(r int) bool {
	count := 0
	for _, m := range ep.view.members {
		if m.ID == ep.view.sequencer {
			continue
		}
		if m.ID == ep.self {
			return count < r
		}
		count++
	}
	return false
}

// handleLost records a loss marker: the sequencer cannot recover this
// sequence number (a resilience-0 message that died with a processor). The
// slot is filled with a non-delivering entry so the stream moves past it.
func (ep *Endpoint) handleLost(p packet) {
	if !ep.currentViewLocked(p) {
		return
	}
	if p.seq < ep.nextDeliver {
		return
	}
	if _, ok := ep.hist.get(p.seq); !ok && !ep.hist.full() {
		ep.hist.add(entry{seq: p.seq, kind: KindLost})
		ep.stats.LostGaps++
	}
	ep.deliverReadyLocked()
	ep.checkGapLocked()
}

// handleSync folds a watermark broadcast: learn about trailing messages and
// prune local history. aux2 = 1 demands an explicit status reply. With
// leases enabled, periodic ticks also carry grant lists (adopted here), feed
// the bounded-staleness anchors, and are answered unconditionally — the
// reply is the lease heartbeat that keeps this member inside the sequencer's
// silence window.
func (ep *Endpoint) handleSync(p packet) {
	if !ep.currentViewLocked(p) {
		return
	}
	ep.noteSyncLocked(p.seq, p.aux)
	if !ep.isSeq {
		ep.recordFreshLocked(p.seq)
		if ep.cfg.leasesOn() {
			ep.adoptLeaseGrantLocked(p)
			ep.sendPkt(ep.view.sequencerAddr(), packet{typ: ptStatus})
		} else if p.aux2 == 1 {
			ep.sendPkt(ep.view.sequencerAddr(), packet{typ: ptStatus})
		}
	}
	ep.checkGapLocked()
}

// noteSyncLocked updates the high-water mark and prunes member-side history
// to the sequencer-announced floor.
func (ep *Endpoint) noteSyncLocked(seq, floor uint32) {
	if seq > ep.maxSeen {
		ep.maxSeen = seq
	}
	if !ep.isSeq && floor > ep.hist.floor {
		// Never prune undelivered entries, whatever the announcement
		// says.
		limit := floor
		if ep.nextDeliver != 0 && limit > ep.nextDeliver-1 {
			limit = ep.nextDeliver - 1
		}
		ep.hist.pruneTo(limit)
	}
}

// handleStale reacts to the sequencer telling us our membership or view is
// out of date: adopt the attached view. If we are no longer in it, we have
// been expelled.
func (ep *Endpoint) handleStale(p packet) {
	v, _, err := decodeView(p.payload)
	if err != nil {
		return
	}
	if v.incarnation < ep.view.incarnation {
		return
	}
	if _, ok := v.findAddr(ep.cfg.Self); !ok {
		ep.expelledLocked()
		return
	}
	// Redirect: a new sequencer has taken over (graceful handoff).
	ep.view.sequencer = v.sequencer
	if m, ok := v.find(v.sequencer); ok {
		ep.view.add(m) // make sure we can route to it
	}
	// Resend the in-flight window to the new sequencer immediately.
	ep.resendWindowLocked()
}

// expelledLocked terminates the endpoint after removal from the group.
func (ep *Endpoint) expelledLocked() {
	if ep.st == stDead {
		return
	}
	ep.st = stDead
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "expelled from group (member %d, incarnation %d)", ep.self, ep.view.incarnation)
	ep.stopTimersLocked()
	ep.leaseDropLocked()
	ep.flushFencedDonesLocked(nil)
	ep.deliverLocked(Delivery{Kind: KindExpelled, Sender: ep.self, SenderAddr: ep.cfg.Self})
	ep.failSendQLocked(ErrNotMember)
	for _, d := range ep.leaveDone {
		d := d
		ep.enqueue(func() { d(nil) }) // out of the group, one way or another
	}
	ep.leaveDone = nil
}

// --- Gap detection and the delivery loop -------------------------------------

// checkGapLocked arms the negative-acknowledgement timer when sequence
// numbers are known to be missing — or when delivery has been blocked on a
// tentative entry whose accept is overdue. The tentative case waits a full
// RetryInterval before asking: accepts normally arrive within a round trip,
// and while the message is still tentative at the sequencer its own retry
// machinery is already re-multicasting it.
func (ep *Endpoint) checkGapLocked() {
	if ep.st != stNormal || ep.isSeq {
		return
	}
	gap := ep.hasGapLocked()
	tentStall := !gap && ep.blockedOnTentativeLocked()
	if !gap && !tentStall {
		ep.nakBackoff = 0
		return
	}
	if ep.nakTimer != nil {
		return
	}
	delay := ep.cfg.NakDelay + ep.nakStaggerLocked()
	if tentStall && delay < ep.cfg.RetryInterval {
		delay = ep.cfg.RetryInterval + ep.nakStaggerLocked()
	}
	if ep.nakBackoff > 0 {
		delay = ep.nakBackoff
	}
	ep.nakSnap = ep.nextDeliver
	ep.nakTimer = ep.after(delay, func() {
		ep.nakTimer = nil
		ep.fireNakLocked()
	})
}

// blockedOnTentativeLocked reports whether the next delivery is held up by a
// buffered tentative entry. If its accept was lost AFTER the sequencer
// finalised the message, nobody will resend it unprompted; the NAK turns
// into a refetch of the (by then accepted) message.
func (ep *Endpoint) blockedOnTentativeLocked() bool {
	e, ok := ep.hist.get(ep.nextDeliver)
	return ok && e.tentative
}

// nakStaggerLocked spreads members' retransmission requests in time. A lost
// multicast is detected by every member at the same instant; staggering by
// member id keeps the requests (and the retransmissions they trigger) from
// arriving as a synchronized burst — the negative-acknowledgement analogue of
// the paper's argument against ack implosion (§2.2).
func (ep *Endpoint) nakStaggerLocked() time.Duration {
	return time.Duration(ep.self%16) * ep.cfg.NakDelay / 2
}

// hasGapLocked reports whether some seqno in [nextDeliver, maxSeen] is
// missing or payload-less.
func (ep *Endpoint) hasGapLocked() bool {
	for s := ep.nextDeliver; s <= ep.maxSeen; s++ {
		e, ok := ep.hist.get(s)
		if !ok {
			return true
		}
		if e.tentative {
			// Waiting for an accept is not a gap — unless it has
			// been pending so long the accept is surely lost, which
			// the NAK turns into a refetch of the (by then
			// accepted) message.
			continue
		}
	}
	return false
}

// fireNakLocked sends a retransmission request covering the missing range
// (or the overdue tentative entry blocking delivery). A tentative at the
// delivery point counts as overdue only if the point has not moved since the
// timer was armed: under steady resilient traffic there is almost always
// SOME tentative briefly at the head, and pestering the sequencer about a
// moving pipeline would tax the very path the accept is about to clear.
func (ep *Endpoint) fireNakLocked() {
	if ep.st != stNormal || ep.isSeq {
		ep.nakBackoff = 0
		return
	}
	if !ep.hasGapLocked() {
		stalled := ep.blockedOnTentativeLocked() && ep.nextDeliver == ep.nakSnap
		if !stalled {
			ep.nakBackoff = 0
			ep.checkGapLocked() // still blocked but moving: keep watching the new head
			return
		}
	}
	lo := ep.nextDeliver
	for {
		if e, ok := ep.hist.get(lo); ok && !e.tentative {
			lo++
			continue
		}
		break
	}
	hi := lo
	for s := lo; s <= ep.maxSeen && s < lo+nakBatch; s++ {
		if _, ok := ep.hist.get(s); !ok {
			hi = s
		}
	}
	ep.stats.NaksSent++
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "nak [%d,%d] (next %d, maxSeen %d)", lo, hi, ep.nextDeliver, ep.maxSeen)
	if ep.nakBackoff >= ep.cfg.RetryInterval {
		// The sequencer has not answered several requests — it may be
		// gone (a crash, or a departure we have not yet delivered).
		// Every member keeps history, so ask the whole group.
		ep.multicastPkt(packet{typ: ptNak, seq: lo, aux: hi})
	} else {
		ep.sendPkt(ep.view.sequencerAddr(), packet{typ: ptNak, seq: lo, aux: hi})
	}
	// Back off and re-arm until the gap closes.
	if ep.nakBackoff == 0 {
		ep.nakBackoff = ep.cfg.NakDelay * 2
	} else if ep.nakBackoff < ep.cfg.RetryInterval {
		ep.nakBackoff *= 2
	}
	ep.nakTimer = ep.after(ep.nakBackoff, func() {
		ep.nakTimer = nil
		ep.fireNakLocked()
	})
}

// deliverReadyLocked hands every ready in-order message to the application.
// Batch entries deliver as their constituent KindData messages, one per
// seqno.
func (ep *Endpoint) deliverReadyLocked() {
	if ep.fenced {
		// Failover fence: nothing becomes visible until every lease of
		// the previous regime has expired — a partitioned old holder
		// could otherwise serve reads missing state another member has
		// already exposed. Lifting the fence re-runs delivery.
		return
	}
	for {
		e, ok := ep.hist.get(ep.nextDeliver)
		if !ok || e.tentative {
			return
		}
		if e.kind == KindBatch {
			ep.deliverBatchLocked(e)
		} else {
			ep.nextDeliver++
			ep.applyDeliveryLocked(e)
		}
		if ep.st == stDead {
			return
		}
	}
}

// deliverBatchLocked emits a batch entry's payloads from the delivery point
// to the end of its range. The delivery point normally sits at an entry
// boundary; starting mid-entry (a rebased joiner) delivers only the tail.
// The receiver pays the wakeup (UserDeliver) once: follow-on messages of the
// same batch arrive in an already-drained queue and cost only queue handling
// plus the copy.
func (ep *Endpoint) deliverBatchLocked(e *entry) {
	var addr flip.Address
	if m, ok := ep.view.find(e.sender); ok {
		addr = m.Addr
	}
	first := true
	_, parts, _ := splitBatchBody(e.payload) // checked when the entry was built
	for s := e.seq; s < ep.nextDeliver; s++ {
		_, parts = nextBatchPart(parts)
	}
	for ep.nextDeliver <= e.lastSeq() {
		i := ep.nextDeliver - e.seq
		ep.nextDeliver++
		var part []byte
		part, parts = nextBatchPart(parts)
		// A part is copied out, unlike a single message's payload: a part
		// aliased by the application (a kv value kept in its map) would pin
		// the whole batch body for as long as that one value lives.
		pl := make([]byte, len(part))
		copy(pl, part)
		charge := cost.UserDeliverNext
		if first {
			charge = cost.UserDeliver
			first = false
		}
		ep.deliverChargedLocked(Delivery{
			Kind: KindData, Seq: e.seq + i, Sender: e.sender,
			SenderAddr: addr, Payload: pl, Members: len(ep.view.members),
		}, charge)
		if ep.st == stDead {
			return
		}
	}
}

// applyDeliveryLocked applies membership side effects and emits the delivery
// upcall for one entry.
func (ep *Endpoint) applyDeliveryLocked(e *entry) {
	if e.kind == KindLost {
		return // the stream silently skips unrecoverable r=0 losses
	}
	d := Delivery{Kind: e.kind, Seq: e.seq, Sender: e.sender}
	if m, ok := ep.view.find(e.sender); ok {
		d.SenderAddr = m.Addr
	}
	switch e.kind {
	case KindJoin:
		v, _, err := decodeView(e.payload)
		if err == nil {
			if m, ok := v.find(e.sender); ok {
				ep.view.add(m)
				d.SenderAddr = m.Addr
				if !ep.isSeq {
					ep.pending = ep.view.clone()
				}
			}
		}
	case KindLeave:
		leaver := e.sender
		wasSequencer := leaver == ep.view.sequencer
		ep.view.remove(leaver)
		if !ep.isSeq {
			ep.pending = ep.view.clone()
		}
		if wasSequencer {
			ep.adoptNewSequencerLocked(MemberID(e.localID))
		}
		if leaver == ep.self {
			ep.leftLocked()
		}
	case KindReset:
		v, _, err := decodeView(e.payload)
		if err == nil {
			ep.view = v
			ep.pending = v.clone()
		}
	}
	d.Members = len(ep.view.members)
	if e.kind == KindData {
		// The entry's own bytes: an entry is written once, at construction,
		// and never changed, so the application and the retransmission
		// path can share them (Delivery.Payload is read-only).
		d.Payload = e.payload
	}
	ep.deliverLocked(d)
}

// deliverLocked queues the application upcall.
func (ep *Endpoint) deliverLocked(d Delivery) {
	ep.deliverChargedLocked(d, cost.UserDeliver)
}

// deliverChargedLocked queues the application upcall with an explicit
// delivery charge kind (full wakeup, or follow-on within one wakeup).
func (ep *Endpoint) deliverChargedLocked(d Delivery, k cost.Kind) {
	ep.stats.Delivered++
	ep.cfg.Meter.Charge(k, len(d.Payload))
	if ep.cfg.OnDeliver == nil {
		return
	}
	ep.actions = append(ep.actions, action{kind: actDeliver, d: d})
}
