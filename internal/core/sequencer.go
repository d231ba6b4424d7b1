package core

import (
	"encoding/binary"
	"time"

	"amoeba/internal/flip"
)

// This file is the sequencer side of the protocol: ordering requests,
// collecting resilience acknowledgements, serving retransmissions, and
// pruning the history buffer from piggybacked acknowledgement state.

// nakBatch bounds retransmissions served per negative acknowledgement; the
// member re-asks for the remainder, which keeps a recovering laggard from
// monopolising the sequencer.
const nakBatch = 32

// handleReq processes a member's point-to-point ordering request (PB method).
func (ep *Endpoint) handleReq(p packet, from flip.Address) {
	if !ep.isSeq || ep.st != stNormal {
		return
	}
	if ep.leaveSeq != 0 {
		// This sequencer has ordered its own departure: redirect the
		// sender to the successor.
		ep.sendPkt(from, packet{typ: ptStale, payload: encodeView(ep.pending, ep.globalSeq+1)})
		return
	}
	m, ok := ep.pending.find(p.sender)
	if !ok || m.Addr != from {
		// Not a member (stale after expulsion or leave): tell it.
		ep.sendPkt(from, packet{typ: ptStale, payload: encodeView(ep.pending, ep.globalSeq+1)})
		return
	}
	last := p.localID
	if p.kind == KindBatch {
		n := wireBatchCount(p.payload)
		if n == 0 {
			return // malformed batch body: cannot come from a correct member
		}
		last = p.localID + uint32(n) - 1
	}
	if d, ok := ep.dedup[p.sender]; ok && last <= d.localID {
		// Duplicate suppression: a retried request for something already
		// ordered is answered by retransmitting the sender's latest
		// ordered broadcast point-to-point — proof that completes its
		// window prefix. (Still tentative: the accept will reach the
		// sender in due course; sequenced state must not be re-ordered.)
		if e, ok := ep.hist.get(d.seq); ok && !e.tentative {
			ep.retransmitLocked(from, e)
		}
		return
	}
	if ep.parkBehindLocked(p, from) {
		return
	}
	if !ep.fifoAdmitsLocked(p.sender, p.localID, p.aux) {
		return // an earlier send is still in flight: its retry resends the window in order
	}
	// The packet borrows its receive buffer; the ordered entry keeps a copy.
	pl := make([]byte, len(p.payload))
	copy(pl, p.payload)
	if !ep.orderLocked(p.kind, p.sender, p.localID, pl) {
		ep.parkLocked(p, from)
	}
}

// fifoAdmitsLocked is the per-sender FIFO admission rule under pipelining:
// a request may be ordered only if it is the next in localID order — or if
// it sits at the sender's declared barrier (its oldest outstanding localID,
// stamped on every request), which proves every lower localID already
// completed and can never be sent again. The barrier case covers a
// sequencer change that erased dedup state for the sender (and, after a
// resilience-0 recovery, localIDs of completed-then-lost messages that will
// never reappear). Without any dedup state, the barrier is the only
// admissible start.
func (ep *Endpoint) fifoAdmitsLocked(sender MemberID, localID, barrier uint32) bool {
	if d, ok := ep.dedup[sender]; ok && localID == d.localID+1 {
		return true
	}
	return localID == barrier
}

// wireBatchCount reads the payload count from a batch body without decoding
// it; 0 reports a malformed body.
func wireBatchCount(body []byte) int {
	n, w := binary.Uvarint(body)
	if w <= 0 || n == 0 || n > maxBatchWire {
		return 0
	}
	return int(n)
}

// orderLocked assigns the next sequence number — or, for a KindBatch
// request, the next contiguous range of them — to a message and transmits it
// to the group: a full broadcast for PB-path messages (payload present), a
// short accept for BB-path messages (payload already multicast by the
// sender), or a tentative broadcast when the group runs with resilience. A
// batch costs the group one history entry, one multicast, and one
// ack/tentative round regardless of how many messages it carries — the
// amortisation the paper's conclusion 1 (processing-bound, not
// protocol-bound) predicts pays off.
// It reports false when the history buffer has no room even after pruning, in
// which case the message is NOT ordered — the protocol's backpressure. The
// refusal has already asked the group for the acknowledgement state that
// frees room (storeLocked); callers holding a data request park it
// (parkLocked) so that the answer, not the sender's retry timer, re-drives it.
// The ordered entry keeps payload: callers pass bytes nothing writes again.
func (ep *Endpoint) orderLocked(kind MsgKind, sender MemberID, localID uint32, payload []byte) bool {
	// Stage timing (paper-style per-stage decomposition): t0 is when the
	// ordering decision starts; the append histogram closes after the
	// history insert, the multicast histogram closes when the deferred
	// transport send actually executes (actions run in enqueue order, so
	// observing right after the multicast action measures the transmit).
	// Sampled 1-in-4: an append is ~1µs, so stamping the clock around
	// every one would cost a measurable slice of the stage it measures.
	o := &ep.cfg.Obs
	timed := (o.Append != nil || o.Multicast != nil || o.AckComplete != nil) && ep.ordTick&3 == 0
	ep.ordTick++
	var t0 time.Duration
	if timed {
		t0 = ep.cfg.Clock.Now()
	}
	ne := entry{seq: ep.globalSeq + 1, kind: kind, sender: sender, localID: localID, payload: payload}
	if kind == KindBatch {
		var ok bool
		if ne, ok = newBatchEntry(ep.globalSeq+1, sender, localID, payload); !ok {
			return true // malformed batch: drop silently, as for garbled packets
		}
	}
	e, ok := ep.storeLocked(ne)
	if !ok {
		return false
	}
	seq := e.seq
	ep.globalSeq = e.lastSeq()
	if timed {
		o.Append.Observe(ep.cfg.Clock.Now() - t0)
	}
	o.BatchFill.ObserveValue(uint64(e.span()))
	ep.stats.Ordered += uint64(e.span())
	if e.span() > 1 {
		ep.stats.OrderedBatches++
		ep.stats.BatchedMsgs += uint64(e.span())
	}
	if uint64(e.span()) > ep.stats.MaxBatchMsgs {
		ep.stats.MaxBatchMsgs = uint64(e.span())
	}
	ep.dedup[sender] = dedupEntry{localID: e.lastLocalID(), seq: seq}
	if e.lastSeq() > ep.maxSeen {
		ep.maxSeen = e.lastSeq()
	}

	if ep.cfg.Resilience > 0 || ep.cfg.leasesOn() {
		// Leases route even r=0 messages through the tentative path:
		// acceptance is the sequencer's decision, which is what lets it
		// wait for lease holders' stored-acks before a send completes.
		e.tentative = true
		if timed {
			e.orderedAt = t0
		}
		ep.multicastPkt(packet{
			typ: ptTentative, kind: kind, seq: seq, localID: localID,
			aux: uint32(ep.cfg.Resilience), aux2: ep.hist.floor,
			payload: e.payload, sender: sender,
		})
		if timed {
			ep.observeMulticastLocked(t0)
		}
		// With no other members to ack (tiny group), finalise at once.
		ep.maybeAcceptLocked(e)
		ep.armTentativeRetryLocked()
		ep.pruneAheadLocked()
		return true
	}
	ep.multicastPkt(packet{
		typ: ptBcast, kind: kind, seq: seq, localID: localID,
		aux: ep.hist.floor, sender: sender, payload: e.payload,
	})
	if timed {
		ep.observeMulticastLocked(t0)
	}
	// Only data kinds complete sends: membership kinds reuse the localID
	// field for other purposes (a leave names the successor there).
	if kind == KindData || kind == KindBatch {
		ep.completeSendsUpToLocked(sender, e.lastLocalID())
	}
	ep.pruneAheadLocked()
	return true
}

// observeMulticastLocked enqueues a stage-timing observation directly
// behind the multicast action just enqueued: actions run in order, so the
// observation fires when the transport send has executed, closing the
// receive→multicast-transmitted histogram. No-op without the instrument.
func (ep *Endpoint) observeMulticastLocked(t0 time.Duration) {
	h := ep.cfg.Obs.Multicast
	if h == nil {
		return
	}
	clock := ep.cfg.Clock
	ep.enqueue(func() { h.Observe(clock.Now() - t0) })
}

// orderBBLocked sequences a message whose payload arrived by sender
// multicast (BB method): only the short accept goes out.
func (ep *Endpoint) orderBBLocked(sender MemberID, localID uint32, kind MsgKind, payload []byte) bool {
	o := &ep.cfg.Obs
	timed := (o.Append != nil || o.Multicast != nil) && ep.ordTick&3 == 0
	ep.ordTick++
	var t0 time.Duration
	if timed {
		t0 = ep.cfg.Clock.Now()
	}
	e, ok := ep.storeLocked(entry{seq: ep.globalSeq + 1, kind: kind, sender: sender, localID: localID})
	if !ok {
		return false
	}
	ep.globalSeq++
	seq := ep.globalSeq
	// The payload borrows the sender's frame: the entry keeps a copy.
	e.payload = make([]byte, len(payload))
	copy(e.payload, payload)
	if timed {
		o.Append.Observe(ep.cfg.Clock.Now() - t0)
	}
	o.BatchFill.ObserveValue(1)
	ep.stats.Ordered++
	ep.dedup[sender] = dedupEntry{localID: localID, seq: seq}
	if seq > ep.maxSeen {
		ep.maxSeen = seq
	}
	ep.multicastPkt(packet{
		typ: ptAccept, kind: kind, seq: seq, localID: localID,
		aux: ep.hist.floor, aux2: uint32(sender),
	})
	if timed {
		ep.observeMulticastLocked(t0)
	}
	ep.completeSendsUpToLocked(sender, localID)
	ep.pruneAheadLocked()
	return true
}

// handleAck records a resilience acknowledgement for a tentative message.
func (ep *Endpoint) handleAck(p packet) {
	if !ep.isSeq {
		return
	}
	e, ok := ep.hist.get(p.seq)
	if !ok || !e.tentative {
		return
	}
	if e.ackedBy(p.sender) {
		return
	}
	e.acked = append(e.acked, p.sender)
	ep.maybeAcceptLocked(e)
}

// requiredAcksLocked is how many stored-acknowledgements finalise an entry:
// min(r, members-1) — a group smaller than r+1 cannot do better than
// everyone-but-the-sequencer. A join's own subject cannot vouch for it (it
// is not active until the join is accepted), so it is excluded from the
// available-acker count.
func (ep *Endpoint) requiredAcksLocked(e *entry) int {
	need := ep.cfg.Resilience
	avail := len(ep.pending.members) - 1
	if e.kind == KindJoin && e.sender != ep.self {
		avail--
	}
	if need > avail {
		need = avail
	}
	if need < 0 {
		need = 0
	}
	return need
}

// maybeAcceptLocked finalises a tentative entry once enough members have
// stored it — but only IN SEQUENCE ORDER: an entry is never accepted while
// an earlier one is still tentative. Cumulative acceptance is what makes an
// accept (and the prefix send-completions it implies at the sender) safe
// under pipelining: without it, a later message could be finalised — and
// complete its sender's whole window — while an earlier message's acks were
// still outstanding and a crash could yet erase it.
func (ep *Endpoint) maybeAcceptLocked(e *entry) {
	if !e.tentative || len(e.acked) < ep.requiredAcksLocked(e) {
		return
	}
	// Everything below the sequencer's own delivery point is final (the
	// delivery loop stops at tentative entries), so the gate only scans
	// the short undelivered window, not the whole history.
	for s := ep.nextDeliver; s < e.seq; s++ {
		if en, ok := ep.hist.get(s); ok && en.tentative {
			return // accepted later, cumulatively, once its turn comes
		}
	}
	if !ep.leaseAcceptGateLocked(e) {
		// A live lease holder has not stored it yet (or the failover
		// fence is pending). The tentative retry timer re-evaluates:
		// lease expiry, not just a new ack, can open this gate.
		ep.armTentativeRetryLocked()
		return
	}
	for e != nil {
		e.tentative = false
		if e.orderedAt != 0 {
			if h := ep.cfg.Obs.AckComplete; h != nil {
				h.Observe(ep.cfg.Clock.Now() - e.orderedAt)
			}
			e.orderedAt = 0
		}
		ep.multicastPkt(packet{
			typ: ptAccept, kind: e.kind, seq: e.seq, localID: e.localID,
			aux: ep.hist.floor, aux2: uint32(noMember),
		})
		if e.kind == KindData || e.kind == KindBatch {
			ep.completeSendsUpToLocked(e.sender, e.lastLocalID())
		}
		if e.kind == KindJoin {
			ep.sendPendingJoinAckLocked(e.seq)
		}
		// Acceptance may unblock the next tentative entry whose acks
		// already arrived while it waited its turn (skipping entries
		// that are already final, e.g. recovery anchors).
		next := (*entry)(nil)
		for s := e.lastSeq() + 1; s <= ep.globalSeq; s++ {
			en, ok := ep.hist.get(s)
			if !ok {
				break
			}
			if en.tentative {
				next = en
				break
			}
			s = en.lastSeq()
		}
		if next == nil || len(next.acked) < ep.requiredAcksLocked(next) ||
			!ep.leaseAcceptGateLocked(next) {
			break
		}
		e = next
	}
	ep.deliverReadyLocked()
	if len(ep.parked) > 0 {
		// Acceptance is what lets members deliver, and only delivery moves
		// the acknowledgement state the parked requests wait on. The status
		// round their refusal started was answered before these accepts went
		// out; a member that only listens reports nothing more unasked.
		ep.tryPruneLocked()
		if !ep.replayArmed {
			ep.solicitStatusLocked()
		}
	}
}

// armTentativeRetryLocked schedules re-multicast of tentative entries whose
// acknowledgements are slow — without it, one lost tentative packet at an
// acking member would stall the group.
func (ep *Endpoint) armTentativeRetryLocked() {
	if ep.tentTimer != nil {
		return
	}
	ep.tentTimer = ep.after(ep.cfg.RetryInterval, func() {
		ep.tentTimer = nil
		if !ep.isSeq {
			return
		}
		var oldest, last *entry
		for s := ep.hist.floor + 1; s <= ep.globalSeq; s++ {
			e, ok := ep.hist.get(s)
			if !ok || !e.tentative || e == last {
				continue // batch entries appear once per covered seqno
			}
			last = e
			if oldest == nil {
				oldest = e
			}
			ep.multicastPkt(packet{
				typ: ptTentative, kind: e.kind, seq: e.seq,
				localID: e.localID, aux: uint32(ep.cfg.Resilience),
				aux2: ep.hist.floor, payload: e.payload, sender: e.sender,
			})
		}
		if oldest != nil {
			ep.noteTentativeStallLocked(oldest)
			// Time alone can open the lease gate (a dead holder's
			// lease expiring, the failover fence lifting): re-try
			// acceptance of the oldest tentative each round.
			ep.maybeAcceptLocked(oldest)
			ep.armTentativeRetryLocked()
		} else {
			ep.tentStallSeq, ep.tentStallRounds = 0, 0
		}
	})
}

// noteTentativeStallLocked escalates a tentative message whose designated
// ackers stay silent across retry rounds: without this, a crashed acking
// member stalls every resilient send (and join) until the history fills or a
// sender gives up — the group livelocks on an idle workload. After
// StatusRetries rounds the sequencer probes the members that have not acked;
// the failure detector then expels the dead (AutoReset) or leaves the group
// blocked for the application's Reset, exactly as for any suspected death.
func (ep *Endpoint) noteTentativeStallLocked(oldest *entry) {
	if oldest.seq != ep.tentStallSeq {
		ep.tentStallSeq, ep.tentStallRounds = oldest.seq, 0
		return
	}
	ep.tentStallRounds++
	if ep.tentStallRounds < ep.cfg.StatusRetries {
		return
	}
	for _, m := range ep.pending.members {
		if m.ID == ep.self || oldest.ackedBy(m.ID) {
			continue
		}
		// A join's subject cannot ack (it is not active yet); do not
		// suspect it for staying silent.
		if oldest.kind == KindJoin && m.ID == oldest.sender {
			continue
		}
		ep.probeMemberLocked(m)
	}
}

// handleNak serves a retransmission request for [p.seq, p.aux]. A message
// the sequencer provably cannot recover — below its history floor after a
// recovery in a resilience-0 group — is answered with an explicit loss
// marker, so the requester can move past the hole instead of asking forever.
func (ep *Endpoint) handleNak(p packet, from flip.Address) {
	lo, hi := p.seq, p.aux
	if hi < lo {
		return
	}
	if hi-lo >= nakBatch {
		hi = lo + nakBatch - 1
	}
	var served *entry
	for s := lo; s <= hi; s++ {
		e, ok := ep.hist.get(s)
		if !ok {
			if ep.isSeq && s <= ep.hist.floor {
				ep.sendPkt(from, packet{typ: ptLost, seq: s})
			}
			continue
		}
		if e.tentative {
			continue
		}
		if e == served {
			continue // a batch entry covers several requested seqnos: send it once
		}
		served = e
		ep.retransmitLocked(from, e)
	}
}

// retransmitLocked unicasts one ordered message back to a member.
func (ep *Endpoint) retransmitLocked(to flip.Address, e *entry) {
	ep.stats.Retransmitted++
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "retransmit seq %d (kind %d) to %v", e.seq, e.kind, to)
	ep.sendPkt(to, packet{
		typ: ptRetrans, kind: e.kind, seq: e.seq, localID: e.localID,
		aux: ep.hist.floor, aux2: uint32(e.sender), payload: e.payload,
	})
}

// noteLastRecvLocked folds a piggybacked acknowledgement into the pruning
// state.
func (ep *Endpoint) noteLastRecvLocked(m MemberID, last uint32) {
	if ep.lastRecv == nil {
		return
	}
	_, isMember := ep.pending.find(m)
	leaveSeq, isLeaver := ep.leavers[m]
	if !isMember && !isLeaver {
		return
	}
	if isMember {
		ep.lastHeardSetLocked(m) // lease silence rule: the member is alive
	}
	if last > ep.lastRecv[m] {
		ep.lastRecv[m] = last
		// A member catching up may release a status probe.
		if pr, ok := ep.statusProbe[m]; ok {
			if pr.timer != nil {
				pr.timer.Stop()
			}
			delete(ep.statusProbe, m)
		}
	}
	if isLeaver && ep.lastRecv[m] >= leaveSeq {
		// The leaver has observed its own departure; stop waiting on
		// it.
		delete(ep.leavers, m)
		delete(ep.lastRecv, m)
	}
	if len(ep.parked) > 0 {
		ep.tryPruneLocked() // this report may be the room a parked request waits for
	}
	ep.maybeFinishHandoffLocked()
}

// tryPruneLocked advances the history floor to the minimum acknowledged
// sequence number across members (and not-yet-departed leavers). Raising the
// floor is the event parked requests wait for, so it schedules their replay —
// as a queued action rather than inline, because pruning also runs in the
// middle of an ordering decision (storeLocked) that a nested one would
// corrupt.
func (ep *Endpoint) tryPruneLocked() {
	if !ep.isSeq || len(ep.pending.members) == 0 {
		return
	}
	min := ep.nextDeliver - 1 // the sequencer's own receipt point
	for _, m := range ep.pending.members {
		if m.ID == ep.self {
			continue
		}
		if last := ep.lastRecv[m.ID]; last < min {
			min = last
		}
	}
	for id := range ep.leavers {
		if last := ep.lastRecv[id]; last < min {
			min = last
		}
	}
	floor := ep.hist.floor
	ep.hist.pruneTo(min)
	if ep.hist.floor > floor && len(ep.parked) > 0 && !ep.replayArmed {
		ep.replayArmed = true
		ep.enqueue(func() {
			ep.mu.Lock()
			ep.replayParkedLocked()
			ep.mu.Unlock()
			// Runs inside a drain, which picks up what the replay enqueued.
		})
	}
}

// solicitStatusLocked asks every member to report its acknowledgement state
// now (ptSync with aux2=1, answered by ptStatus). Acknowledgements otherwise
// ride only on a member's own sends, so a member that just listens would pin
// the history floor for as long as it stays quiet.
func (ep *Endpoint) solicitStatusLocked() {
	ep.stats.StatusSolicits++
	ep.solicitSeq = ep.globalSeq
	ep.multicastPkt(packet{typ: ptSync, seq: ep.globalSeq, aux: ep.hist.floor, aux2: 1})
}

// pruneAheadLocked runs after every append and keeps the history from ever
// filling under fault-free traffic: once it is half full, prune from the
// piggybacked state already held and, if that is not enough, solicit fresh
// state — at most once per quarter-history of sequence numbers, so the round
// trip overlaps with the traffic that fills the other half. Bursts that
// outrun the round are parked, not refused (parkLocked).
//
// Soliciting early doubles how often a status round happens, and a round
// costs the sequencer one reply per member — the acknowledgement implosion
// the paper's design avoids (§2.2). For the small groups replicated services
// run that is three packets per 64 messages; for a 30-member group it is a
// measurable tax on every message (internal/experiments pins it). So the
// early round is spent only while it stays under one status packet per eight
// ordered messages; larger groups wait for the refusal, as the paper's
// sequencer does, and parking makes that cost them a round trip, not a
// RetryInterval.
func (ep *Endpoint) pruneAheadLocked() {
	half := ep.hist.cap / 2
	if ep.hist.len() < half {
		return
	}
	ep.tryPruneLocked()
	if ep.hist.len() >= half && len(ep.pending.members)*16 <= ep.hist.cap &&
		ep.globalSeq-ep.solicitSeq >= uint32(ep.hist.cap/4) {
		ep.solicitStatusLocked()
	}
}

// storeLocked stores ne, the next entry ordered, in the history and returns
// the stored entry, pruning from the acknowledgement state already held if it
// must. When the history still refuses it, the refusal is counted, the group
// is asked for fresh state, and the members pinning a full buffer are probed:
// a live laggard's answer frees the room, a corpse exhausts its probes
// (probeMemberLocked).
func (ep *Endpoint) storeLocked(ne entry) (*entry, bool) {
	if e, ok := ep.hist.add(ne); ok {
		return e, true
	}
	ep.tryPruneLocked()
	if e, ok := ep.hist.add(ne); ok {
		return e, true
	}
	ep.stats.DroppedFull++
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "order refused: history full at seq %d (sender %d)", ep.globalSeq, ne.sender)
	ep.solicitStatusLocked()
	if !ep.hist.full() {
		return nil, false
	}
	floor := ep.hist.floor
	for _, m := range ep.pending.members {
		if m.ID == ep.self || ep.lastRecv[m.ID] > floor {
			continue
		}
		ep.probeMemberLocked(m)
	}
	return nil, false
}

// --- Parking: requests the history had no room for ---------------------------
//
// A request refused for lack of room is held at the sequencer, not dropped:
// the status round its refusal starts frees the buffer within a round trip,
// and nothing else would re-run the ordering before the sender's retry timer
// (RetryInterval later). Everything arriving while the queue is non-empty
// parks behind it — a sender's window arrives as a run, and ordering the
// second request while the first is parked would fail the FIFO admission
// check and strand it just the same. The queue is bounded by what correct
// senders can have in flight (members × SendWindow); it is dropped whenever
// the endpoint stops sequencing in normal state, and a request pinned behind a
// genuinely silent member still ends in its sender's retry budget.

// parkedReq is one held ordering request: the ptReq or ptBBData packet as it
// arrived, or — zero packet — the sequencer's own stranded sends, which need
// no copy because the send queue already holds them.
type parkedReq struct {
	p    packet
	from flip.Address
	at   time.Duration // when it was parked
}

// isParkedLocked reports whether the request (by type, sender and localID)
// is already held.
func (ep *Endpoint) isParkedLocked(p packet) bool {
	for _, r := range ep.parked {
		if r.p.typ == p.typ && r.p.sender == p.sender && r.p.localID == p.localID {
			return true
		}
	}
	return false
}

// parkBehindLocked queues an arriving request behind those already parked and
// reports whether it did. A sender's retry of a parked request is not queued
// twice; it falls through to the ordering attempt, whose refusal solicits
// status again — the retry means the last solicitation or its answers were
// lost.
func (ep *Endpoint) parkBehindLocked(p packet, from flip.Address) bool {
	if len(ep.parked) == 0 || ep.isParkedLocked(p) {
		return false
	}
	ep.parkLocked(p, from)
	return true
}

// parkLocked holds a request until history room frees. Duplicates and
// overflow are dropped, as every refused request used to be.
func (ep *Endpoint) parkLocked(p packet, from flip.Address) {
	if ep.isParkedLocked(p) || len(ep.parked) >= len(ep.pending.members)*ep.cfg.SendWindow {
		return
	}
	p.payload = append([]byte(nil), p.payload...) // the packet aliases its receive buffer
	ep.parked = append(ep.parked, parkedReq{p: p, from: from, at: ep.cfg.Clock.Now()})
	ep.stats.Parked++
}

// replayParkedLocked re-drives the parked requests, oldest first, through the
// checks a fresh arrival gets (membership, duplicate suppression, FIFO
// admission) until the history fills again; the one refused re-parks itself
// and the rest keep their places behind it.
func (ep *Endpoint) replayParkedLocked() {
	ep.replayArmed = false
	q := ep.parked
	ep.parked = nil
	if len(q) == 0 || !ep.isSeq || ep.st != stNormal {
		return
	}
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "history room freed (floor %d): replaying %d parked requests, oldest waited %v",
		ep.hist.floor, len(q), ep.cfg.Clock.Now()-q[0].at)
	for i, r := range q {
		switch r.p.typ {
		case ptReq:
			ep.handleReq(r.p, r.from)
		case ptBBData:
			ep.handleBBData(r.p)
		default:
			ep.orderOwnSendsLocked()
		}
		if len(ep.parked) > 0 {
			ep.parked = append(ep.parked, q[i+1:]...)
			return
		}
	}
}

// probeMemberLocked starts (or continues) a status probe of one member; the
// paper's unreliable failure detector. StatusRetries unanswered probes
// declare the member dead.
func (ep *Endpoint) probeMemberLocked(m Member) {
	if ep.statusProbe == nil {
		ep.statusProbe = make(map[MemberID]*probe)
	}
	if _, ok := ep.statusProbe[m.ID]; ok {
		return // probe in progress
	}
	pr := &probe{}
	ep.statusProbe[m.ID] = pr
	var fire func()
	fire = func() {
		if !ep.isSeq || ep.st != stNormal {
			return
		}
		if _, ok := ep.statusProbe[m.ID]; !ok {
			return // answered
		}
		pr.tries++
		if pr.tries > ep.cfg.StatusRetries {
			delete(ep.statusProbe, m.ID)
			ep.memberSuspectedDeadLocked(m)
			return
		}
		ep.sendPkt(m.Addr, packet{typ: ptStatusReq, seq: ep.globalSeq, aux: ep.hist.floor})
		pr.timer = ep.after(ep.cfg.StatusTimeout, fire)
	}
	fire()
}

// memberSuspectedDeadLocked reacts to an unresponsive member: with AutoReset
// the sequencer rebuilds the group without it; otherwise the group stays
// intact (and possibly blocked on history space) until the application calls
// Reset — the paper's user-requested recovery.
func (ep *Endpoint) memberSuspectedDeadLocked(m Member) {
	ep.cfg.Obs.Flight.Recordf(ep.cfg.Obs.Tag, "member %d suspected dead (autoReset=%v)", m.ID, ep.cfg.AutoReset)
	if ep.cfg.AutoReset {
		ep.initiateResetLocked(ep.cfg.MinSurvivors)
	}
}

// handleStatus processes a member's explicit status report; the piggyback
// path in HandlePacket has already recorded p.lastRecv.
func (ep *Endpoint) handleStatus(p packet) {
	ep.tryPruneLocked()
}

// handleStatusReq answers a sequencer's status probe (member side).
func (ep *Endpoint) handleStatusReq(p packet, from flip.Address) {
	ep.noteSyncLocked(p.seq, p.aux)
	ep.sendPkt(from, packet{typ: ptStatus})
}

// armSyncLocked keeps the idle-sequencer watermark broadcast running.
func (ep *Endpoint) armSyncLocked() {
	if ep.syncTimer != nil || ep.cfg.SyncInterval <= 0 {
		return
	}
	ep.syncTimer = ep.after(ep.cfg.SyncInterval, func() {
		ep.syncTimer = nil
		if !ep.isSeq || ep.st != stNormal {
			return
		}
		ep.tryPruneLocked()
		var grants []byte
		if ep.cfg.leasesOn() {
			grants = ep.leaseTickLocked()
		}
		ep.multicastPkt(packet{typ: ptSync, seq: ep.globalSeq, aux: ep.hist.floor, payload: grants})
		ep.probeIdleLaggardsLocked()
		ep.armSyncLocked()
	})
}

// probeIdleLaggardsLocked is the idle-group failure detector: on each sync
// tick, members whose acknowledged receipt point trails the sequencer's own
// delivery point accrue a lag tick, and after IdleProbeTicks consecutive
// ones a status probe is started. A live member (idle senders piggyback no
// acknowledgements, so lagging is normal for them) answers the probe at
// once — the answer's piggyback clears the lag and releases the probe. A
// corpse exhausts StatusRetries and is handled by
// memberSuspectedDeadLocked, exactly as for a laggard under traffic — so a
// dead member is expelled within a bounded time even from a group that
// carries no traffic at all.
func (ep *Endpoint) probeIdleLaggardsLocked() {
	if ep.cfg.IdleProbeTicks < 0 {
		return
	}
	behind := ep.nextDeliver - 1 // the sequencer's own receipt point
	for _, m := range ep.pending.members {
		if m.ID == ep.self {
			continue
		}
		if ep.lastRecv[m.ID] >= behind {
			delete(ep.idleLag, m.ID)
			continue
		}
		if ep.idleLag == nil {
			ep.idleLag = make(map[MemberID]int)
		}
		ep.idleLag[m.ID]++
		if ep.idleLag[m.ID] >= ep.cfg.IdleProbeTicks {
			delete(ep.idleLag, m.ID)
			ep.probeMemberLocked(m)
		}
	}
}
