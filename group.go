package amoeba

import (
	"context"
	"sync"
	"time"

	"amoeba/internal/core"
	"amoeba/obs"
)

// MsgKind labels what a received Message represents.
type MsgKind int

// Message kinds. Data messages carry application payload; the rest are
// membership events, delivered in the same total order at every member.
const (
	Data MsgKind = iota + 1
	// Join reports a member (possibly this one) joining.
	Join
	// Leave reports a member leaving.
	Leave
	// Reset reports a completed recovery: the group was rebuilt after a
	// failure.
	Reset
	// Expelled reports that THIS member was removed from the group by a
	// recovery it did not participate in; the group handle is dead.
	Expelled
)

func (k MsgKind) String() string {
	switch k {
	case Data:
		return "data"
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Reset:
		return "reset"
	case Expelled:
		return "expelled"
	default:
		return "unknown"
	}
}

func kindOf(k core.MsgKind) MsgKind {
	switch k {
	case core.KindData:
		return Data
	case core.KindJoin:
		return Join
	case core.KindLeave:
		return Leave
	case core.KindReset:
		return Reset
	case core.KindExpelled:
		return Expelled
	default:
		return 0
	}
}

// Message is one totally-ordered delivery from a group.
type Message struct {
	// Kind is Data for application messages, or a membership event.
	Kind MsgKind
	// Seq is the message's global sequence number; consecutive at every
	// member (recoveries in resilience-0 groups may skip lost numbers).
	Seq uint32
	// Sender is the member id of the sender (for membership events, the
	// member that joined or left).
	Sender int
	// Payload is the application data; nil for membership events. It is
	// read-only and may be kept: it can be the protocol's own stored copy
	// of the message, shared with retransmission (core.Delivery.Payload).
	Payload []byte
	// Members is the group size after this event.
	Members int
}

// GroupInfo is a GetInfoGroup snapshot.
type GroupInfo struct {
	// Name is the group's name.
	Name string
	// Self is this process's member id.
	Self int
	// Sequencer is the current sequencer's member id.
	Sequencer int
	// IsSequencer reports whether this process sequences the group.
	IsSequencer bool
	// Members is the current group size.
	Members int
	// MemberIDs lists member ids in ascending order.
	MemberIDs []int
	// Resilience is the group's fault-tolerance degree.
	Resilience int
	// Incarnation counts recoveries survived.
	Incarnation uint32
	// State names the membership's protocol state: "joining", "normal",
	// "recovering", "coordinating", or "dead".
	State string
	// NextSeq is the next sequence number this member expects to deliver.
	NextSeq uint32
}

// Group is one process's membership in a group. Methods are safe for
// concurrent use; Send and Receive block, per the paper's primitive design.
type Group struct {
	kernel   *Kernel
	name     string
	tr       *core.FLIPTransport
	ep       *core.Endpoint
	queue    *deliveryQueue
	obsUnreg func() // detaches the stats source from the hub registry
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Send broadcasts payload to the group — the paper's SendToGroup. It blocks
// until the message is totally ordered (and, with resilience r, stored by r
// other members). Sends from one Group handle are delivered FIFO. payload is
// copied before Send returns.
func (g *Group) Send(ctx context.Context, payload []byte) error {
	return waitCtx(ctx, func(done func(error)) { g.Start([][]byte{clone(payload)}, done) })
}

// SendBatch broadcasts several payloads to the group as one pipelined burst:
// every payload is its own totally-ordered message (delivered individually,
// in submission order relative to this handle's other sends), but the
// protocol coalesces them into multi-payload ordering requests of up to 16
// payloads, so the sequencer's per-request work is paid once
// per batch instead of once per message. SendBatch blocks until every
// payload is ordered (and, with resilience r, stored by r other members); it
// returns the first error encountered. The payloads are copied before
// SendBatch returns.
func (g *Group) SendBatch(ctx context.Context, payloads [][]byte) error {
	own := make([][]byte, len(payloads))
	for i, p := range payloads {
		own[i] = clone(p)
	}
	return waitCtx(ctx, func(done func(error)) { g.Start(own, done) })
}

// clone copies a payload for Start, which keeps what it is given.
func clone(p []byte) []byte {
	c := make([]byte, len(p))
	copy(c, p)
	return c
}

// Start is the non-blocking half of Send and SendBatch, which are Start plus
// a wait: it submits payloads as one burst and returns, and done is called
// once, when every payload is ordered (and, with resilience r, stored by r
// other members), with the first error any of them met. Start takes the
// payloads over without copying them: the group transmits and stores them
// as they are and, on the sequencer's node, delivers them, so the caller must
// never write them again (Send and SendBatch copy first). done may run
// before Start returns, on the caller's goroutine, or later on a protocol
// goroutine; it must not block.
func (g *Group) Start(payloads [][]byte, done func(error)) {
	switch len(payloads) {
	case 0:
		done(nil)
	case 1:
		g.ep.SendMany(payloads, []func(error){done})
	default:
		one := (&allDone{left: len(payloads), done: done}).one
		dones := make([]func(error), len(payloads))
		for i := range dones {
			dones[i] = one
		}
		// One submission under one lock: the burst coalesces into batch
		// requests before the send window starts transmitting — on the
		// sequencer's own node too, where ordering is deferred one drain
		// cycle for exactly this purpose.
		g.ep.SendMany(payloads, dones)
	}
}

// allDone folds a burst's per-payload completions into one: the first error,
// reported once the last payload completes.
type allDone struct {
	mu   sync.Mutex
	left int
	err  error
	done func(error)
}

func (a *allDone) one(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.left--
	last := a.left == 0
	a.mu.Unlock()
	if last {
		a.done(a.err)
	}
}

// GroupStats counts protocol events on this member's endpoint. The batch
// counters are sequencer-side: they are non-zero only while (and after) this
// member sequences the group.
type GroupStats struct {
	// Sent counts application sends completed by this member.
	Sent uint64
	// Delivered counts messages delivered to the application.
	Delivered uint64
	// Retries counts this member's request retry rounds: every firing of
	// the send retry timer, whatever left the request unanswered (a lost
	// packet, a dead sequencer, a history pinned full by a silent member).
	// On a network that drops nothing it stays zero.
	Retries uint64
	// Ordered counts messages this member assigned sequence numbers to
	// (as sequencer).
	Ordered uint64
	// OrderedBatches counts multi-message batch requests ordered.
	OrderedBatches uint64
	// BatchedMsgs counts messages that travelled inside those batches.
	BatchedMsgs uint64
	// MaxBatchMsgs is the largest batch ordered.
	MaxBatchMsgs uint64
}

// Stats returns a snapshot of the member's protocol counters.
func (g *Group) Stats() GroupStats {
	s := g.ep.Stats()
	return GroupStats{
		Sent:           s.Sent,
		Delivered:      s.Delivered,
		Retries:        s.RequestRetries,
		Ordered:        s.Ordered,
		OrderedBatches: s.OrderedBatches,
		BatchedMsgs:    s.BatchedMsgs,
		MaxBatchMsgs:   s.MaxBatchMsgs,
	}
}

// Receive blocks until the next totally-ordered message — the paper's
// ReceiveFromGroup. Every member receives the same sequence of Messages,
// data and membership events interleaved identically. It is ReceiveMany with
// room for one.
func (g *Group) Receive(ctx context.Context) (Message, error) {
	var one [1]Message
	_, err := g.queue.receive(ctx, one[:])
	return one[0], err
}

// ReceiveMany blocks until at least one message is queued, then moves up to
// len(buf) of the next messages into buf, in order, and reports how many. A
// consumer that applies what it receives in bursts takes each burst under one
// hold of the queue's lock. Queued messages are handed out even after the
// handle closed or ctx ended: the error (ErrNotMember, or ctx's) comes once
// none is left. buf must not be empty.
func (g *Group) ReceiveMany(ctx context.Context, buf []Message) (int, error) {
	return g.queue.receive(ctx, buf)
}

// Leave departs the group in total order — the paper's LeaveGroup. It blocks
// until the departure is sequenced; afterwards the handle is dead.
func (g *Group) Leave(ctx context.Context) error {
	err := waitCtx(ctx, func(done func(error)) { g.ep.Leave(done) })
	if err == nil {
		g.tr.Unbind()
	}
	return err
}

// Reset rebuilds the group after a suspected failure — the paper's
// ResetGroup. It blocks until a new view with at least minAlive members is
// installed, retrying (and keeping the group blocked) while fewer survive.
// This process becomes the new sequencer.
func (g *Group) Reset(ctx context.Context, minAlive int) error {
	return waitCtx(ctx, func(done func(error)) { g.ep.Reset(minAlive, done) })
}

// Info returns a snapshot of the group's state — the paper's GetInfoGroup.
func (g *Group) Info() GroupInfo {
	info := g.ep.Info()
	ids := make([]int, 0, len(info.Members))
	for _, m := range info.Members {
		ids = append(ids, int(m.ID))
	}
	return GroupInfo{
		Name:        g.name,
		Self:        int(info.Self),
		Sequencer:   int(info.Sequencer),
		IsSequencer: info.IsSequencer,
		Members:     len(info.Members),
		MemberIDs:   ids,
		Resilience:  info.Resilience,
		Incarnation: info.Incarnation,
		State:       info.State,
		NextSeq:     info.NextSeq,
	}
}

// LeaseInfo is a snapshot of this member's read-lease state (see
// GroupOptions.LeaseDur).
type LeaseInfo struct {
	// Enabled reports whether the group runs with read leases.
	Enabled bool
	// Held reports whether a local linearizable read is permitted right
	// now. Validity is time-bounded: callers must re-check Held after
	// reading local state and discard the result if it lapsed.
	Held bool
	// Remaining is the time left on the held lease.
	Remaining time.Duration
	// Watermark is the sequence number local state must have applied
	// through before a lease read may serve: every write completed before
	// this snapshot has a seqno ≤ Watermark.
	Watermark uint32
	// Incarnation is the view incarnation the lease belongs to.
	Incarnation uint32
}

// Lease returns the member's read-lease snapshot. With leases enabled
// (GroupOptions.LeaseDur > 0), a member for which Held is true may serve a
// linearizable read from state that has applied deliveries through Watermark
// — provided Held is still true when the read finishes.
func (g *Group) Lease() LeaseInfo {
	li := g.ep.Lease()
	return LeaseInfo{
		Enabled:     li.Enabled,
		Held:        li.Held,
		Remaining:   li.Remaining,
		Watermark:   li.Watermark,
		Incarnation: li.Incarnation,
	}
}

// FreshAt bounds the staleness of local state that has applied deliveries
// through seq `applied`: every write completed more than the returned
// duration ago (plus one network transit) is reflected in that state.
// ok=false means no bound is known and a bounded-staleness read must fall
// back to a linearizable path.
func (g *Group) FreshAt(applied uint32) (time.Duration, bool) {
	return g.ep.FreshAt(applied)
}

// Close abandons the membership without protocol interaction — to the rest
// of the group, this member has crashed. Prefer Leave for orderly exits.
func (g *Group) Close() {
	g.ep.Close()
	g.tr.Unbind()
	g.queue.close()
	if g.obsUnreg != nil {
		g.obsUnreg()
	}
}

// deliveryQueue buffers ordered deliveries between the protocol goroutines
// and blocking Receive/ReceiveMany calls. It is unbounded: a member that never
// receives grows it without limit (ROADMAP item 10).
type deliveryQueue struct {
	mu     sync.Mutex
	msgs   []queued // the queue is msgs[head:]
	head   int      // next to hand out; back to 0 whenever the queue empties, so the array is reused
	pushed uint64   // pushes since start, for the wait-sampling rule
	notify chan struct{}
	closed bool

	// Instruments (nil = no-op): waitH observes how long a message sat
	// queued before Receive picked it up (amoeba_group_deliver_wait_ns),
	// sampled 1-in-4 so the per-delivery wall-clock stamp stays off most
	// of the hot path; depth tracks the queue occupancy
	// (amoeba_group_queue_depth, delta-updated so groups can share it).
	waitH *obs.Histogram
	depth *obs.Gauge
}

// queued is one buffered message and, when its wait is being sampled, the time
// it was pushed (zero otherwise).
type queued struct {
	m  Message
	at time.Time
}

// maxKeptQueue bounds the array an emptied delivery queue keeps for reuse. A
// consumer that keeps up never queues more; the array a backlog grew (hundreds
// of messages when an apply loop stalls on its log) is not worth holding in
// every group's live heap.
const maxKeptQueue = 64

func newDeliveryQueue() *deliveryQueue {
	return &deliveryQueue{notify: make(chan struct{}, 1)}
}

func (q *deliveryQueue) push(d core.Delivery) {
	e := queued{m: Message{
		Kind:    kindOf(d.Kind),
		Seq:     d.Seq,
		Sender:  int(d.Sender),
		Payload: d.Payload,
		Members: d.Members,
	}}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if q.waitH != nil {
		if q.pushed&3 == 0 {
			e.at = time.Now()
		}
		q.pushed++
	}
	if q.head > 0 && len(q.msgs) == cap(q.msgs) {
		// Full, but handed-out slots lead the array: slide the queue down
		// instead of growing — a consumer that lags without ever quite
		// emptying the queue must not make the array grow forever.
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, e)
	q.depth.Add(1)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// receive moves up to len(buf) queued messages into buf, blocking until there
// is at least one; see Group.ReceiveMany.
func (q *deliveryQueue) receive(ctx context.Context, buf []Message) (int, error) {
	for {
		q.mu.Lock()
		if q.head < len(q.msgs) {
			next := q.msgs[q.head:]
			n := min(len(buf), len(next))
			for i := range next[:n] {
				buf[i] = next[i].m
				if !next[i].at.IsZero() {
					q.waitH.Observe(time.Since(next[i].at))
				}
			}
			clear(next[:n]) // drop the queue's references to the payloads
			q.head += n
			more := q.head < len(q.msgs)
			if !more {
				q.msgs, q.head = q.msgs[:0], 0
				if cap(q.msgs) > maxKeptQueue {
					q.msgs = nil
				}
			}
			if !q.closed {
				q.depth.Add(-int64(n))
			}
			q.mu.Unlock()
			if more {
				select {
				case q.notify <- struct{}{}:
				default:
				}
			}
			return n, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			// Cascade the wakeup: close() sends a single token, so each
			// exiting receiver re-arms it for the next blocked one.
			select {
			case q.notify <- struct{}{}:
			default:
			}
			return 0, ErrNotMember
		}
		select {
		case <-q.notify:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

func (q *deliveryQueue) close() {
	q.mu.Lock()
	if !q.closed {
		// Surrender the gauge's claim on still-buffered messages now;
		// post-close receives (which may never come) skip the decrement.
		q.depth.Add(-int64(len(q.msgs) - q.head))
	}
	q.closed = true
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Debug renders the membership's internal protocol state for diagnostics.
// The format is unstable; log it, do not parse it.
func (g *Group) Debug() string { return g.ep.DebugSnapshot() }

// registerStatsSource exposes the endpoint's protocol counters through the
// hub's registry. Counters keep living in core's Stats struct — the registry
// pulls a snapshot at render time and sums same-named samples across groups.
// Close unregisters the source (its final values are retained as retired
// totals) so the registry does not pin a dead group's endpoint in memory.
func (g *Group) registerStatsSource(hub *obs.Hub) {
	ep := g.ep
	g.obsUnreg = hub.Registry().RegisterSource(func() []obs.Sample {
		s := ep.Stats()
		return []obs.Sample{
			{Name: "amoeba_core_sent_total", Value: s.Sent},
			{Name: "amoeba_core_delivered_total", Value: s.Delivered},
			{Name: "amoeba_core_ordered_total", Value: s.Ordered},
			{Name: "amoeba_core_ordered_batches_total", Value: s.OrderedBatches},
			{Name: "amoeba_core_batched_msgs_total", Value: s.BatchedMsgs},
			{Name: "amoeba_core_request_retries_total", Value: s.RequestRetries},
			{Name: "amoeba_core_retransmitted_total", Value: s.Retransmitted},
			{Name: "amoeba_core_naks_sent_total", Value: s.NaksSent},
			{Name: "amoeba_core_acks_sent_total", Value: s.AcksSent},
			{Name: "amoeba_core_lost_gaps_total", Value: s.LostGaps},
			{Name: "amoeba_core_resets_total", Value: s.Resets},
			{Name: "amoeba_core_dropped_full_total", Value: s.DroppedFull},
			{Name: "amoeba_core_order_parked_total", Value: s.Parked},
			{Name: "amoeba_core_status_solicits_total", Value: s.StatusSolicits},
			{Name: "amoeba_core_lease_grants_total", Value: s.LeaseGrants},
			{Name: "amoeba_core_lease_renewals_total", Value: s.LeaseRenewals},
			{Name: "amoeba_core_lease_fences_total", Value: s.LeaseFences},
		}
	})
}
