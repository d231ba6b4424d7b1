// Package core implements the Amoeba group communication protocol: reliable,
// totally-ordered multicast built on a per-group sequencer, negative
// acknowledgements, piggybacked acknowledgement state, and a user-selectable
// resilience degree.
//
// One Endpoint is one group member's protocol state machine. Endpoints are
// event-driven: inbound packets arrive through HandlePacket, timers fire
// through the configured Clock, and applications invoke the Table 1
// primitives (Send, Leave, Reset, Info). The same code runs unchanged over
// the in-memory transport (goroutines, wall-clock timers) and under the
// calibrated discrete-event simulator (virtual time, per-layer CPU
// accounting) — the only difference is the Transport, Clock, and Meter
// supplied in Config.
//
// Protocol summary (paper §2–3): a member sends by forwarding its message to
// the group's sequencer (PB method) or multicasting it and waiting for the
// sequencer's short accept (BB method); the sequencer assigns a global
// sequence number. Receivers detect gaps in the sequence numbers and request
// retransmission from the sequencer's history buffer — there are no
// per-message positive acknowledgements; instead every packet piggybacks the
// sender's highest contiguously received sequence number, which lets the
// sequencer prune history. With resilience degree r, the sequencer first
// multicasts the message as tentative; the r lowest-numbered members buffer
// it and acknowledge; only then is the short accept multicast and the message
// deliverable, so any r crashes lose no completed send. Joins, leaves, and
// recovery from member or sequencer failure are ordered in the same stream
// as data.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"amoeba/internal/bufpool"
	"amoeba/internal/cost"
	"amoeba/internal/flip"
	"amoeba/internal/sim"
)

// Errors surfaced to applications.
var (
	// ErrTooLarge reports a payload above Config.MaxMessage.
	ErrTooLarge = errors.New("core: message exceeds maximum size")
	// ErrSequencerDead reports exhausted retries talking to the
	// sequencer; the application should invoke Reset (or enable
	// AutoReset).
	ErrSequencerDead = errors.New("core: sequencer not responding")
	// ErrNotMember reports an operation on an endpoint that has left,
	// been expelled, or never joined.
	ErrNotMember = errors.New("core: not a group member")
	// ErrJoinFailed reports that no sequencer answered a join request.
	ErrJoinFailed = errors.New("core: join failed: no sequencer found")
	// ErrClosed reports an operation on a closed endpoint.
	ErrClosed = errors.New("core: endpoint closed")
)

// state is the endpoint lifecycle.
type state uint8

const (
	stJoining state = iota + 1
	stNormal
	stRecovering   // voted in a recovery epoch, frozen
	stCoordinating // running a recovery as coordinator
	stDead         // left, expelled, or closed
)

func (s state) String() string {
	switch s {
	case stJoining:
		return "joining"
	case stNormal:
		return "normal"
	case stRecovering:
		return "recovering"
	case stCoordinating:
		return "coordinating"
	case stDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Stats counts protocol events on one endpoint.
type Stats struct {
	Sent           uint64 // application sends completed
	Delivered      uint64 // deliveries to the application
	NaksSent       uint64
	Retransmitted  uint64 // retransmissions served (sequencer/holder side)
	RequestRetries uint64 // sender-side request retry rounds
	Ordered        uint64 // messages assigned a seqno (sequencer side)
	DroppedFull    uint64 // ordering attempts refused because history was full
	Parked         uint64 // requests held at the sequencer for history room (counted per parking)
	StatusSolicits uint64 // status solicitations multicast to free history room
	AcksSent       uint64 // resilience acks sent
	Resets         uint64 // recoveries completed
	LostGaps       uint64 // sequence numbers lost to failures (r=0 only)

	// Batching observability (sequencer side): how well the send→order
	// path amortises per-request work.
	OrderedBatches uint64 // multi-message batch entries ordered
	BatchedMsgs    uint64 // messages that travelled inside those batches
	MaxBatchMsgs   uint64 // largest batch ordered

	// Read leases (Config.LeaseDur > 0; see lease.go).
	LeaseGrants   uint64 // member-grants issued (sequencer side)
	LeaseRenewals uint64 // grants received for self (holder side)
	LeaseFences   uint64 // failover fences armed
}

// sendOp is one queued ordering request: one or more application payloads
// with contiguous localIDs, sent (and ordered) as a unit. While an op waits
// for a window slot, further PB sends coalesce into it up to Config.MaxBatch
// payloads and Config.MaxMessage bytes.
type sendOp struct {
	localID  uint32   // first localID in the op
	payloads [][]byte // one or more application payloads, FIFO
	size     int      // total payload bytes (coalescing budget)
	method   Method
	retries  int
	dones    []func(error) // one completion per payload, same order
	active   bool          // transmitted and awaiting ordering proof
	sent     bool          // transmitted at least once (survives deactivation)
	// payloads and dones start out as these one-element arrays, so the
	// common single-payload op is one allocation; coalescing a second
	// payload moves them to the heap.
	payload1 [1][]byte
	done1    [1]func(error)
}

// newSendOp builds a single-payload op.
func newSendOp(localID uint32, payload []byte, method Method, done func(error)) *sendOp {
	op := &sendOp{localID: localID, size: len(payload), method: method}
	op.payload1[0], op.done1[0] = payload, done
	op.payloads, op.dones = op.payload1[:], op.done1[:]
	return op
}

// count is the number of payloads in the op.
func (op *sendOp) count() uint32 { return uint32(len(op.payloads)) }

// lastLocalID is the highest localID the op covers.
func (op *sendOp) lastLocalID() uint32 { return op.localID + op.count() - 1 }

// wireBody renders the op for the wire: a raw payload for singles, an
// encoded batch body for multi-payload ops.
func (op *sendOp) wireBody() (MsgKind, []byte) {
	if len(op.payloads) == 1 {
		return KindData, op.payloads[0]
	}
	return KindBatch, encodeBatchBody(op.payloads)
}

// Endpoint is one member's group-protocol instance.
type Endpoint struct {
	cfg Config

	mu       sync.Mutex
	st       state
	self     MemberID
	view     view // membership as of the delivery point
	pending  view // membership including ordered-but-undelivered changes (sequencer)
	isSeq    bool
	stats    Stats
	closed   bool
	draining bool
	actions  []action // side effects awaiting the drainer, in enqueue order
	ran      []action // the batch the drainer last finished, emptied for reuse

	// Receiving.
	hist        *history // ordered messages: pending delivery + recovery store
	nextDeliver uint32   // next seqno to hand to the application
	maxSeen     uint32   // highest seqno known to exist
	bbCache     map[bbKey][]byte
	bbEarly     map[bbKey]uint32 // seqnos of BB accepts that arrived before their data
	nakTimer    sim.Timer
	nakBackoff  time.Duration
	nakSnap     uint32 // nextDeliver when the NAK timer was armed (stall detection)

	// Sending.
	nextLocalID  uint32
	sendQ        []*sendOp
	sendDeadline time.Duration // when the oldest in-flight op is retried; 0 while nothing is in flight
	sendTimer    sim.Timer     // fires at or before sendDeadline (see armSendRetryLocked)
	resending    bool          // window retransmission in progress: pump suppressed
	// Last values pushed to the shared send gauges (delta-updated so
	// several endpoints can share one gauge).
	obsQueued int64
	obsActive int64
	// Sequencer self-send batching: the sequencer's own requests are not
	// ordered inline but deferred one drain-cycle, so a burst coalesces
	// into batch entries like a remote member's does.
	selfPend    []*sendOp // own active ops awaiting the deferred order flush
	ownWalk     []*sendOp // orderOwnSendsLocked's snapshot of sendQ, kept for reuse
	selfFlush   bool      // a flush action is already queued
	selfFlushFn func()    // that action: ep.flushSelfOrders, bound once so queueing it allocates nothing

	// Sequencer.
	globalSeq       uint32 // highest assigned seqno
	ordTick         uint64 // ordering decisions so far, for the stage-timing sampling rule
	lastRecv        map[MemberID]uint32
	dedup           map[MemberID]dedupEntry
	syncTimer       sim.Timer
	tentTimer       sim.Timer
	tentStallSeq    uint32 // oldest tentative seq at the last retry round
	tentStallRounds int    // consecutive retry rounds it has survived
	statusProbe     map[MemberID]*probe
	idleLag         map[MemberID]int    // consecutive idle sync ticks behind (idle-probe detector)
	leaveSeq        uint32              // seqno of own ordered leave (handoff pending), 0 if none
	leavers         map[MemberID]uint32 // departed members still owed retransmissions, by leave seqno
	joinAcks        map[flip.Address]joinAck
	pendingJoinAcks map[uint32]flip.Address // join acks gated on resilience acceptance
	parked          []parkedReq             // requests awaiting history room, in arrival order (see parkLocked)
	replayArmed     bool                    // a replay of parked is queued behind the current drain
	solicitSeq      uint32                  // globalSeq at the last status solicitation (paces pruneAheadLocked)

	// Read leases (cfg.LeaseDur > 0; see lease.go).
	leases       map[MemberID]time.Duration // granter-side conservative expiries
	lastHeard    map[MemberID]time.Duration // member liveness for the silence rule
	leaseTickSeq uint32                     // watermark announced on the previous tick
	leaseUntil   time.Duration              // holder-side lease validity end
	leaseInc     uint32                     // incarnation the held lease was granted in
	leaseFence   time.Duration              // failover fence end
	fenced       bool                       // fence pending: no accepts/deliveries/completions
	fencedDones  [][]func(error)            // send completions awaiting the fence
	fenceTimer   sim.Timer
	fresh        []freshMark // bounded-staleness anchors from sync ticks

	// Leaving.
	leaveDone []func(error)

	// Joining.
	joinTimer   sim.Timer
	joinRetries int
	joinDone    []func(error)

	// Recovery.
	rec          *recovery
	resetWaiters []func(error)
}

type bbKey struct {
	sender  MemberID
	localID uint32
}

type dedupEntry struct {
	localID uint32
	seq     uint32
}

type probe struct {
	tries int
	timer sim.Timer
}

// NewCreator builds the endpoint for CreateGroup: the caller becomes member 0
// and the group's first sequencer. Call Start after binding the transport.
func NewCreator(cfg Config) (*Endpoint, error) {
	ep, err := newEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	ep.st = stNormal
	ep.self = 0
	ep.isSeq = true
	ep.view = view{incarnation: 1, members: []Member{{ID: 0, Addr: cfg.Self}}, sequencer: 0}
	ep.pending = ep.view.clone()
	ep.globalSeq = cfg.FirstSeq
	ep.maxSeen = cfg.FirstSeq
	ep.lastRecv = map[MemberID]uint32{0: cfg.FirstSeq}
	ep.dedup = make(map[MemberID]dedupEntry)
	return ep, nil
}

// NewJoiner builds an endpoint for JoinGroup. done is called once the join
// concludes. Call Start after binding the transport to begin locating the
// sequencer.
func NewJoiner(cfg Config, done func(error)) (*Endpoint, error) {
	ep, err := newEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	ep.st = stJoining
	ep.self = noMember
	if done != nil {
		ep.joinDone = append(ep.joinDone, done)
	}
	return ep, nil
}

// Start boots the endpoint's protocol activity: the creator orders its own
// join (so the stream begins with a membership event, exactly as later joins
// appear to existing members) and a joiner begins soliciting the sequencer.
// Call exactly once, after the transport delivers inbound packets to
// HandlePacket.
func (ep *Endpoint) Start() {
	ep.mu.Lock()
	switch {
	case ep.closed:
	case ep.isSeq && ep.globalSeq == ep.cfg.FirstSeq:
		ep.orderLocked(KindJoin, 0, 0, encodeView(ep.pending, ep.cfg.FirstSeq+1))
		ep.armSyncLocked()
	case ep.st == stJoining:
		ep.sendJoinReqLocked()
	}
	ep.mu.Unlock()
	ep.drain()
}

func newEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.Group == 0 || cfg.Self == 0 {
		return nil, errors.New("core: Group and Self addresses are required")
	}
	if cfg.Transport == nil || cfg.Clock == nil {
		return nil, errors.New("core: Transport and Clock are required")
	}
	cfg.applyDefaults()
	hist := newHistory(cfg.HistorySize)
	// Seed the sequence space: a creator reforming a group from a durable
	// log starts past the recovered history (a joiner re-bases at its join
	// regardless). Seqnos start at FirstSeq+1; the default is 1.
	hist.pruneTo(cfg.FirstSeq)
	ep := &Endpoint{
		cfg:         cfg,
		hist:        hist,
		bbCache:     make(map[bbKey][]byte),
		nextDeliver: cfg.FirstSeq + 1,
	}
	ep.selfFlushFn = ep.flushSelfOrders
	return ep, nil
}

// --- Locking and upcall discipline -----------------------------------------
//
// Handlers mutate state under ep.mu and enqueue side effects (transport
// sends, deliveries, call completions) as actions. Actions run outside the
// lock, in enqueue order, by a single drainer at a time; this keeps
// deliveries totally ordered while letting action code (including FLIP
// loopback, which re-enters HandlePacket synchronously) call back into the
// endpoint freely.

// action is one queued side effect. The effects every ordered message pays for
// — a packet out, a delivery up, a send completed — are plain data, so queueing
// them allocates nothing; everything rarer is a closure in fn.
type action struct {
	kind actionKind
	fn   func()       // actFunc
	dst  flip.Address // actSend
	pkt  []byte       // actSend, actMulticast: the encoded packet, a pooled buffer put back once sent
	d    Delivery     // actDeliver
	op   *sendOp      // actComplete: the finished request, whose dones are called
	err  error        // actComplete: with this
}

type actionKind uint8

const (
	actFunc      actionKind = iota // run fn
	actSend                        // unicast pkt to dst
	actMulticast                   // multicast pkt to the group
	actDeliver                     // hand d to Config.OnDeliver
	actComplete                    // report err to every done of op
)

// run performs the effect. Caller must NOT hold ep.mu.
func (ep *Endpoint) run(a *action) {
	switch a.kind {
	case actSend:
		_ = ep.cfg.Transport.Send(a.dst, a.pkt)
		bufpool.Put(a.pkt)
	case actMulticast:
		_ = ep.cfg.Transport.Multicast(a.pkt)
		bufpool.Put(a.pkt)
	case actDeliver:
		ep.cfg.OnDeliver(a.d)
	case actComplete:
		for _, done := range a.op.dones {
			done(a.err)
		}
	default:
		a.fn()
	}
}

// enqueue records a side effect for the cold paths. Caller holds ep.mu.
func (ep *Endpoint) enqueue(f func()) { ep.actions = append(ep.actions, action{fn: f}) }

// failSendQLocked fails every queued send — every payload of every op — and
// empties the queue.
func (ep *Endpoint) failSendQLocked(err error) {
	for _, op := range ep.sendQ {
		ep.actions = append(ep.actions, action{kind: actComplete, op: op, err: err})
	}
	ep.sendQ = nil
	ep.syncSendGaugesLocked()
}

// syncSendGaugesLocked reconciles the shared send-pipeline gauges with this
// endpoint's queue. The gauges are delta-updated — each endpoint pushes only
// the change since its last sync — so every group on a node can feed the same
// node-level gauge.
func (ep *Endpoint) syncSendGaugesLocked() {
	o := &ep.cfg.Obs
	if o.SendQueue == nil && o.SendWindow == nil {
		return
	}
	var queued, active int64
	for _, op := range ep.sendQ {
		queued += int64(len(op.payloads))
		if op.active {
			active++
		}
	}
	o.SendQueue.Add(queued - ep.obsQueued)
	o.SendWindow.Add(active - ep.obsActive)
	ep.obsQueued, ep.obsActive = queued, active
}

// maxKeptActions bounds the action arrays an endpoint keeps between drains: a
// batch this size covers a full send window's worth of effects, and the array
// a rare larger burst grew (a 16-message batch entry alone is 16 deliveries)
// goes back to the collector instead of sitting in every endpoint's live heap.
const maxKeptActions = 64

// drain runs queued actions. Caller must NOT hold ep.mu. The queue is two
// slices swapped batch by batch — handlers fill one while the drainer works
// through the other — so in steady state neither is reallocated.
func (ep *Endpoint) drain() {
	ep.mu.Lock()
	for {
		if ep.draining || len(ep.actions) == 0 {
			ep.mu.Unlock()
			return
		}
		ep.draining = true
		acts := ep.actions
		ep.actions, ep.ran = ep.ran, nil
		ep.mu.Unlock()
		for i := range acts {
			ep.run(&acts[i])
			acts[i] = action{} // the array lives on: let go of what it pointed at
		}
		ep.mu.Lock()
		if cap(acts) <= maxKeptActions {
			ep.ran = acts[:0]
		}
		ep.draining = false
	}
}

// after arms a timer whose callback runs under ep.mu followed by a drain.
func (ep *Endpoint) after(d time.Duration, fn func()) sim.Timer {
	return ep.cfg.Clock.AfterFunc(d, func() {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		fn()
		ep.mu.Unlock()
		ep.drain()
	})
}

// sendPkt enqueues a point-to-point packet send. Caller holds ep.mu.
func (ep *Endpoint) sendPkt(dst flip.Address, p packet) {
	p.view = ep.view.incarnation
	if stampsSender(p.typ) {
		p.sender = ep.self
	}
	p.lastRecv = ep.nextDeliver - 1
	ep.actions = append(ep.actions, action{kind: actSend, dst: dst, pkt: p.encode()})
}

// multicastPkt enqueues a group multicast. Caller holds ep.mu.
func (ep *Endpoint) multicastPkt(p packet) {
	p.view = ep.view.incarnation
	if stampsSender(p.typ) {
		p.sender = ep.self
	}
	p.lastRecv = ep.nextDeliver - 1
	ep.actions = append(ep.actions, action{kind: actMulticast, pkt: p.encode()})
}

// --- Application API --------------------------------------------------------

// Send submits payload for totally-ordered broadcast. done is invoked exactly
// once, after the send completes (for resilience 0, when the message has been
// sequenced; for resilience r, when r other members have stored it) or fails.
// Sends from one endpoint are sequenced FIFO. The endpoint keeps payload — it
// is transmitted, retransmitted and, on the sequencer, stored and delivered
// as it is — so the caller must never write it again.
func (ep *Endpoint) Send(payload []byte, done func(error)) {
	ep.SendMany([][]byte{payload}, []func(error){done})
}

// SendMany submits several payloads as one burst under a single lock
// acquisition: the payloads coalesce into multi-payload batch requests
// (Config.MaxBatch) before the send window starts transmitting, so a bulk
// submitter batches deterministically — including on the sequencer itself,
// whose deferred self-ordering otherwise only coalesces with sends that race
// the drain (see deferSelfOrderLocked). Each payload's done callback is
// invoked exactly once; dones may be shorter than payloads (missing entries
// are no-ops). Per-endpoint FIFO holds across the whole burst. Like Send, it
// takes ownership of every payload.
func (ep *Endpoint) SendMany(payloads [][]byte, dones []func(error)) {
	ep.mu.Lock()
	for i, payload := range payloads {
		var done func(error)
		if i < len(dones) {
			done = dones[i]
		}
		if done == nil {
			done = func(error) {}
		}
		if err := ep.queueSendLocked(payload, done); err != nil {
			ep.enqueue(func() { done(err) })
		}
	}
	ep.pumpSendLocked()
	ep.syncSendGaugesLocked()
	ep.mu.Unlock()
	ep.drain()
}

// queueSendLocked appends one payload to the send queue, coalescing it into
// the newest not-yet-transmitted PB op when possible: multi-payload requests
// keep localIDs contiguous (per-sender FIFO intact) while amortising the
// sequencer's per-request work across up to MaxBatch messages.
func (ep *Endpoint) queueSendLocked(payload []byte, done func(error)) error {
	if ep.closed || ep.st == stDead {
		return ErrNotMember
	}
	if len(payload) > ep.cfg.MaxMessage {
		return fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(payload), ep.cfg.MaxMessage)
	}
	ep.cfg.Meter.Charge(cost.UserSend, len(payload))
	ep.nextLocalID++
	method := ep.resolveMethod(len(payload))
	if n := len(ep.sendQ); n > 0 && method == MethodPB {
		last := ep.sendQ[n-1]
		if !last.sent && !last.active && last.method == MethodPB &&
			len(last.payloads) < ep.cfg.MaxBatch &&
			last.size+len(payload) <= ep.cfg.MaxMessage {
			last.payloads = append(last.payloads, payload)
			last.size += len(payload)
			last.dones = append(last.dones, done)
			return nil
		}
	}
	ep.sendQ = append(ep.sendQ, newSendOp(ep.nextLocalID, payload, method, done))
	return nil
}

// resolveMethod picks PB or BB for a payload. Resilience forces PB: the
// tentative/accept exchange is defined over the sequencer-relayed path
// (paper §3.1 describes it for PB; the BB variant is noted as possible but
// Amoeba used PB, as do we). Leases force PB for the same reason — every
// message must take the tentative path so acceptance can gate on lease
// holders' stored-acks.
func (ep *Endpoint) resolveMethod(size int) Method {
	if ep.cfg.Resilience > 0 || ep.cfg.leasesOn() {
		return MethodPB
	}
	switch ep.cfg.Method {
	case MethodPB:
		return MethodPB
	case MethodBB:
		return MethodBB
	default:
		if size >= ep.cfg.BBThreshold {
			return MethodBB
		}
		return MethodPB
	}
}

// Leave requests an ordered departure from the group. done is invoked once
// every member has observed the leave (or on failure).
func (ep *Endpoint) Leave(done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	ep.mu.Lock()
	if ep.closed || ep.st == stDead {
		ep.mu.Unlock()
		done(ErrNotMember)
		return
	}
	ep.leaveDone = append(ep.leaveDone, done)
	if len(ep.leaveDone) == 1 {
		ep.startLeaveLocked()
	}
	ep.mu.Unlock()
	ep.drain()
}

// Reset initiates recovery (the paper's ResetGroup): rebuild the group from
// reachable members, electing this endpoint as the new sequencer. minAlive is
// the minimum surviving membership required; recovery retries until it can
// assemble that many. done is invoked when a new view is installed.
func (ep *Endpoint) Reset(minAlive int, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	ep.mu.Lock()
	if ep.closed || ep.st == stDead || ep.st == stJoining {
		ep.mu.Unlock()
		done(ErrNotMember)
		return
	}
	ep.resetWaiters = append(ep.resetWaiters, done)
	ep.initiateResetLocked(minAlive)
	ep.mu.Unlock()
	ep.drain()
}

// Info returns a GetInfoGroup snapshot.
func (ep *Endpoint) Info() Info {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	v := ep.view.clone()
	return Info{
		Group:       ep.cfg.Group,
		Incarnation: v.incarnation,
		Self:        ep.self,
		Sequencer:   v.sequencer,
		IsSequencer: ep.isSeq,
		Members:     v.members,
		NextSeq:     ep.nextDeliver,
		Resilience:  ep.cfg.Resilience,
		State:       ep.st.String(),
	}
}

// Stats returns a snapshot of the endpoint's protocol counters.
func (ep *Endpoint) Stats() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.stats
}

// Close abandons the endpoint without protocol interaction (a crash, from
// the group's point of view). Pending calls fail with ErrClosed.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ep.st = stDead
	ep.stopTimersLocked()
	ep.flushFencedDonesLocked(nil) // these sends completed; only the ack was fenced
	ep.failSendQLocked(ErrClosed)
	for _, d := range ep.joinDone {
		d := d
		ep.enqueue(func() { d(ErrClosed) })
	}
	ep.joinDone = nil
	for _, d := range ep.leaveDone {
		d := d
		ep.enqueue(func() { d(ErrClosed) })
	}
	ep.leaveDone = nil
	for _, d := range ep.resetWaiters {
		d := d
		ep.enqueue(func() { d(ErrClosed) })
	}
	ep.resetWaiters = nil
	ep.mu.Unlock()
	ep.drain()
}

func (ep *Endpoint) stopTimersLocked() {
	for _, t := range []sim.Timer{ep.nakTimer, ep.sendTimer, ep.syncTimer,
		ep.tentTimer, ep.joinTimer, ep.fenceTimer} {
		if t != nil {
			t.Stop()
		}
	}
	ep.nakTimer, ep.sendTimer, ep.syncTimer, ep.tentTimer, ep.joinTimer, ep.fenceTimer = nil, nil, nil, nil, nil, nil
	ep.sendDeadline = 0
	for _, pr := range ep.statusProbe {
		if pr.timer != nil {
			pr.timer.Stop()
		}
	}
	ep.statusProbe = nil
	ep.parked = nil
	if ep.rec != nil {
		ep.rec.stopTimersLocked()
	}
}

// --- Packet dispatch ---------------------------------------------------------

// HandlePacket feeds one inbound FLIP message (unicast or group multicast)
// into the state machine. The hosting runtime calls this from its FLIP
// handlers.
func (ep *Endpoint) HandlePacket(m flip.Message) {
	p, err := decodePacket(m.Payload)
	if err != nil {
		return // garbled beyond the FLIP checksum: ignore
	}
	ep.mu.Lock()
	if ep.closed || ep.st == stDead {
		ep.mu.Unlock()
		return
	}
	switch p.typ {
	case ptBcast, ptAccept, ptTentative:
		// The sequencer hears these only as loopback of its own
		// relayed sends (network multicast excludes the sender); the
		// message is already sequenced and in history, so no group
		// input processing happens.
		if ep.isSeq {
			break
		}
		if p.typ == ptAccept {
			ep.cfg.Meter.Charge(cost.CtrlIn, 0)
		} else {
			ep.cfg.Meter.Charge(cost.GroupIn, 0)
		}
	case ptReq, ptBBData, ptRetrans:
		ep.cfg.Meter.Charge(cost.GroupIn, 0)
	default:
		ep.cfg.Meter.Charge(cost.CtrlIn, 0)
	}
	// Piggybacked acknowledgement state feeds the sequencer's pruning.
	if ep.isSeq && p.sender != noMember && carriesPiggyback(p.typ) {
		ep.noteLastRecvLocked(p.sender, p.lastRecv)
	}
	switch p.typ {
	// Sequencer side.
	case ptReq:
		ep.handleReq(p, m.Src)
	case ptAck:
		ep.handleAck(p)
	case ptNak:
		ep.handleNak(p, m.Src)
	case ptStatus:
		ep.handleStatus(p)
	case ptJoinReq:
		ep.handleJoinReq(p, m.Src)
	case ptLeaveReq:
		ep.handleLeaveReq(p, m.Src)
	// Member side.
	case ptBcast:
		ep.handleBcast(p, false)
	case ptRetrans:
		ep.handleBcast(p, true)
	case ptBBData:
		ep.handleBBData(p)
	case ptAccept:
		ep.handleAccept(p)
	case ptTentative:
		ep.handleTentative(p)
	case ptSync:
		ep.handleSync(p)
	case ptLost:
		ep.handleLost(p)
	case ptStatusReq:
		ep.handleStatusReq(p, m.Src)
	case ptJoinAck:
		ep.handleJoinAck(p)
	case ptStale:
		ep.handleStale(p)
	case ptHandoff:
		ep.handleHandoff(p)
	// Recovery.
	case ptResetInvite:
		ep.handleResetInvite(p, m.Src)
	case ptResetVote:
		ep.handleResetVote(p, m.Src)
	case ptResetFetch:
		ep.handleResetFetch(p, m.Src)
	case ptResetResult:
		ep.handleResetResult(p, m.Src)
	case ptResetAck:
		ep.handleResetAck(p, m.Src)
	}
	ep.mu.Unlock()
	ep.drain()
}

// DebugSnapshot renders the endpoint's ordering state for diagnostics: the
// protocol state, view, history bounds, and any tentative entries.
func (ep *Endpoint) DebugSnapshot() string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	var tent []uint32
	held := 0
	for s := ep.hist.floor + 1; s <= ep.maxSeen; s++ {
		e, ok := ep.hist.get(s)
		if !ok {
			continue
		}
		held++
		if e.tentative {
			tent = append(tent, s)
		}
	}
	active := 0
	for _, op := range ep.sendQ {
		if op.active {
			active++
		}
	}
	return fmt.Sprintf("st=%s inc=%d self=%d seq=%d isSeq=%v members=%d pending=%d floor=%d next=%d global=%d maxSeen=%d held=%d tentative=%v parked=%d window=%d/%d queued=%d batches=%d batchMsgs=%d maxBatch=%d",
		ep.st, ep.view.incarnation, ep.self, ep.view.sequencer, ep.isSeq,
		len(ep.view.members), len(ep.pending.members), ep.hist.floor,
		ep.nextDeliver, ep.globalSeq, ep.maxSeen, held, tent, len(ep.parked),
		active, ep.cfg.SendWindow, len(ep.sendQ),
		ep.stats.OrderedBatches, ep.stats.BatchedMsgs, ep.stats.MaxBatchMsgs)
}
