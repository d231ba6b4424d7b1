package core

import (
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/flip"
	"amoeba/internal/sim"
	"amoeba/obs"
)

// Obs is the endpoint's observability wiring: stage-latency histograms for
// the sequencer pipeline (history append, multicast, resilience-ack
// completion), occupancy gauges for the sender pipeline, and the flight
// recorder for protocol events. Every field is optional — a nil instrument
// is the no-op sink — so the zero Obs disables everything at the cost of
// nil checks.
type Obs struct {
	// Append observes the sequencer's receive→history-append latency per
	// ordered entry (amoeba_seq_append_ns).
	Append *obs.Histogram
	// Multicast observes receive→multicast-transmitted latency: the order
	// decision plus the deferred transport send (amoeba_seq_multicast_ns).
	Multicast *obs.Histogram
	// AckComplete observes order→resilience-acceptance latency for
	// tentative entries (amoeba_seq_ack_complete_ns).
	AckComplete *obs.Histogram
	// BatchFill observes the per-entry batch size in messages
	// (amoeba_seq_batch_fill).
	BatchFill *obs.Histogram
	// SendQueue tracks queued ordering requests (amoeba_send_queue_depth);
	// SendWindow tracks the in-flight subset (amoeba_send_window_active).
	// Both are delta-updated, so several endpoints can share them.
	SendQueue  *obs.Gauge
	SendWindow *obs.Gauge
	// Flight records protocol events (expulsions, NAKs, retransmissions,
	// recoveries) for postmortems.
	Flight *obs.Recorder
	// Tag scopes this endpoint's flight events, e.g. "core/<group>".
	Tag string
}

// Method selects the broadcast wire strategy.
type Method uint8

// Broadcast methods. MethodPB sends the payload point-to-point to the
// sequencer, which multicasts it: two network transits of the data, one
// interrupt per receiver. MethodBB multicasts the payload directly and the
// sequencer multicasts a short accept: one transit of the data, two
// interrupts per receiver. MethodAuto switches on message size, as the
// Amoeba implementation does: small messages use PB (bandwidth is cheap,
// interrupts are not), large messages use BB (halving the bandwidth
// dominates).
const (
	MethodAuto Method = iota
	MethodPB
	MethodBB
)

func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodPB:
		return "PB"
	case MethodBB:
		return "BB"
	default:
		return "method(?)"
	}
}

// Transport is the sending half of the endpoint's world: point-to-point and
// group multicast FLIP service. Delivery of inbound packets happens through
// Endpoint.HandlePacket. Both directions follow the ownership rule of
// netw.Frame.Payload: Send and Multicast only borrow payload — it is a pooled
// encode buffer, recycled the moment the call returns, so an implementation
// that queues it copies — and HandlePacket only borrows its message, copying
// what it keeps (once, into the history entry).
type Transport interface {
	// Send transmits a group-protocol packet to the process address dst.
	Send(dst flip.Address, payload []byte) error
	// Multicast transmits a group-protocol packet to every group member,
	// including the local one (loopback).
	Multicast(payload []byte) error
}

// Delivery is one totally-ordered message handed to the application.
// Deliveries arrive in strictly increasing Seq order, identically at every
// member of the group.
type Delivery struct {
	// Kind is KindData for application messages or a membership event.
	Kind MsgKind
	// Seq is the global sequence number.
	Seq uint32
	// Sender is the member that sent the message (for membership events,
	// the member that joined or left).
	Sender MemberID
	// SenderAddr is the FLIP address of the sender.
	SenderAddr flip.Address
	// Payload is the application data (KindData only). It is read-only and
	// may be kept: a single message's payload is the history entry's own
	// bytes, shared with the retransmission path and never recycled. (Only
	// what is being transported is lent — netw.Frame.Payload; what has
	// been ordered has an owner for life.)
	Payload []byte
	// Members is the group size after applying this event.
	Members int
}

// Info is a GetInfoGroup snapshot.
type Info struct {
	// Group is the group's FLIP address.
	Group flip.Address
	// Incarnation counts recoveries survived.
	Incarnation uint32
	// Self is this endpoint's member id.
	Self MemberID
	// Sequencer is the current sequencer's member id.
	Sequencer MemberID
	// IsSequencer reports whether this endpoint sequences the group.
	IsSequencer bool
	// Members lists the current membership sorted by id.
	Members []Member
	// NextSeq is the next sequence number this endpoint expects to
	// deliver.
	NextSeq uint32
	// Resilience is the group's configured resilience degree.
	Resilience int
	// State names the endpoint's protocol state: "joining", "normal",
	// "recovering" (frozen, voted in a recovery), "coordinating" (running
	// a recovery), or "dead".
	State string
}

// Config assembles an Endpoint. Group, Self, Transport, and Clock are
// required; zero timeouts take the defaults noted on each field.
type Config struct {
	// Group is the group's FLIP address.
	Group flip.Address
	// Self is this member's FLIP process address.
	Self flip.Address
	// Transport sends packets; inbound packets must be fed to
	// Endpoint.HandlePacket.
	Transport Transport
	// Clock drives every protocol timer.
	Clock sim.Clock
	// Meter accounts per-layer processing; nil disables accounting.
	Meter cost.Meter

	// Resilience is the group's resilience degree r: SendToGroup does not
	// complete until r other members have stored the message, and any r
	// member crashes lose no completed message.
	Resilience int
	// Method selects PB, BB, or automatic switching.
	Method Method
	// BBThreshold is the payload size at or above which MethodAuto uses
	// BB. Default 1024 bytes.
	BBThreshold int
	// HistorySize bounds the history buffer. Default 128, as in the
	// paper's experiments. A full buffer costs a sender one status round
	// trip, not a retry: the sequencer parks what it cannot order and
	// replays it when the members' reports free room.
	HistorySize int
	// MaxMessage bounds application payloads. Default 64 KiB (the paper
	// measures up to 8000 bytes but the protocol handles more).
	MaxMessage int
	// SendWindow is the number of ordering requests one member keeps in
	// flight (per-sender pipelining). Sends beyond the window coalesce
	// into multi-payload batch requests (PB method only), amortising the
	// sequencer's per-request processing — the paper's conclusion 1
	// (processing-bound, not protocol-bound) turned into a knob.
	// Per-sender FIFO is preserved: localIDs stay contiguous and the
	// sequencer refuses to order a request out of localID order. 1
	// restores the seed's one-request-at-a-time behaviour. Default 4.
	SendWindow int
	// MaxBatch bounds the payloads coalesced into one batch request.
	// Default 16, capped at HistorySize; 1 disables coalescing (batches
	// also stay within MaxMessage bytes of payload regardless of count).
	MaxBatch int
	// FirstSeq seeds a creator's sequence space: the new group's first
	// entry is ordered at FirstSeq+1, as if FirstSeq messages had already
	// been delivered. A process reforming a group from a durable log sets
	// it to the highest recovered sequence number, so the re-created
	// group's history continues the recovered timeline instead of reusing
	// numbers the log already binds to old entries. Zero (the default)
	// starts at 1, as always; joiners ignore it.
	FirstSeq uint32

	// RetryInterval spaces sender retransmissions of unacknowledged
	// requests and joins. It is a loss-recovery timer only: on a network
	// that drops nothing it never fires (a full history parks requests at
	// the sequencer instead of dropping them). Default 50 ms.
	RetryInterval time.Duration
	// MaxRetries bounds request retransmissions before the sequencer is
	// suspected dead. Default 10.
	MaxRetries int
	// NakDelay is how long a member waits after detecting a sequence gap
	// before sending a retransmission request, allowing in-flight packets
	// to settle. Default 2 ms.
	NakDelay time.Duration
	// SyncInterval is the idle sequencer's watermark multicast period,
	// letting members discover missed trailing messages. Default 500 ms.
	SyncInterval time.Duration
	// StatusTimeout bounds a member's response to a status request before
	// the sequencer suspects it dead. Default 100 ms.
	StatusTimeout time.Duration
	// StatusRetries is how many unanswered status requests (the paper's
	// "certain number of trials") declare a member dead. Default 3.
	StatusRetries int
	// IdleProbeTicks is the number of consecutive idle sync ticks a
	// member may lag the sequencer's delivery point before it is probed.
	// Without it a dead member is only discovered under traffic (send
	// retries, history pressure, a stalled tentative) — a corpse in an
	// idle group would sit in the view forever. A live idle member
	// answers the probe (its piggybacked acknowledgement clears the lag);
	// a dead one escalates through the status-probe failure detector and
	// is expelled (AutoReset) or surfaced to the application's Reset.
	// Default 2 (≈ one second at the default SyncInterval); negative
	// disables the probe.
	IdleProbeTicks int
	// ResetTimeout bounds each wait during recovery (votes, fetches,
	// acks) before retrying or declaring non-responders dead. Default
	// 100 ms.
	ResetTimeout time.Duration
	// ResetRetries bounds invite/result retransmissions per recovery
	// round. Default 3.
	ResetRetries int
	// AutoReset makes the endpoint start recovery on its own when it
	// suspects the sequencer has failed (send retries exhausted). When
	// false, suspicion is surfaced as ErrSequencerDead and the
	// application decides whether to call Reset — the paper's
	// "user-requested" recovery.
	AutoReset bool
	// MinSurvivors is the quorum recovery requires before installing a
	// new view; recovery retries until it can gather this many members.
	// Default 1.
	MinSurvivors int

	// LeaseDur > 0 enables sequencer-granted read leases: grants ride the
	// sync ticks, every message takes the tentative/accept path, and
	// acceptance waits for every live lease holder's stored-ack — so a
	// holder with a valid lease serves linearizable reads from local state
	// (see lease.go and Endpoint.Lease). Failover pauses the group for up
	// to LeaseDur+LeaseGuard while old grants expire, so keep LeaseDur
	// moderate (≥ 8×SyncInterval recommended for renewal headroom, and as
	// small as the availability budget allows). Zero (the default)
	// disables leases entirely.
	LeaseDur time.Duration
	// LeaseGuard is the lease safety margin: holders deduct it from the
	// granted duration, granters add it to their own bookkeeping, and it
	// bounds the silence window after which granting is suspended. It
	// absorbs grant transit delay and timer skew between endpoints.
	// Default max(2.5×SyncInterval, LeaseDur/8), capped at LeaseDur/2.
	LeaseGuard time.Duration

	// OnDeliver receives ordered messages. Called strictly in Seq order,
	// never concurrently, and never while internal locks are held (the
	// handler may call back into the endpoint).
	OnDeliver func(Delivery)

	// Obs wires the endpoint into a node's observability hub; the zero
	// value is the no-op sink.
	Obs Obs
}

func (c *Config) applyDefaults() {
	if c.Meter == nil {
		c.Meter = cost.NopMeter{}
	}
	if c.BBThreshold <= 0 {
		c.BBThreshold = 1024
	}
	if c.HistorySize <= 0 {
		c.HistorySize = 128
	}
	if c.MaxMessage <= 0 {
		c.MaxMessage = 64 << 10
	}
	if c.SendWindow <= 0 {
		c.SendWindow = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatch > c.HistorySize {
		// A batch takes one history slot per message: one larger than the
		// whole buffer could never be ordered, only parked for good.
		c.MaxBatch = c.HistorySize
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 50 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	if c.NakDelay <= 0 {
		c.NakDelay = 2 * time.Millisecond
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 500 * time.Millisecond
	}
	if c.StatusTimeout <= 0 {
		c.StatusTimeout = 100 * time.Millisecond
	}
	if c.StatusRetries <= 0 {
		c.StatusRetries = 3
	}
	if c.IdleProbeTicks == 0 {
		c.IdleProbeTicks = 2
	}
	if c.ResetTimeout <= 0 {
		c.ResetTimeout = 100 * time.Millisecond
	}
	if c.ResetRetries <= 0 {
		c.ResetRetries = 3
	}
	if c.MinSurvivors <= 0 {
		c.MinSurvivors = 1
	}
	if c.LeaseDur > 0 && c.LeaseGuard <= 0 {
		g := 5 * c.SyncInterval / 2
		if g < c.LeaseDur/8 {
			g = c.LeaseDur / 8
		}
		if g > c.LeaseDur/2 {
			g = c.LeaseDur / 2
		}
		c.LeaseGuard = g
	}
}
