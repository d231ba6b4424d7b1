package amoeba

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/flip"
	"amoeba/internal/netw"
	"amoeba/internal/sim"
	"amoeba/obs"
)

// Kernel is one machine's communication endpoint: a FLIP protocol stack over
// a network attachment, hosting group memberships and RPC endpoints — the
// role the Amoeba kernel plays in the paper's Table 2 layering.
type Kernel struct {
	name     string
	station  netw.Station // the link attachment, for network-level fault control
	stack    *flip.Stack
	clock    sim.Clock
	obsUnreg func() // detaches the FLIP stats source from the hub registry
}

// NewKernel attaches a kernel to the network. The name is used only in
// diagnostics.
func (n *MemoryNetwork) NewKernel(name string) (*Kernel, error) {
	station, err := n.net.Attach(name)
	if err != nil {
		return nil, fmt.Errorf("amoeba: attaching kernel %q: %w", name, err)
	}
	return newKernel(name, station), nil
}

// newKernel builds a kernel over any link attachment.
func newKernel(name string, station netw.Station) *Kernel {
	clock := sim.NewRealClock()
	return &Kernel{
		name:    name,
		station: station,
		stack: flip.NewStack(flip.Config{
			Station: station,
			Clock:   clock,
		}),
		clock: clock,
	}
}

// Close shuts the kernel down. Groups hosted on it stop communicating — the
// machine has, from the network's point of view, crashed.
func (k *Kernel) Close() {
	k.stack.Close()
	if k.obsUnreg != nil {
		k.obsUnreg()
	}
}

// RegisterObs exposes this kernel's FLIP stack counters through the hub's
// registry as amoeba_flip_*_total series. Counters keep living in the stack;
// the registry pulls a snapshot at render time, and several kernels sharing
// one hub sum. Safe with a nil hub (no-op); Close detaches the source.
func (k *Kernel) RegisterObs(hub *obs.Hub) {
	stack := k.stack
	k.obsUnreg = hub.Registry().RegisterSource(func() []obs.Sample {
		s := stack.Stats()
		return []obs.Sample{
			{Name: "amoeba_flip_packets_out_total", Value: s.PacketsOut},
			{Name: "amoeba_flip_packets_in_total", Value: s.PacketsIn},
			{Name: "amoeba_flip_garbled_total", Value: s.Garbled},
			{Name: "amoeba_flip_messages_delivered_total", Value: s.MessagesDelivered},
			{Name: "amoeba_flip_locates_sent_total", Value: s.LocatesSent},
			{Name: "amoeba_flip_locate_failures_total", Value: s.LocateFailures},
			{Name: "amoeba_flip_reassembly_drops_total", Value: s.ReassemblyDrops},
			{Name: "amoeba_flip_no_handler_total", Value: s.NoHandler},
		}
	})
}

// Method selects the group broadcast strategy; see the paper's §3.1.
type Method int

// Broadcast methods. MethodAuto (the default, and what Amoeba implements)
// switches per message: small payloads go point-to-point to the sequencer
// which multicasts them (PB — two transits of the data, one interrupt per
// receiver), large payloads are multicast by the sender and sequenced with a
// short accept (BB — one transit, two interrupts per receiver).
const (
	MethodAuto Method = iota
	MethodPB
	MethodBB
)

// GroupOptions configures a group membership. The zero value is a sensible
// default: resilience 0, automatic PB/BB switching. The protocol's other
// parameters keep the paper's values: a 128-message history, 64 KiB
// messages, four ordering requests in flight per member and up to 16
// payloads coalesced into one batch request.
type GroupOptions struct {
	// Resilience is the fault-tolerance degree r: Send returns only after
	// r other members have stored the message, and any r crashes lose no
	// completed send. 0 (the default) maximises performance; the paper's
	// replicated servers ran small groups with small r, its parallel
	// applications with r = 0.
	Resilience int
	// Method forces PB or BB; MethodAuto uses BB from 1024 bytes up.
	Method Method
	// FirstSeq seeds a created group's sequence space: the first entry is
	// ordered at FirstSeq+1, as if FirstSeq messages had already been
	// delivered. A process reforming a group from a durable log (see the
	// shared package's Durability) sets it to the highest recovered
	// sequence number so the new history continues the recovered timeline.
	// Zero starts at 1 as always; JoinGroup ignores it.
	FirstSeq uint32
	// AutoReset makes the group rebuild itself when a member or the
	// sequencer is suspected dead. When false (default, matching
	// Amoeba), the application decides by calling Reset.
	AutoReset bool
	// MinSurvivors is the quorum automatic recovery requires
	// (default 1). 1 favours availability: any member that suspects the
	// sequencer can reform the group alone. Under a network partition
	// that also loses the sequencer this lets BOTH sides reform —
	// divergent total orders (split brain), demonstrated by the fuzz
	// harness's pinned regression schedule. Deployments that must stay
	// consistent across partitions should set a majority of the
	// replication factor; the fuzz harness defaults to that.
	MinSurvivors int
	// LeaseDur, when > 0, enables sequencer-granted read leases: grants
	// ride the periodic sync ticks and a member holding an unexpired lease
	// serves linearizable reads from local state (Group.Lease). The price
	// is on the write path — every send takes the tentative/accept path
	// and acceptance waits for each live lease holder's stored-ack — and
	// on failover, which pauses the group while old grants expire: up to
	// LeaseDur plus a safety margin of max(2.5×SyncInterval, LeaseDur/8),
	// capped at LeaseDur/2. Keep it ≥ 8×SyncInterval for renewal headroom.
	// Zero (the default) disables leases.
	LeaseDur time.Duration
	// SyncInterval is the sequencer's watermark/lease-renewal tick period
	// (default 500ms; lease deployments typically lower it).
	SyncInterval time.Duration
	// Obs, when non-nil, wires the group's pipeline into the node's
	// observability hub: sequencer stage-latency histograms, delivery-queue
	// wait times, queue-depth gauges, and the flight recorder. Nil (the
	// default) is the no-op sink — instrumentation stays compiled in but
	// costs only nil checks. Several groups on one node normally share one
	// hub; gauges are delta-updated so the shared values stay coherent.
	Obs *obs.Hub
}

func (o GroupOptions) coreConfig() core.Config {
	return core.Config{
		Resilience:   o.Resilience,
		Method:       core.Method(o.Method),
		FirstSeq:     o.FirstSeq,
		AutoReset:    o.AutoReset,
		MinSurvivors: o.MinSurvivors,
		LeaseDur:     o.LeaseDur,
		SyncInterval: o.SyncInterval,
	}
}

// CreateGroup creates the named group with this kernel's process as its
// first member and sequencer. Creating a group that other processes have
// already created is not detected (atomic group creation is impossible with
// unreliable communication; the paper's §5 reports the same limitation) —
// coordinate creation or use JoinGroup with a retry-then-create pattern.
func (k *Kernel) CreateGroup(ctx context.Context, name string, opts GroupOptions) (*Group, error) {
	g, cfg := k.newGroup(name, opts)
	ep, err := core.NewCreator(cfg)
	if err != nil {
		return nil, fmt.Errorf("amoeba: creating group %q: %w", name, err)
	}
	g.ep = ep
	g.registerStatsSource(opts.Obs)
	g.tr.Bind(ep)
	ep.Start()
	return g, nil
}

// JoinGroup joins the named group, blocking until the join is totally
// ordered and acknowledged by the sequencer. It fails with ErrNoGroup if no
// sequencer answers.
func (k *Kernel) JoinGroup(ctx context.Context, name string, opts GroupOptions) (*Group, error) {
	g, cfg := k.newGroup(name, opts)
	done := make(chan error, 1)
	ep, err := core.NewJoiner(cfg, func(e error) { done <- e })
	if err != nil {
		return nil, fmt.Errorf("amoeba: joining group %q: %w", name, err)
	}
	g.ep = ep
	g.registerStatsSource(opts.Obs)
	g.tr.Bind(ep)
	ep.Start()
	select {
	case err := <-done:
		if err != nil {
			g.tr.Unbind()
			if errors.Is(err, core.ErrJoinFailed) {
				return nil, fmt.Errorf("amoeba: joining group %q: %w", name, ErrNoGroup)
			}
			return nil, fmt.Errorf("amoeba: joining group %q: %w", name, err)
		}
		return g, nil
	case <-ctx.Done():
		ep.Close()
		g.tr.Unbind()
		return nil, ctx.Err()
	}
}

func (k *Kernel) newGroup(name string, opts GroupOptions) (*Group, core.Config) {
	groupAddr := flip.AddressForName(name)
	self := k.stack.AllocAddress()
	g := &Group{
		kernel: k,
		name:   name,
		tr:     core.NewFLIPTransport(k.stack, self, groupAddr),
		queue:  newDeliveryQueue(),
	}
	cfg := opts.coreConfig()
	cfg.Group = groupAddr
	cfg.Self = self
	cfg.Transport = g.tr
	cfg.Clock = k.clock
	cfg.OnDeliver = g.queue.push
	if hub := opts.Obs; hub != nil {
		cfg.Obs = core.Obs{
			Append:      hub.Histogram("amoeba_seq_append_ns"),
			Multicast:   hub.Histogram("amoeba_seq_multicast_ns"),
			AckComplete: hub.Histogram("amoeba_seq_ack_complete_ns"),
			BatchFill:   hub.Histogram("amoeba_seq_batch_fill"),
			SendQueue:   hub.Gauge("amoeba_send_queue_depth"),
			SendWindow:  hub.Gauge("amoeba_send_window_active"),
			Flight:      hub.Flight(),
			Tag:         "core/" + name,
		}
		g.queue.waitH = hub.Histogram("amoeba_group_deliver_wait_ns")
		g.queue.depth = hub.Gauge("amoeba_group_queue_depth")
	}
	return g, cfg
}

// Sentinel errors returned by the public API.
var (
	// ErrNoGroup reports a join with no live sequencer for the name.
	ErrNoGroup = errors.New("amoeba: no such group")
	// ErrNotMember reports an operation on a group this process has left
	// or been expelled from.
	ErrNotMember = core.ErrNotMember
	// ErrSequencerDead reports exhausted retries against an unresponsive
	// sequencer; call Reset (or set GroupOptions.AutoReset).
	ErrSequencerDead = core.ErrSequencerDead
)

// waiter is one blocking call's completion: the channel the caller sleeps on
// and the callback that feeds it, allocated together and recycled.
type waiter struct {
	ch   chan error
	done func(error) // sends to ch; bound once, when the waiter is made
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{ch: make(chan error, 1)}
	w.done = func(e error) { w.ch <- e }
	return w
}}

// waitCtx adapts a callback completion to ctx cancellation.
func waitCtx(ctx context.Context, start func(func(error))) error {
	w := waiters.Get().(*waiter)
	start(w.done)
	select {
	case err := <-w.ch:
		// The callback has fired — it fires once — so nothing references w
		// any more. This is the only path that recycles it.
		waiters.Put(w)
		return err
	case <-ctx.Done():
		// The protocol operation continues in the background; only the
		// wait is abandoned — and w with it, since its callback is still
		// owed a call and must not land in a later call's channel.
		return ctx.Err()
	}
}
