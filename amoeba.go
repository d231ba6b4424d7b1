// Package amoeba is a Go implementation of the Amoeba group communication
// system (Kaashoek & Tanenbaum, "An Evaluation of the Amoeba Group
// Communication System", ICDCS 1996): reliable, totally-ordered group
// multicast built on a per-group sequencer with negative acknowledgements
// and user-selectable fault tolerance.
//
// # Model
//
// A Kernel is the Amoeba kernel's communication stand-in: one per machine
// (or per process in a single-machine deployment), attached to a Network.
// Processes create or join named groups through their kernel and then
// exchange messages with the paper's Table 1 primitives:
//
//	Paper primitive    This API
//	CreateGroup        Kernel.CreateGroup
//	JoinGroup          Kernel.JoinGroup
//	LeaveGroup         Group.Leave
//	SendToGroup        Group.Send
//	ReceiveFromGroup   Group.Receive
//	ResetGroup         Group.Reset
//	GetInfoGroup       Group.Info
//	ForwardRequest     RPCServer handler returning a forward address —
//	                   see the kv package's shard proxy (kv.Service), which
//	                   answers misrouted requests by forwarding them to an
//	                   owning node, the reply returning from wherever the
//	                   request lands
//	(message history)  Amoeba's history is in-memory only: resilience r
//	                   survives r crashes, never a whole-cluster restart.
//	                   The wal package extends it to disk — shared.Open
//	                   journals each replica's delivered entries, and a
//	                   cold start reforms the group from the longest
//	                   surviving log, seeded via GroupOptions.FirstSeq
//	(groups under      The paper's applications added groups as load
//	 load)             grew, by hand. The kv package's routing-epoch
//	                   protocol makes that a first-class operation:
//	                   kv.Store.Resharding splits or merges a live
//	                   store's shard groups — an epoch-versioned routing
//	                   table replicated in every shard's state machine,
//	                   changed only by sequenced migrate-begin/chunk/
//	                   commit commands, so the handoff is exactly-once
//	                   and (with the wal) crash-resumable
//	(cross-group       The paper's groups are independent orders; Amoeba
//	 atomicity)        offered nothing atomic across them. The kv package
//	                   builds it from the primitives above: kv.Client.Txn
//	                   runs sequenced two-phase commit where prepare and
//	                   resolve records ride each participant shard's total
//	                   order (and WAL), the home shard's order arbitrates
//	                   the outcome, and recovery re-answers decisions from
//	                   the journaled portions — atomic multi-key commits
//	                   and consistent snapshots (kv.Client.MGet) across
//	                   shard groups, exactly-once under retry
//	(read leases)      The paper's reads either ride the total order (one
//	                   sequenced round per read) or accept unbounded
//	                   staleness. GroupOptions.LeaseDur adds a third
//	                   point: the sequencer piggybacks read leases on the
//	                   sync ticks it already sends, write acceptance waits
//	                   for every unexpired lease holder's stored-ack, and
//	                   a failed-over sequencer fences new writes for a
//	                   full lease term — so a lease-holding member reads
//	                   its own replica linearizably with no protocol round
//	                   at all (Group.Lease, shared.Replica.LeaseRead; the
//	                   kv package serves Get from it, and kv.Client.
//	                   StaleGet opts into bounded staleness via
//	                   Group.FreshAt when no lease is held)
//	(measurement)      The paper's evaluation decomposed protocol cost per
//	                   stage (request → sequencer → multicast → delivery)
//	                   with offline instrumentation. GroupOptions.Obs wires
//	                   the same decomposition in as a live facility: the
//	                   obs package's stage-latency histograms, cross-node
//	                   op traces keyed by command ids, and a flight
//	                   recorder of recent protocol events, exported as
//	                   Prometheus text by cmd/amoeba-kv's -metrics-addr
//	(state audit)      The total order gives every replica an identical
//	                   view of where it stands — so the kv package audits
//	                   with it: a periodic sequenced audit command
//	                   (kv.Options.AuditEvery) makes every replica digest
//	                   its state machine at the same seq; a per-node
//	                   auditor (obs.Auditor) compares digests across
//	                   replicas, localizes any mismatch to (shard, seq,
//	                   key-range), and rolls per-replica apply-lag and
//	                   staleness into the /health verdict cmd/amoeba-kv
//	                   serves; WAL checkpoints carry the same digest so
//	                   recovery refuses silently-rotted state
//
// All primitives are blocking, as in Amoeba; obtain concurrency by calling
// them from multiple goroutines (the paper's "parallelism through
// multithreading"). Every member of a group observes the same totally
// ordered stream of messages and membership events: if one process sends
// while another joins, either everyone sees the join first or everyone sees
// the message first.
//
// # Fault tolerance
//
// Groups are created with a resilience degree r (GroupOptions.Resilience).
// A Send does not return until the message is sequenced and — for r > 0 —
// stored by r other members, so any r simultaneous crashes lose no completed
// send. After a failure the group is rebuilt with Group.Reset (or
// automatically, with GroupOptions.AutoReset); survivors agree on the full
// message sequence. With r = 0, messages held only by a crashed sequencer
// may be lost, exactly as the paper specifies.
//
// # Quickstart
//
//	net := amoeba.NewMemoryNetwork()
//	defer net.Close()
//
//	k1, _ := net.NewKernel("machine-1")
//	k2, _ := net.NewKernel("machine-2")
//
//	g1, _ := k1.CreateGroup(ctx, "workers", amoeba.GroupOptions{})
//	g2, _ := k2.JoinGroup(ctx, "workers", amoeba.GroupOptions{})
//
//	go g1.Send(ctx, []byte("hello, group"))
//	msg, _ := g2.Receive(ctx)       // totally ordered at every member
package amoeba

import (
	"fmt"

	"amoeba/internal/netw/memnet"
	"amoeba/internal/netw/udpnet"
)

// MemoryNetworkConfig tunes the in-memory network's fault injection; the
// zero value is a reliable network.
type MemoryNetworkConfig struct {
	// DropRate is the probability in [0,1) that a frame is lost.
	DropRate float64
	// DupRate is the probability that a frame is duplicated.
	DupRate float64
	// ReorderRate is the probability that a frame is held back and
	// delivered after the next frame bound for the same station.
	ReorderRate float64
	// CorruptRate is the probability that a frame is corrupted in
	// transit (detected and discarded by the FLIP checksum).
	CorruptRate float64
	// Seed makes fault injection reproducible: every fault decision is
	// drawn from one source seeded here, so a fixed seed and a fixed
	// traffic sequence produce identical faults.
	Seed int64
}

// MemoryNetwork is an in-process network fabric: kernels attached to it
// exchange frames through channels, with per-receiver FIFO delivery and
// optional fault injection. It plays the role of the paper's 10 Mbit/s
// Ethernet for tests, examples, and native benchmarks. (The calibrated
// performance model of that Ethernet lives in the experiment harness; see
// cmd/amoeba-bench.)
type MemoryNetwork struct {
	net *memnet.Network
}

// NewMemoryNetwork returns a reliable in-memory network.
func NewMemoryNetwork() *MemoryNetwork {
	return NewMemoryNetworkWithFaults(MemoryNetworkConfig{})
}

// NewMemoryNetworkWithFaults returns an in-memory network with fault
// injection, for exercising the protocol's recovery paths.
func NewMemoryNetworkWithFaults(cfg MemoryNetworkConfig) *MemoryNetwork {
	return &MemoryNetwork{net: memnet.New(memnet.Config{
		DropRate:      cfg.DropRate,
		DuplicateRate: cfg.DupRate,
		ReorderRate:   cfg.ReorderRate,
		CorruptRate:   cfg.CorruptRate,
		Seed:          cfg.Seed,
	})}
}

// Close shuts down the network and every kernel attached to it.
func (n *MemoryNetwork) Close() { n.net.Close() }

// SetDropRate changes the frame-loss probability at runtime — a schedulable
// fault for adversarial tests (see the fuzz package).
func (n *MemoryNetwork) SetDropRate(p float64) { n.net.SetDropRate(p) }

// SetDuplicateRate changes the frame-duplication probability at runtime.
func (n *MemoryNetwork) SetDuplicateRate(p float64) { n.net.SetDuplicateRate(p) }

// SetReorderRate changes the frame-reordering probability at runtime.
func (n *MemoryNetwork) SetReorderRate(p float64) { n.net.SetReorderRate(p) }

// Partition cuts the link between two kernels: frames between them, either
// direction, are silently dropped until Heal. Both keep talking to everyone
// else — the split-brain pattern that drives conflicting failure suspicions.
func (n *MemoryNetwork) Partition(a, b *Kernel) {
	if a == nil || b == nil || a.station == nil || b.station == nil {
		return
	}
	n.net.Partition(a.station.ID(), b.station.ID())
}

// Heal removes every pairwise partition installed by Partition.
func (n *MemoryNetwork) Heal() { n.net.Heal() }

// UDPNetwork is a network fabric over real UDP sockets on the loopback
// interface: kernels exchange genuine datagrams, with the loss, duplication,
// and reordering that real networks provide. Use it to exercise the full
// stack under an operating-system network; for cross-process or cross-host
// deployments, see internal/netw/udpnet's static-peer configuration.
type UDPNetwork struct {
	net *udpnet.Network
}

// NewUDPNetwork returns a UDP network on the loopback interface.
func NewUDPNetwork() *UDPNetwork {
	return &UDPNetwork{net: udpnet.New()}
}

// NewKernel attaches a kernel on its own UDP socket.
func (n *UDPNetwork) NewKernel(name string) (*Kernel, error) {
	station, err := n.net.Attach(name)
	if err != nil {
		return nil, fmt.Errorf("amoeba: attaching UDP kernel %q: %w", name, err)
	}
	return newKernel(station), nil
}

// Close shuts down every kernel's socket.
func (n *UDPNetwork) Close() { n.net.Close() }
