package shared

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"amoeba"
	"amoeba/wal"
)

// counter is the durable tests' state machine: every command increments it,
// so the recovered value counts exactly the commands that survived.
type counter struct {
	value int
}

func newCounter() *counter { return &counter{} }

func (c *counter) Apply([]byte) { c.value++ }

func (c *counter) Snapshot() ([]byte, error) {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(c.value))
	return out, nil
}

func (c *counter) Restore(snap []byte) error {
	if len(snap) < 8 {
		return fmt.Errorf("short counter snapshot")
	}
	c.value = int(binary.BigEndian.Uint64(snap))
	return nil
}

func openT(t *testing.T, k *amoeba.Kernel, name string, dur Durability) *Replica {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := Open(ctx, k, name, newCounter(), amoeba.GroupOptions{}, dur)
	if err != nil {
		t.Fatalf("Open rank %d: %v", dur.Rank, err)
	}
	return r
}

// submitAndSettle pushes n increments through r and waits for them locally.
func submitAndSettle(t *testing.T, r *Replica, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var before int
	r.Read(func(sm StateMachine) { before = sm.(*counter).value })
	for i := 0; i < n; i++ {
		if err := r.Submit(ctx, []byte{1}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := r.Wait(ctx, func(sm StateMachine) bool {
		return sm.(*counter).value >= before+n
	}); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func counterValue(r *Replica) int {
	var v int
	r.Read(func(sm StateMachine) { v = sm.(*counter).value })
	return v
}

// TestDurableSoloRestart: one durable replica, killed and cold-restarted —
// state must come back from the log with no other member to transfer from.
func TestDurableSoloRestart(t *testing.T) {
	dir := t.TempDir()
	dur := Durability{Dir: filepath.Join(dir, "r0"), Peers: 1, Bootstrap: true}

	net := amoeba.NewMemoryNetwork()
	k, err := net.NewKernel("solo")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	r := openT(t, k, "durable-solo", dur)
	submitAndSettle(t, r, 25)
	applied := r.Applied()
	st := r.DurabilityStats()
	if !st.Enabled || st.Log.Entries != 25 {
		t.Fatalf("durability stats = %+v, want 25 journaled entries", st)
	}
	r.Close() // crash: no leave, no goodbye
	net.Close()

	// Cold restart on a fresh network: nothing to join, only the log.
	net2 := amoeba.NewMemoryNetwork()
	defer net2.Close()
	k2, err := net2.NewKernel("solo-reborn")
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	r2 := openT(t, k2, "durable-solo", dur)
	defer r2.Close()
	if got := counterValue(r2); got != 25 {
		t.Fatalf("recovered counter = %d, want 25", got)
	}
	// The reformed sequence space continues past the recovered history.
	if r2.Applied() < applied {
		t.Fatalf("recovered Applied = %d, want >= %d", r2.Applied(), applied)
	}
	// And the replica still works.
	submitAndSettle(t, r2, 5)
	if got := counterValue(r2); got != 30 {
		t.Fatalf("counter after restart writes = %d, want 30", got)
	}
}

// TestDurableColdStartHighestSeqWins: a whole-cluster restart where the
// members' logs end at different points. The member with the longest log
// must win the election and re-create the group; the shorter one must join
// and state-transfer up to the longer history.
func TestDurableColdStartHighestSeqWins(t *testing.T) {
	dir := t.TempDir()
	durs := []Durability{
		{Dir: filepath.Join(dir, "r0"), Rank: 0, Peers: 2, Bootstrap: true},
		{Dir: filepath.Join(dir, "r1"), Rank: 1, Peers: 2, Bootstrap: true},
	}

	net := amoeba.NewMemoryNetwork()
	k0, _ := net.NewKernel("n0")
	k1, _ := net.NewKernel("n1")
	r0 := openT(t, k0, "durable-pair", durs[0])
	joined := make(chan *Replica, 1)
	go func() { joined <- openT(t, k1, "durable-pair", durs[1]) }()
	r1 := <-joined
	submitAndSettle(t, r0, 10)
	waitCount(t, r1, 10)

	// Crash rank 1 first, then write more so rank 0's log runs ahead.
	r1.Close()
	submitAndSettle(t, r0, 7) // rank 0 now at 17, rank 1's log stops at 10
	r0.Close()
	net.Close()

	// Cold restart both on a fresh network, concurrently, rank 1 first so
	// the election genuinely has to prefer the longer log over arrival
	// order and tie-break preference (Preferred defaults to rank 0 — which
	// must STILL lose to rank 0's higher seq... so flip preference to rank
	// 1 to prove seq beats preference).
	durs[0].Preferred, durs[1].Preferred = 1, 1
	net2 := amoeba.NewMemoryNetwork()
	defer net2.Close()
	k0b, _ := net2.NewKernel("n0-reborn")
	k1b, _ := net2.NewKernel("n1-reborn")
	res := make(chan *Replica, 2)
	go func() { res <- openT(t, k1b, "durable-pair", durs[1]) }()
	go func() { res <- openT(t, k0b, "durable-pair", durs[0]) }()
	ra, rb := <-res, <-res
	defer ra.Close()
	defer rb.Close()

	for _, r := range []*Replica{ra, rb} {
		if got := counterValue(r); got != 17 {
			t.Fatalf("recovered counter = %d, want 17 (the longer log)", got)
		}
	}
	// The longer log's owner must be the sequencer of the reformed group.
	var seqOwner *Replica
	for _, r := range []*Replica{ra, rb} {
		if r.Info().IsSequencer {
			seqOwner = r
		}
	}
	if seqOwner == nil {
		t.Fatal("no replica sequences the reformed group")
	}
	if got := seqOwner.DurabilityStats(); got.LastSeq == 0 {
		t.Fatalf("sequencer has no durable history: %+v", got)
	}
	// Identify by kernel: rank 0 ran on k0b. The sequencer must be rank 0
	// (recovered seq 17 beats rank 1's 10 despite rank 1 being preferred).
	if seqOwner.kernel != k0b {
		t.Fatal("election winner is not the member with the longest log")
	}
	// The pair still replicates.
	submitAndSettle(t, seqOwner, 3)
	for _, r := range []*Replica{ra, rb} {
		waitCount(t, r, 20)
	}
}

// TestDurableRejoinLiveGroup: a durable replica crashes while the group
// survives; on reopen it must join the live group and reset its log to the
// transferred snapshot — the authoritative state — rather than replaying a
// dead timeline.
func TestDurableRejoinLiveGroup(t *testing.T) {
	dir := t.TempDir()
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k0, _ := net.NewKernel("n0")
	k1, _ := net.NewKernel("n1")

	dur0 := Durability{Dir: filepath.Join(dir, "r0"), Rank: 0, Peers: 2, Bootstrap: true}
	dur1 := Durability{Dir: filepath.Join(dir, "r1"), Rank: 1, Peers: 2, Bootstrap: true}
	r0 := openT(t, k0, "durable-rejoin", dur0)
	defer r0.Close()
	res := make(chan *Replica, 1)
	go func() { res <- openT(t, k1, "durable-rejoin", dur1) }()
	r1 := <-res
	submitAndSettle(t, r0, 8)
	waitCount(t, r1, 8)

	r1.Close() // crash one member; the group lives on
	submitAndSettle(t, r0, 4)

	k1b, _ := net.NewKernel("n1-reborn")
	r1b := openT(t, k1b, "durable-rejoin", dur1)
	defer r1b.Close()
	if got := counterValue(r1b); got != 12 {
		t.Fatalf("rejoined counter = %d, want 12", got)
	}
	st := r1b.DurabilityStats()
	if !st.Enabled || st.CheckpointSeq == 0 {
		t.Fatalf("rejoin did not reset the log to the transfer point: %+v", st)
	}
	// New traffic is journaled on the new timeline.
	submitAndSettle(t, r0, 2)
	waitCount(t, r1b, 14)
	if got := r1b.DurabilityStats(); got.Log.Entries == 0 {
		t.Fatalf("no entries journaled after rejoin: %+v", got)
	}
}

// TestDurableJoinUnderTrafficJournalsOnce: a durable replica that joins while
// commands flow journals every command ordered after its transfer point
// exactly once. What the group delivers during the snapshot fetch waits in the
// delivery queue, and the apply loop journals it like any later burst, skipping
// what the snapshot reflects: the joiner's log alone — its transfer checkpoint
// plus the entries after it — rebuilds the whole count.
func TestDurableJoinUnderTrafficJournalsOnce(t *testing.T) {
	dir := t.TempDir()
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k0, _ := net.NewKernel("n0")
	k1, _ := net.NewKernel("n1")
	dur1 := Durability{Dir: filepath.Join(dir, "r1"), Rank: 1, Peers: 2, Bootstrap: true}
	r0 := openT(t, k0, "durable-busy-join", Durability{Dir: filepath.Join(dir, "r0"), Rank: 0, Peers: 2, Bootstrap: true})
	defer r0.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	sent := make(chan int)
	go func() {
		n := 0
		defer func() { sent <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r0.Submit(ctx, []byte{1}); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			n++
		}
	}()
	submitAndSettle(t, r0, 1) // traffic is flowing before the join
	r1 := openT(t, k1, "durable-busy-join", dur1)
	submitAndSettle(t, r0, 1) // and after it
	close(stop)
	n := <-sent + 2
	waitCount(t, r1, n)
	st := r1.DurabilityStats()
	r1.Close()
	if st.Err != "" {
		t.Fatalf("the joiner's log failed: %s", st.Err)
	}
	if st.LastSeq <= st.CheckpointSeq {
		t.Fatalf("the joiner journaled nothing past its transfer point %d", st.CheckpointSeq)
	}

	log, err := wal.Open(dur1.Dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer log.Close()
	c := newCounter()
	var last uint32
	if _, err := log.Recover(
		func(snap []byte, seq uint32) error { last = seq; return c.Restore(snap) },
		func(e wal.Entry) error {
			if e.Seq <= last {
				return fmt.Errorf("entry %d replayed after %d", e.Seq, last)
			}
			last = e.Seq
			c.Apply(e.Payload)
			return nil
		},
		nil,
	); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if c.value != n {
		t.Fatalf("the joiner's log rebuilds a count of %d, want %d", c.value, n)
	}
}

// TestDurableCheckpointCadence: a checkpoint comes due by the bytes journaled
// since the last one (wal.Log.CheckpointDue), and recovery restores through
// the newest. The counter's snapshot is 8 bytes, so the one-segment floor
// decides: 2.5 segments of 32 KiB commands, each applied before the next is
// sent, must checkpoint twice beyond the checkpoint the group's creation
// writes.
func TestDurableCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	dur := Durability{Dir: filepath.Join(dir, "r0"), Peers: 1, Bootstrap: true}
	const segment, cmdSize = 1 << 20, 32 << 10 // wal's default SegmentSize
	const n = 5 * segment / 2 / cmdSize

	net := amoeba.NewMemoryNetwork()
	k, _ := net.NewKernel("ckpt")
	r := openT(t, k, "durable-ckpt", dur)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := r.Submit(ctx, make([]byte, cmdSize)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitCount(t, r, i+1)
	}
	st := r.DurabilityStats()
	if st.Log.Checkpoints < 3 {
		t.Fatalf("checkpoints = %d after %d bytes of commands, want the creation's and >= 2 more", st.Log.Checkpoints, n*cmdSize)
	}
	if st.CheckpointSeq == 0 {
		t.Fatalf("no checkpoint seq recorded: %+v", st)
	}
	r.Close()
	net.Close()

	net2 := amoeba.NewMemoryNetwork()
	defer net2.Close()
	k2, _ := net2.NewKernel("ckpt-reborn")
	r2 := openT(t, k2, "durable-ckpt", dur)
	defer r2.Close()
	if got := counterValue(r2); got != n {
		t.Fatalf("recovered counter = %d, want %d", got, n)
	}
	// Replay was bounded: only the suffix past the newest checkpoint, not
	// the whole history.
	if st2 := r2.DurabilityStats(); st2.Log.RecoveredEntries >= n {
		t.Fatalf("replayed %d entries despite checkpoints", st2.Log.RecoveredEntries)
	}
}

func waitCount(t *testing.T, r *Replica, want int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Wait(ctx, func(sm StateMachine) bool {
		return sm.(*counter).value >= want
	}); err != nil {
		t.Fatalf("waiting for value %d (have %d): %v", want, counterValue(r), err)
	}
}

// assertNoCrossTalk guards the beacon namespace: two groups' beacons must
// not collide.
func TestBeaconAddressesDistinct(t *testing.T) {
	a := beaconAddr("g1", 0)
	b := beaconAddr("g2", 0)
	c := beaconAddr("g1", 1)
	if a == b || a == c || b == c {
		t.Fatalf("beacon addresses collide: %v %v %v", a, b, c)
	}
	_ = fmt.Sprintf("%v", a)
}

// TestDurableApplyLoopKeepsNoPayload: in-memory and durable replicas run one
// apply loop, which reuses its burst array (and, durable, its journal-entry
// array) from burst to burst and between bursts holds no payload: every
// element a burst filled is cleared once the burst is journaled and applied.
func TestDurableApplyLoopKeepsNoPayload(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			net := amoeba.NewMemoryNetwork()
			defer net.Close()
			k, err := net.NewKernel("kept")
			if err != nil {
				t.Fatalf("NewKernel: %v", err)
			}
			var r *Replica
			if durable {
				r = openT(t, k, "durable-kept", Durability{Dir: filepath.Join(t.TempDir(), "r0"), Peers: 1, Bootstrap: true})
			} else {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if r, err = Create(ctx, k, "kept", newCounter(), amoeba.GroupOptions{}); err != nil {
					t.Fatalf("Create: %v", err)
				}
			}
			defer r.Close()
			// One pipelined burst of more commands than a burst holds, then
			// a short one.
			cmds := make([][]byte, 2*maxBurst+5)
			for i := range cmds {
				cmds[i] = []byte{1}
			}
			done := make(chan error, 1)
			r.Start(cmds, func(err error) { done <- err })
			if err := <-done; err != nil {
				t.Fatalf("Start: %v", err)
			}
			waitCount(t, r, len(cmds))
			submitAndSettle(t, r, 1)
			r.Close() // the apply loop has exited: its arrays are ours to read
			for i, m := range r.burst {
				if m.Payload != nil || m.Seq != 0 {
					t.Fatalf("message %d of the burst array still holds seq %d and %d payload bytes", i, m.Seq, len(m.Payload))
				}
			}
			for i, e := range r.entries {
				if e.Payload != nil || e.Seq != 0 {
					t.Fatalf("entry %d of the journal-entry array still holds seq %d and %d payload bytes", i, e.Seq, len(e.Payload))
				}
			}
		})
	}
}
