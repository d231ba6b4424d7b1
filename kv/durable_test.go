package kv

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"amoeba"
)

// bootDurable boots (or, re-run on the same dir, restarts) a durable store.
func bootDurable(t *testing.T, net *amoeba.MemoryNetwork, name, dataDir string, nodes int, opts Options, gen int) []*Store {
	t.Helper()
	ctx := ctxT(t, 60*time.Second)
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("%s-g%d-node-%d", name, gen, i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		kernels[i] = k
	}
	opts.DataDir = dataDir
	stores, err := Bootstrap(ctx, kernels, name, opts)
	if err != nil {
		t.Fatalf("Bootstrap (gen %d): %v", gen, err)
	}
	return stores
}

func closeAll(stores []*Store) {
	for _, s := range stores {
		s.Close()
	}
}

// TestDurableColdRestartExactlyOnce is the acceptance scenario: every node
// of a durable store is killed and restarted; all data must come back from
// the write-ahead logs, and a command retried across the restart must stay
// exactly-once because the replicated dedup state recovered with the data.
// Each shard journals past one log segment before the kill, so a periodic
// checkpoint comes due and the restart restores it and replays the suffix.
func TestDurableColdRestartExactlyOnce(t *testing.T) {
	dataDir := t.TempDir()
	ctx := ctxT(t, 120*time.Second)
	opts := Options{
		Shards: 2,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 1,
		},
	}

	net := amoeba.NewMemoryNetwork()
	stores := bootDurable(t, net, "durable", dataDir, 3, opts, 0)
	cl := stores[0].NewClient()
	var pairs []Pair
	for i := 0; i < 50; i++ {
		pairs = append(pairs, Pair{Key: fmt.Sprintf("key-%03d", i), Val: []byte(fmt.Sprintf("val-%03d", i))})
	}
	// 1.25 MiB of 16 KiB values on each shard: past the one-segment floor
	// (wal's default SegmentSize, 1 MiB) below which no checkpoint is due.
	for shard := 0; shard < opts.Shards; shard++ {
		for i := 0; i < 80; i++ {
			key := keyOnShard(stores[0], shard, fmt.Sprintf("fill-%d", i))
			pairs = append(pairs, Pair{Key: key, Val: bytes.Repeat([]byte{byte(i)}, 16<<10)})
		}
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("BatchPut: %v", err)
	}
	// An atomic create pinned to a (session, seq) — the retried command.
	pin := newSessionID(time.Now())
	casReq := &Request{Op: ReqCAS, Key: "lock", Val: []byte("owner-1"), Session: pin, ID: 0xD00D_F00D}
	resp, err := cl.Do(ctx, casReq)
	if err != nil || !resp.OK {
		t.Fatalf("CAS create = %+v, %v", resp, err)
	}
	cl.Close()
	// A replica's first checkpoint is its group's creation or its join's log
	// reset; one beyond it came due, and is written just after the burst
	// that made it due has applied.
	for deadline := time.Now().Add(10 * time.Second); !periodicCheckpoint(stores); {
		if time.Now().After(deadline) {
			t.Fatal("no replica wrote a periodic checkpoint before the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill every node: no Leave, no checkpoint-on-close — a power cut.
	closeAll(stores)
	net.Close()

	// Cold restart on a fresh network from the same data dir.
	net2 := amoeba.NewMemoryNetwork()
	defer net2.Close()
	stores2 := bootDurable(t, net2, "durable", dataDir, 3, opts, 1)
	defer closeAll(stores2)
	cl2 := stores2[1].NewClient() // a different node serves, same state
	defer cl2.Close()

	got, err := cl2.MGet(ctx, keysOf(pairs)...)
	if err != nil {
		t.Fatalf("MGet after restart: %v", err)
	}
	for _, p := range pairs {
		if string(got[p.Key]) != string(p.Val) {
			t.Fatalf("key %q = %q after restart, want %q", p.Key, got[p.Key], p.Val)
		}
	}

	// The client retries its CAS (same session and seq) across the restart: the
	// dedup state recovered from the WAL must suppress re-execution and
	// answer the original result — OK, even though the key now exists.
	retry := &Request{Op: ReqCAS, Key: "lock", Val: []byte("owner-1"), Session: pin, ID: 0xD00D_F00D}
	resp2, err := cl2.Do(ctx, retry)
	if err != nil || !resp2.OK {
		t.Fatalf("retried CAS after restart = %+v, %v (duplicate was re-executed?)", resp2, err)
	}
	// Whereas a genuinely new create of the same key must fail: the first
	// one's effect survived.
	fresh, err := cl2.CAS(ctx, "lock", nil, []byte("owner-2"))
	if err != nil {
		t.Fatalf("fresh CAS: %v", err)
	}
	if fresh {
		t.Fatal("fresh CAS create succeeded — the recovered store lost the lock value")
	}
	v, ok, err := cl2.Get(ctx, "lock")
	if err != nil || !ok || string(v) != "owner-1" {
		t.Fatalf("lock = %q %v %v after restart, want owner-1", v, ok, err)
	}

	// Durability kept running after the restart: the retried CAS and reads
	// journaled on the new timeline.
	journaled := false
	for _, s := range stores2 {
		for i := 0; i < s.Shards(); i++ {
			if r := s.Replica(i); r != nil {
				if st := r.DurabilityStats(); st.Enabled && st.Log.Entries > 0 {
					journaled = true
				}
			}
		}
	}
	if !journaled {
		t.Fatal("no shard journaled anything after the restart")
	}
}

func periodicCheckpoint(stores []*Store) bool {
	for _, s := range stores {
		for i := 0; i < s.Shards(); i++ {
			if r := s.Replica(i); r != nil && r.DurabilityStats().Log.Checkpoints > 1 {
				return true
			}
		}
	}
	return false
}

func keysOf(pairs []Pair) []string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}
	return keys
}

// TestDurableSingleNodeRestartJoinsLiveStore: one node of a durable store
// restarts while the others keep serving; it must rejoin over state transfer
// and reset its log to the live timeline.
func TestDurableSingleNodeRestartJoinsLiveStore(t *testing.T) {
	dataDir := t.TempDir()
	ctx := ctxT(t, 120*time.Second)
	opts := Options{
		Shards: 2,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 1,
		},
	}
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := bootDurable(t, net, "dur-one", dataDir, 3, opts, 0)
	defer closeAll(stores)

	cl := stores[0].NewClient()
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Crash node 2 and write more while it is down.
	stores[2].Close()
	for i := 20; i < 30; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatalf("Put while node down: %v", err)
		}
	}
	// Restart node 2 from its logs into the live store.
	k2, err := net.NewKernel("dur-one-node-2-reborn")
	if err != nil {
		t.Fatalf("reborn kernel: %v", err)
	}
	o := opts
	o.DataDir = dataDir
	o.Nodes = 3
	o.NodeIndex = 2
	s2, err := Open(ctx, k2, "dur-one", o)
	if err != nil {
		t.Fatalf("Open restarted node: %v", err)
	}
	defer s2.Close()

	// Its local replicas hold the live state, including writes it missed.
	cl2 := s2.NewClient()
	defer cl2.Close()
	for i := 0; i < 30; i++ {
		if v, ok := cl2.LocalGet(fmt.Sprintf("k%02d", i)); !ok || string(v) != "v" {
			t.Fatalf("restarted node lacks k%02d (= %q, %v)", i, v, ok)
		}
	}
}
