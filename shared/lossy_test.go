package shared

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba"
)

// lossyNet returns a memory network that drops and duplicates frames, so the
// protocol's NAK/retransmission and the transfer RPC's retries all fire.
func lossyNet(drop, dup float64, seed int64) *amoeba.MemoryNetwork {
	return amoeba.NewMemoryNetworkWithFaults(amoeba.MemoryNetworkConfig{
		DropRate: drop,
		DupRate:  dup,
		Seed:     seed,
	})
}

// TestStateTransferOverLossyNetwork checks the §5 claim end to end under
// packet loss: a replica that joins a running group over an unreliable
// network must still converge to exactly the seeds' state.
func TestStateTransferOverLossyNetwork(t *testing.T) {
	for _, tc := range []struct {
		name      string
		drop, dup float64
		seed      int64
	}{
		{"drop2", 0.02, 0, 7},
		{"drop5dup2", 0.05, 0.02, 11},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxT(t)
			net := lossyNet(tc.drop, tc.dup, tc.seed)
			defer net.Close()

			k1, _ := net.NewKernel("seed-1")
			k2, _ := net.NewKernel("seed-2")
			r1, err := Create(ctx, k1, "lossy", newKV(), amoeba.GroupOptions{})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			defer r1.Close()
			r2, err := Join(ctx, k2, "lossy", newKV(), amoeba.GroupOptions{})
			if err != nil {
				t.Fatalf("Join seed-2: %v", err)
			}
			defer r2.Close()

			// Pre-join state: only state transfer can hand this to the
			// joiner, and every Submit here already battles frame loss.
			const n = 30
			for i := 0; i < n; i++ {
				if err := r1.Submit(ctx, set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}

			k3, _ := net.NewKernel("joiner")
			r3, err := Join(ctx, k3, "lossy", newKV(), amoeba.GroupOptions{})
			if err != nil {
				t.Fatalf("Join over lossy network: %v", err)
			}
			defer r3.Close()

			// Post-join traffic through the joiner itself.
			if err := r3.Submit(ctx, set("after", "join")); err != nil {
				t.Fatalf("joiner submit: %v", err)
			}

			hi := maxSeq(r1, r2, r3)
			for _, r := range []*Replica{r1, r2, r3} {
				waitApplied(t, r, hi)
			}
			// All three copies must be identical despite drops and dups.
			deadline := time.Now().Add(5 * time.Second)
			for {
				equal := true
				for i := 0; i < n; i++ {
					k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
					if get(r3, k) != v || get(r2, k) != v {
						equal = false
						break
					}
				}
				if equal && get(r3, "after") == "join" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("replicas did not converge over lossy network")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// logSM records applied commands in order — the probe for per-sender FIFO
// and exactly-once under pipelining.
type logSM struct {
	Log []string `json:"log"`
}

func (s *logSM) Apply(cmd []byte) { s.Log = append(s.Log, string(cmd)) }
func (s *logSM) Snapshot() ([]byte, error) {
	return json.Marshal(s)
}
func (s *logSM) Restore(snap []byte) error {
	return json.Unmarshal(snap, s)
}

// TestPipelinedFIFOAcrossFailoverOnLossyNetwork is the end-to-end guarantee
// check for pipelined sends (four ordering requests in flight, up to 16
// payloads a batch): several workers stream numbered commands through one
// replica over a dropping, duplicating network; the sequencer process is
// killed mid-stream and AutoReset rebuilds the group. Every command whose
// Submit succeeded must appear in every survivor's log exactly once and in
// each worker's submission order — pipelining and batching must change the
// economics, never the semantics.
func TestPipelinedFIFOAcrossFailoverOnLossyNetwork(t *testing.T) {
	ctx := ctxT(t)
	net := lossyNet(0.03, 0.02, 23)
	defer net.Close()

	opts := amoeba.GroupOptions{
		Resilience:   1,
		AutoReset:    true,
		MinSurvivors: 2,
	}
	k1, _ := net.NewKernel("seq")
	k2, _ := net.NewKernel("worker-host")
	k3, _ := net.NewKernel("observer")
	r1, err := Create(ctx, k1, "pipefail", &logSM{}, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r1.Close()
	r2, err := Join(ctx, k2, "pipefail", &logSM{}, opts)
	if err != nil {
		t.Fatalf("Join r2: %v", err)
	}
	defer r2.Close()
	r3, err := Join(ctx, k3, "pipefail", &logSM{}, opts)
	if err != nil {
		t.Fatalf("Join r3: %v", err)
	}
	defer r3.Close()

	// Workers share r2's replica handle: their streams interleave, but each
	// worker's own commands must stay in order (per-sender FIFO is per
	// group handle, and the handle pipelines all of them).
	const workers, perWorker = 3, 40
	okSubmits := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		okSubmits[w] = make([]bool, perWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cmd := []byte(fmt.Sprintf("w%d-%03d", w, i))
				if err := r2.Submit(ctx, cmd); err == nil {
					okSubmits[w][i] = true
				}
			}
		}()
	}
	// Kill the sequencer once the stream is flowing; the workers' retries
	// trigger AutoReset and the window re-homes on the new sequencer.
	for r2.Applied() < 10 {
		time.Sleep(2 * time.Millisecond)
	}
	r1.Close()
	wg.Wait()

	// A final marker flushes the stream, then both survivors must agree.
	// Submit returns once the marker is ordered, not applied, so the
	// convergence point is the marker in each log, not Applied().
	if err := r2.Submit(ctx, []byte("fin")); err != nil {
		t.Fatalf("final submit: %v", err)
	}
	defer func() {
		if t.Failed() {
			t.Logf("r2: %s", r2.Debug())
			t.Logf("r3: %s", r3.Debug())
		}
	}()
	logs := map[string][]string{}
	deadline := time.Now().Add(5 * time.Second)
	for name, r := range map[string]*Replica{"r2": r2, "r3": r3} {
		for {
			var snapshot []string
			r.Read(func(sm StateMachine) {
				snapshot = append([]string(nil), sm.(*logSM).Log...)
			})
			logs[name] = snapshot
			if n := len(snapshot); n > 0 && snapshot[n-1] == "fin" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never applied the final marker", name)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if fmt.Sprint(logs["r2"]) != fmt.Sprint(logs["r3"]) {
		t.Fatalf("survivor logs diverge:\nr2=%v\nr3=%v", logs["r2"], logs["r3"])
	}
	// Exactly-once and per-worker FIFO on the agreed log.
	count := map[string]int{}
	nextPerWorker := make([]int, workers)
	for _, cmd := range logs["r2"] {
		count[cmd]++
		var w, i int
		if n, _ := fmt.Sscanf(cmd, "w%d-%d", &w, &i); n == 2 {
			// Applied commands from one worker must appear in
			// submission order; skipped indices are only legal for
			// failed submits.
			for next := nextPerWorker[w]; next < i; next++ {
				if okSubmits[w][next] {
					t.Fatalf("worker %d: command %03d applied before %03d (FIFO violated)", w, i, next)
				}
			}
			if i < nextPerWorker[w] {
				t.Fatalf("worker %d: command %03d applied out of order", w, i)
			}
			nextPerWorker[w] = i + 1
		}
	}
	for cmd, n := range count {
		if n != 1 {
			t.Fatalf("command %q applied %d times", cmd, n)
		}
	}
	// Every successful submit made it.
	for w := 0; w < workers; w++ {
		for i, ok := range okSubmits[w] {
			if ok && count[fmt.Sprintf("w%d-%03d", w, i)] == 0 {
				t.Fatalf("worker %d: successful submit %03d missing from log", w, i)
			}
		}
	}
}

// TestWaitObservesApply covers the exported Wait hook: it must block until a
// submitted command is applied locally, not merely sequenced.
func TestWaitObservesApply(t *testing.T) {
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("w1")
	k2, _ := net.NewKernel("w2")
	r1, err := Create(ctx, k1, "wait", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r1.Close()
	r2, err := Join(ctx, k2, "wait", newKV(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer r2.Close()

	if err := r1.Submit(ctx, set("x", "42")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait on the NON-submitting replica: the value arrives only via the
	// ordered stream.
	if err := r2.Wait(ctx, func(sm StateMachine) bool {
		return sm.(*kvSM).M["x"] == "42"
	}); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := get(r2, "x"); got != "42" {
		t.Fatalf("x = %q after Wait", got)
	}
	// Wait fails with ErrStopped once the replica closes.
	r2.Close()
	if err := r2.Wait(ctx, func(StateMachine) bool { return false }); err != ErrStopped {
		t.Fatalf("Wait on closed replica: %v, want ErrStopped", err)
	}
}
