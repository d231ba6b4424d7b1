package fuzz

import (
	"strings"
	"testing"
	"time"
)

// TestHarnessCleanRunLinearizable: no faults at all — the baseline. A
// failure here is a harness or checker bug, not a protocol bug.
func TestHarnessCleanRunLinearizable(t *testing.T) {
	cfg := Config{Clients: 3, Keys: 3, Tail: 400 * time.Millisecond, Logf: t.Logf}
	res := Run(cfg, Schedule{Seed: 1})
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if !res.Check.Linearizable || res.Check.Timeout {
		t.Fatalf("clean run not linearizable: %s\nflight:\n%s", res, res.Flight)
	}
	if res.Ops == 0 {
		t.Fatal("clean run recorded no operations")
	}
}

// TestHarnessPlantedBugsCaught: the same clean run with history corruption
// planted must verdict non-linearizable — the end-to-end checker self-test
// the acceptance criteria demand.
func TestHarnessPlantedBugsCaught(t *testing.T) {
	for _, mode := range []string{"stale-read", "lost-write"} {
		cfg := Config{Clients: 2, Keys: 2, Tail: 300 * time.Millisecond}
		cfg.PlantStaleRead = mode == "stale-read"
		cfg.PlantLostWrite = mode == "lost-write"
		res := Run(cfg, Schedule{Seed: 2})
		if res.Err != nil {
			t.Fatalf("%s: harness error: %v", mode, res.Err)
		}
		if res.Check.Linearizable {
			t.Fatalf("%s: planted corruption not caught: %s", mode, res)
		}
		if res.Flight == "" {
			t.Fatalf("%s: failing run should capture a flight dump", mode)
		}
	}
}

// TestHarnessTxnWorkloadAtomic: the transactional half of the workload —
// bank transfers and full snapshots — must verdict atomic on a clean run,
// and must have actually exercised snapshots (the bank ops fire often
// enough that a run recording none is a workload regression).
func TestHarnessTxnWorkloadAtomic(t *testing.T) {
	cfg := Config{Clients: 3, Keys: 3, Accounts: 3, Tail: 500 * time.Millisecond, Logf: t.Logf}
	res := Run(cfg, Schedule{Seed: 4})
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if !res.Ok() {
		t.Fatalf("clean txn run not clean: %s\nflight:\n%s", res, res.Flight)
	}
	if res.Atomic.Snapshots == 0 {
		t.Fatal("txn workload recorded no snapshots")
	}
}

// TestHarnessPlantedTornTxnCaught: a clean run with a torn-transaction
// observation planted into a recorded snapshot must fail the atomicity
// verdict — the checker self-test for the multi-key model.
func TestHarnessPlantedTornTxnCaught(t *testing.T) {
	for attempt := 0; ; attempt++ {
		cfg := Config{Clients: 3, Keys: 3, Accounts: 3, Tail: 500 * time.Millisecond, PlantTornTxn: true}
		res := Run(cfg, Schedule{Seed: int64(5 + attempt)})
		if res.Err != nil {
			t.Fatalf("harness error: %v", res.Err)
		}
		if res.Atomic.Torn != "" {
			return // caught, as demanded
		}
		// The plant needs a committed transfer plus a covering snapshot in
		// the history; a sparse run may lack one. Retry a fresh seed.
		if attempt >= 2 {
			t.Fatalf("planted torn transaction not caught: %s", res)
		}
	}
}

// TestHarnessLeaseWorkloadClean: leases on, no faults — lease-served reads
// feed the linearizability checker as ordinary reads and the mixed-in
// StaleGets pass the bounded-staleness check, with both paths demonstrably
// exercised (reads actually served from leases / within bounds).
func TestHarnessLeaseWorkloadClean(t *testing.T) {
	cfg := Config{Clients: 3, Keys: 3, Leases: true, Tail: 800 * time.Millisecond, Logf: t.Logf}
	res := Run(cfg, Schedule{Seed: 14})
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if !res.Ok() {
		t.Fatalf("clean lease run not clean: %s\nflight:\n%s", res, res.Flight)
	}
	if res.Stale.Reads == 0 {
		t.Fatal("lease workload recorded no stale reads")
	}
	if res.LeaseReads == 0 {
		t.Fatal("no reads were served from a lease (lease path never engaged)")
	}
	t.Logf("lease run: %d lease-served, %d stale-served, %d stale reads checked",
		res.LeaseReads, res.StaleReads, res.Stale.Reads)
}

// TestHarnessPlantedStaleServeCaught: a clean lease run with an over-stale
// serve planted into a recorded StaleGet must fail the bounded-staleness
// verdict — the self-test that keeps CheckStale honest.
func TestHarnessPlantedStaleServeCaught(t *testing.T) {
	for attempt := 0; ; attempt++ {
		cfg := Config{Clients: 3, Keys: 3, Leases: true, Tail: 800 * time.Millisecond,
			PlantStaleServe: true}
		res := Run(cfg, Schedule{Seed: int64(15 + attempt)})
		if res.Stale.Reads > 0 && !res.Stale.Ok() {
			if res.Flight == "" {
				t.Fatal("failing run should capture a flight dump")
			}
			return // caught, as demanded
		}
		// The plant needs at least one successful stale read in the
		// history; a sparse run may lack one. Retry a fresh seed.
		if attempt >= 2 {
			t.Fatalf("planted stale serve not caught: %s (err %v)", res, res.Err)
		}
	}
}

// TestHarnessDialedClientsThroughServices: duplication, reordering and loss
// on the network while a node crashes and restarts, with the odd-numbered
// clients dialed through the nodes' kv.Services. The RPC servers keep no
// replies, so a duplicated or retransmitted request that arrives after its
// reply runs the Service's handler again; the shards' session tables must
// keep every write exactly-once and every read fresh, which the
// linearizability and atomicity verdicts hold.
func TestHarnessDialedClientsThroughServices(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault schedule")
	}
	sched := Schedule{Seed: 21, Events: []Event{
		{At: 100 * time.Millisecond, Kind: EvDuplicate, Rate: 0.2},
		{At: 150 * time.Millisecond, Kind: EvReorder, Rate: 0.1},
		{At: 200 * time.Millisecond, Kind: EvLoss, Rate: 0.05},
		{At: 400 * time.Millisecond, Kind: EvCrash, A: 2},
		{At: 800 * time.Millisecond, Kind: EvRestart, A: 2},
		{At: 1200 * time.Millisecond, Kind: EvNetClean},
	}}
	res := Run(Config{Clients: 4, Keys: 3, Accounts: 3, Tail: 800 * time.Millisecond, Logf: t.Logf}, sched)
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if !res.Ok() {
		t.Fatalf("duplicates through the services broke a verdict: %s\nflight:\n%s", res, res.Flight)
	}
	if res.Served == 0 {
		t.Fatal("no Service served a request: the dialed clients never crossed the RPC path")
	}
	t.Logf("%d requests served by the nodes' Services over %d recorded ops", res.Served, res.Ops)
}

// TestHarnessFaultScheduleRun: a real schedule — crash+restart, a
// partition+heal, message loss, and two disk faults — must complete with a
// linearizable history (full resilience plus the WAL make every injected
// fault maskable), and each disk fault must have reached a log on the node
// it targeted: a miswired disk would inject nothing and still pass.
func TestHarnessFaultScheduleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault schedule")
	}
	sched := Schedule{Seed: 3, Events: []Event{
		{At: 200 * time.Millisecond, Kind: EvLoss, Rate: 0.10},
		{At: 400 * time.Millisecond, Kind: EvCrash, A: 1},
		{At: 600 * time.Millisecond, Kind: EvPartition, A: 0, B: 2},
		{At: 900 * time.Millisecond, Kind: EvHeal},
		{At: 1000 * time.Millisecond, Kind: EvNetClean},
		{At: 1100 * time.Millisecond, Kind: EvDiskFull, A: 0, B: 3},
		{At: 1150 * time.Millisecond, Kind: EvTornWrite, A: 2},
		{At: 1200 * time.Millisecond, Kind: EvRestart, A: 1},
	}}
	res := Run(Config{Clients: 3, Keys: 3, Tail: 1500 * time.Millisecond, Logf: t.Logf}, sched)
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if !res.Check.Linearizable {
		t.Fatalf("fault schedule broke linearizability: %s\nflight:\n%s", res, res.Flight)
	}
	if res.Applied != len(sched.Events) {
		t.Fatalf("applied %d of %d events", res.Applied, len(sched.Events))
	}
	for node, want := range map[int]string{0: "fuzz: node 0: disk full", 2: "fuzz: node 2: torn write"} {
		if !strings.Contains(strings.Join(res.WALErrs[node], "\n"), want) {
			t.Errorf("no log on node %d reports %q; logs retired by node: %q", node, want, res.WALErrs)
		}
	}
}

// TestHarnessQuorumlessSplitBrainRegression pins the harness's first real
// find, shrunk by the shrinker from generated seed 7: kill shard 1's
// sequencer, partition the remaining pair, crash the third node. Under
// quorum-less recovery (MinSurvivors 1) both partition sides complete the
// reset protocol independently — two sequencers, two divergent total
// orders, a non-linearizable history. The majority default masks the same
// schedule. The fault is timing-dependent enough that a single quorum-less
// run occasionally recovers cleanly, so the violating half retries.
func TestHarnessQuorumlessSplitBrainRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault schedule")
	}
	const line = "seed=7 events=[crashseq(1)@1.604329618s partition(2,0)@1.736733952s crash(1)@2.172117713s]"
	sched, err := ParseSchedule(line)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}

	caught := false
	for attempt := 0; attempt < 3 && !caught; attempt++ {
		res := Run(Config{MinSurvivors: -1}, sched)
		if res.Err != nil {
			t.Fatalf("harness error: %v", res.Err)
		}
		caught = !res.Check.Linearizable && !res.Check.Timeout
	}
	if !caught {
		t.Fatalf("quorum-less recovery under %s should split-brain", line)
	}

	res := Run(Config{}, sched) // majority quorum: the default masks it
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if !res.Check.Linearizable {
		t.Fatalf("majority quorum should mask the schedule: %s\nflight:\n%s", res, res.Flight)
	}
}

// TestHarnessPlantedDivergenceCaught: add one item to one replica's live
// state — corruption the recorded history cannot see, because the
// replica still answers the protocol correctly — and the always-on
// sequenced auditor must flip the verdict, localized to an audit seq.
func TestHarnessPlantedDivergenceCaught(t *testing.T) {
	cfg := Config{
		Clients:         2,
		Keys:            3,
		Tail:            1500 * time.Millisecond,
		AuditEvery:      50 * time.Millisecond,
		PlantDivergence: true,
		Logf:            t.Logf,
	}
	res := Run(cfg, Schedule{Seed: 11})
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if len(res.Divergences) == 0 {
		t.Fatalf("planted state corruption not detected (%d audits ran): %s", res.Audits, res)
	}
	if res.Ok() {
		t.Fatalf("verdict did not flip on divergence: %s", res)
	}
	div := res.Divergences[0]
	if div.Seq == 0 || div.ID == 0 || len(div.Ranges) == 0 {
		t.Fatalf("divergence not localized: %+v", div)
	}
	if !strings.Contains(res.String(), "divergence") || !strings.Contains(res.String(), "seed=") {
		t.Fatalf("failure line does not report the divergence with the replay seed: %s", res)
	}
	if res.Flight == "" {
		t.Fatal("divergent run should capture a flight dump")
	}
}

// TestHarnessAuditorLiveDuringSchedules: a clean run with the default config
// must actually have audited — comparisons happened and no divergence was
// found. This pins the auditor as always-on during sweeps, not an opt-in.
func TestHarnessAuditorLiveDuringSchedules(t *testing.T) {
	cfg := Config{Clients: 2, Keys: 2, Tail: 600 * time.Millisecond, Logf: t.Logf}
	res := Run(cfg, Schedule{Seed: 12})
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if res.Audits == 0 {
		t.Fatal("no cross-replica digest comparisons ran during the schedule")
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("clean run reported divergence: %+v", res.Divergences)
	}
}
