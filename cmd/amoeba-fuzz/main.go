// Command amoeba-fuzz drives the adversarial harness: seeded fault
// schedules fuzzed against a live in-process kv cluster, with a
// linearizability checker deciding each run and a shrinker reducing
// failures to replayable minima.
//
// Usage:
//
//	amoeba-fuzz                                # default sweep: seeds 1..8
//	amoeba-fuzz -seeds 100-150                 # every seed in the list, however long they take
//	amoeba-fuzz -families crash,partition      # restrict the fault pool
//	amoeba-fuzz -replay 'seed=7 events=[crash(1)@400ms restart(1)@1.2s]'
//
// Every run is deterministic in its seed: the seed generates the schedule,
// seeds the network's fault injection, and seeds the workload's op streams.
// A failing run prints one replay line; feed it back through -replay to
// reproduce, or pin it in a regression test.
//
// Exit status: 0 when every run verdicts linearizable, 1 on any failure or
// harness error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"amoeba/fuzz"
)

var familyByName = map[string]fuzz.Family{
	"crash":     fuzz.FamCrash,
	"restart":   fuzz.FamRestart,
	"partition": fuzz.FamPartition,
	"loss":      fuzz.FamLoss,
	"disk":      fuzz.FamDisk,
	"reshard":   fuzz.FamReshard,
}

func main() {
	var (
		seeds    = flag.String("seeds", "1-8", "seed list: comma-separated values and lo-hi ranges, e.g. 3,10-14")
		families = flag.String("families", "", "fault families to draw from (crash,restart,partition,loss,disk,reshard); empty = all")
		events   = flag.Int("events", 6, "events per generated schedule")
		horizon  = flag.Duration("horizon", 3*time.Second, "schedule horizon (events land inside it)")
		nodes    = flag.Int("nodes", 3, "cluster size")
		shards   = flag.Int("shards", 2, "bootstrap shard count")
		clients  = flag.Int("clients", 4, "concurrent workload clients")
		keys     = flag.Int("keys", 4, "distinct contended keys")
		accounts = flag.Int("accounts", 4, "bank accounts the transactional workload transfers between")
		minSurv  = flag.Int("min-survivors", 0, "recovery quorum (0 = majority; 1 reproduces quorum-less split brain)")
		leases   = flag.Bool("leases", false, "enable sequencer read leases: Gets ride the lease-serve path and the workload mixes in bounded-staleness StaleGets")
		replay   = flag.String("replay", "", "replay one schedule line (seed=N events=[...]) instead of sweeping")
		noShrink = flag.Bool("no-shrink", false, "skip shrinking failing schedules")
		verbose  = flag.Bool("v", false, "log schedule events as they fire")
	)
	flag.Parse()

	cfg := fuzz.Config{Nodes: *nodes, Shards: *shards, Clients: *clients, Keys: *keys,
		Accounts: *accounts, MinSurvivors: *minSurv, Leases: *leases}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	if *replay != "" {
		sched, err := fuzz.ParseSchedule(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amoeba-fuzz: %v\n", err)
			os.Exit(2)
		}
		res := fuzz.Run(cfg, sched)
		fmt.Println(res)
		if !res.Ok() {
			if res.Flight != "" {
				fmt.Fprintf(os.Stderr, "flight recorder:\n%s\n", res.Flight)
			}
			os.Exit(1)
		}
		return
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amoeba-fuzz: %v\n", err)
		os.Exit(2)
	}
	profile := fuzz.Profile{
		Nodes:   *nodes,
		Shards:  *shards,
		Horizon: *horizon,
		Events:  *events,
	}
	if *families != "" {
		for _, name := range strings.Split(*families, ",") {
			f, ok := familyByName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "amoeba-fuzz: unknown family %q\n", name)
				os.Exit(2)
			}
			profile.Families = append(profile.Families, f)
		}
	}

	start := time.Now()
	failed := 0
	for _, seed := range seedList {
		sched := fuzz.Generate(seed, profile)
		fmt.Printf("seed %d: %d events… ", seed, len(sched.Events))
		res := fuzz.Run(cfg, sched)
		fmt.Println(res)
		if res.Ok() {
			continue
		}
		failed++
		if res.Err == nil && !*noShrink {
			fmt.Println("shrinking…")
			shrunk := fuzz.Shrink(sched, func(s fuzz.Schedule) bool {
				r := fuzz.Run(cfg, s)
				return r.Err == nil && (!r.Check.Linearizable || !r.Atomic.Ok() || !r.Stale.Ok())
			})
			fmt.Printf("MINIMAL REPLAY: %s\n", shrunk)
		} else {
			fmt.Printf("REPLAY: %s\n", sched)
		}
		if res.Flight != "" {
			fmt.Fprintf(os.Stderr, "flight recorder:\n%s\n", res.Flight)
		}
	}
	fmt.Printf("%d seeds run, %d failed, %s elapsed\n", len(seedList), failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		os.Exit(1)
	}
}

// parseSeeds expands "3,10-14" into [3 10 11 12 13 14].
func parseSeeds(spec string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseInt(lo, 10, 64)
			b, err2 := strconv.ParseInt(hi, 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			for s := a; s <= b; s++ {
				out = append(out, s)
			}
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, s)
	}
	return out, nil
}
