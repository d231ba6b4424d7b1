package fuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind names one schedulable fault or reconfiguration.
type Kind int

// The event vocabulary. Node arguments are placement slots (kv node
// indices); rates are probabilities in [0,1).
const (
	// EvCrash crashes node A: its store and kernel close with no protocol
	// goodbye. Its write-ahead logs survive.
	EvCrash Kind = iota
	// EvRestart restarts crashed node A from its logs (kv.Join): recover,
	// rejoin live groups, state-transfer what the logs missed.
	EvRestart
	// EvKillAll crashes every live node — the whole-cluster power cut
	// replication cannot mask.
	EvKillAll
	// EvRestartAll restarts every crashed node; when the whole cluster is
	// down this is the cold start: recovery beacons, longest-log election,
	// group reformation from the WAL.
	EvRestartAll
	// EvPartition cuts the link between nodes A and B (both keep talking
	// to everyone else — the split that drives conflicting suspicions).
	EvPartition
	// EvHeal removes every pairwise partition.
	EvHeal
	// EvLoss sets the network frame-loss probability to Rate.
	EvLoss
	// EvReorder sets the frame-reordering probability to Rate.
	EvReorder
	// EvDuplicate sets the frame-duplication probability to Rate.
	EvDuplicate
	// EvNetClean zeroes loss, reorder, and duplication.
	EvNetClean
	// EvDiskFull makes node A's next B (default 4) log segment writes fail
	// with ENOSPC, landing nothing; each log hit poisons itself, as below.
	EvDiskFull
	// EvTornWrite tears node A's next log segment write mid-record: the
	// replica's log poisons itself and the replica degrades to in-memory
	// operation — the path a real torn tail exercises at the next reboot.
	EvTornWrite
	// EvReshard resplits the store to A shard groups through the routing
	// epoch protocol, live.
	EvReshard
	// EvCrashSequencer crashes whichever node currently sequences shard
	// A's group — the targeted kill that forces a sequencer handoff via
	// group recovery.
	EvCrashSequencer
)

var kindNames = map[Kind]string{
	EvCrash: "crash", EvRestart: "restart", EvKillAll: "killall",
	EvRestartAll: "restartall", EvPartition: "partition", EvHeal: "heal",
	EvLoss: "loss", EvReorder: "reorder", EvDuplicate: "dup",
	EvNetClean: "netclean", EvDiskFull: "diskfull", EvTornWrite: "torn",
	EvReshard: "reshard", EvCrashSequencer: "crashseq",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// Event is one scheduled fault: Kind's action with arguments A, B, Rate,
// fired At after the run starts.
type Event struct {
	At   time.Duration
	Kind Kind
	A, B int
	Rate float64
}

// String renders one event in the replay grammar: kind[(args)]@offset.
func (e Event) String() string {
	name := kindNames[e.Kind]
	switch e.Kind {
	case EvCrash, EvRestart, EvTornWrite, EvReshard, EvCrashSequencer:
		return fmt.Sprintf("%s(%d)@%s", name, e.A, e.At)
	case EvDiskFull, EvPartition:
		return fmt.Sprintf("%s(%d,%d)@%s", name, e.A, e.B, e.At)
	case EvLoss, EvReorder, EvDuplicate:
		return fmt.Sprintf("%s(%g)@%s", name, e.Rate, e.At)
	default: // killall, restartall, heal, netclean
		return fmt.Sprintf("%s@%s", name, e.At)
	}
}

// Schedule is a deterministic fault plan: the seed reproduces both the
// network's fault-injection randomness and the workload's key/value choices,
// and the events fire at fixed offsets. Same seed + same schedule + same
// binary ⇒ same run, which is what makes a failure a bug report.
type Schedule struct {
	Seed   int64
	Events []Event
}

// String renders the schedule as one replayable line, parseable by
// ParseSchedule and accepted by cmd/amoeba-fuzz's -replay flag:
//
//	seed=7 events=[crash(1)@200ms restart(1)@1.2s heal@2s]
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("seed=%d events=[%s]", s.Seed, strings.Join(parts, " "))
}

// ParseSchedule parses the String form back into a schedule.
func ParseSchedule(line string) (Schedule, error) {
	var s Schedule
	line = strings.TrimSpace(line)
	rest, ok := strings.CutPrefix(line, "seed=")
	if !ok {
		return s, fmt.Errorf("fuzz: schedule must start with seed=: %q", line)
	}
	seedStr, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return s, fmt.Errorf("fuzz: schedule missing events=[...]: %q", line)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return s, fmt.Errorf("fuzz: bad seed %q: %v", seedStr, err)
	}
	s.Seed = seed
	rest = strings.TrimSpace(rest)
	body, ok := strings.CutPrefix(rest, "events=[")
	if !ok || !strings.HasSuffix(body, "]") {
		return s, fmt.Errorf("fuzz: schedule missing events=[...]: %q", line)
	}
	body = strings.TrimSuffix(body, "]")
	for _, tok := range strings.Fields(body) {
		e, err := parseEvent(tok)
		if err != nil {
			return s, err
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

func parseEvent(tok string) (Event, error) {
	var e Event
	head, offStr, ok := strings.Cut(tok, "@")
	if !ok {
		return e, fmt.Errorf("fuzz: event %q missing @offset", tok)
	}
	off, err := time.ParseDuration(offStr)
	if err != nil {
		return e, fmt.Errorf("fuzz: event %q: bad offset: %v", tok, err)
	}
	e.At = off
	name := head
	var args []string
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return e, fmt.Errorf("fuzz: event %q: unclosed args", tok)
		}
		name = head[:i]
		args = strings.Split(head[i+1:len(head)-1], ",")
	}
	kind, ok := kindByName[name]
	if !ok {
		return e, fmt.Errorf("fuzz: unknown event kind %q", name)
	}
	e.Kind = kind
	atoi := func(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }
	switch kind {
	case EvCrash, EvRestart, EvTornWrite, EvReshard, EvCrashSequencer:
		if len(args) != 1 {
			return e, fmt.Errorf("fuzz: event %q wants 1 argument", tok)
		}
		if e.A, err = atoi(args[0]); err != nil {
			return e, fmt.Errorf("fuzz: event %q: %v", tok, err)
		}
	case EvDiskFull, EvPartition:
		if len(args) != 2 {
			return e, fmt.Errorf("fuzz: event %q wants 2 arguments", tok)
		}
		if e.A, err = atoi(args[0]); err != nil {
			return e, fmt.Errorf("fuzz: event %q: %v", tok, err)
		}
		if e.B, err = atoi(args[1]); err != nil {
			return e, fmt.Errorf("fuzz: event %q: %v", tok, err)
		}
	case EvLoss, EvReorder, EvDuplicate:
		if len(args) != 1 {
			return e, fmt.Errorf("fuzz: event %q wants 1 argument", tok)
		}
		if e.Rate, err = strconv.ParseFloat(strings.TrimSpace(args[0]), 64); err != nil {
			return e, fmt.Errorf("fuzz: event %q: %v", tok, err)
		}
	default:
		if len(args) != 0 {
			return e, fmt.Errorf("fuzz: event %q wants no arguments", tok)
		}
	}
	return e, nil
}

// Profile shapes schedule generation: which fault families Generate draws
// from, over what horizon, against what cluster.
type Profile struct {
	// Nodes is the cluster size the schedule targets (default 3).
	Nodes int
	// Shards is the store's bootstrap shard count (default 2), bounding
	// reshard and crash-sequencer arguments.
	Shards int
	// Horizon is the schedule's length (default 3s); events land in
	// [Horizon/10, Horizon).
	Horizon time.Duration
	// Events is how many events to draw (default 6).
	Events int
	// Families selects the fault families to draw from; nil means all.
	Families []Family
}

// Family groups event kinds for profile selection.
type Family int

// Fault families. A family contributes its kinds to the generator's pool;
// recovery events (restart, heal, netclean) ride with their faults so
// generated schedules tend to let the cluster limp back.
const (
	// FamCrash: crash, restart, crash-sequencer.
	FamCrash Family = iota
	// FamRestart: whole-cluster kill and cold restart.
	FamRestart
	// FamPartition: pairwise partitions and heals.
	FamPartition
	// FamLoss: message loss, reordering, duplication, and the cleanup.
	FamLoss
	// FamDisk: WAL disk-full and torn-tail injection.
	FamDisk
	// FamReshard: live resharding.
	FamReshard
)

var familyKinds = map[Family][]Kind{
	FamCrash:     {EvCrash, EvRestart, EvRestart, EvCrashSequencer},
	FamRestart:   {EvKillAll, EvRestartAll, EvRestartAll},
	FamPartition: {EvPartition, EvHeal},
	FamLoss:      {EvLoss, EvReorder, EvDuplicate, EvNetClean},
	FamDisk:      {EvDiskFull, EvTornWrite},
	FamReshard:   {EvReshard},
}

func (p Profile) withDefaults() Profile {
	if p.Nodes <= 0 {
		p.Nodes = 3
	}
	if p.Shards <= 0 {
		p.Shards = 2
	}
	if p.Horizon <= 0 {
		p.Horizon = 3 * time.Second
	}
	if p.Events <= 0 {
		p.Events = 6
	}
	if len(p.Families) == 0 {
		p.Families = []Family{FamCrash, FamRestart, FamPartition, FamLoss, FamDisk, FamReshard}
	}
	return p
}

// Generate draws a schedule deterministically from the seed: the same seed
// and profile always produce the same schedule. The generator is seeded
// separately from the run (the schedule's Seed feeds the network and
// workload), so regenerating a schedule never perturbs its replay.
func Generate(seed int64, p Profile) Schedule {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var pool []Kind
	for _, f := range p.Families {
		pool = append(pool, familyKinds[f]...)
	}
	s := Schedule{Seed: seed}
	lo := p.Horizon / 10
	span := p.Horizon - lo
	for i := 0; i < p.Events; i++ {
		e := Event{
			At:   lo + time.Duration(rng.Int63n(int64(span))),
			Kind: pool[rng.Intn(len(pool))],
		}
		switch e.Kind {
		case EvCrash, EvRestart, EvTornWrite:
			e.A = rng.Intn(p.Nodes)
		case EvDiskFull:
			e.A = rng.Intn(p.Nodes)
			e.B = 1 + rng.Intn(8) // appends to fail
		case EvPartition:
			if p.Nodes < 2 {
				e.Kind = EvHeal // nothing to cut on a single node
				break
			}
			e.A = rng.Intn(p.Nodes)
			e.B = (e.A + 1 + rng.Intn(p.Nodes-1)) % p.Nodes
		case EvLoss:
			e.Rate = 0.05 + 0.25*rng.Float64()
		case EvReorder, EvDuplicate:
			e.Rate = 0.05 + 0.35*rng.Float64()
		case EvReshard:
			// Split or merge around the bootstrap count, never to zero.
			opts := []int{1, 2, p.Shards + 1, p.Shards * 2}
			e.A = opts[rng.Intn(len(opts))]
		case EvCrashSequencer:
			e.A = rng.Intn(p.Shards)
		}
		s.Events = append(s.Events, e)
	}
	sort.SliceStable(s.Events, func(a, b int) bool { return s.Events[a].At < s.Events[b].At })
	return s
}
