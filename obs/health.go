package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Digest is one replica's range-partitioned digest of its replicated state,
// computed while applying a sequenced audit command — so every replica of a
// scope digests the identical prefix of the total order. Ranges partitions
// the key space by hash so a mismatch localizes to a key-range, not just
// "something differs"; Meta folds the non-item replicated state (dedup
// window, routing epoch, transaction portions).
type Digest struct {
	ID     uint64   // audit command id: the comparison key across replicas
	Seq    uint32   // position in the scope's total order (0 during WAL replay)
	Epoch  uint64   // routing epoch at the audit point
	Keys   int      // items covered
	Ranges []uint64 // per-key-range digests, hash-partitioned
	Meta   uint64   // digest of dedup window + routing + txn state
	Sum    uint64   // fold of Ranges and Meta
}

// Divergence pinpoints a replica-state mismatch: which scope, at which audit
// seq, which key-ranges differ, and which replicas disagreed. FlightDump is
// the flight recorder's contents captured at detection time.
type Divergence struct {
	Scope      string
	ID         uint64
	Seq        uint32
	Ranges     []int // indices of differing key-ranges; -1 marks the meta digest
	Nodes      []string
	At         time.Time
	FlightDump string
}

func (d Divergence) String() string {
	return fmt.Sprintf("divergence scope=%s seq=%d audit=%d ranges=%v nodes=%v",
		d.Scope, d.Seq, d.ID, d.Ranges, d.Nodes)
}

// Health verdicts, worst first.
const (
	VerdictDiverged = "diverged" // replicas disagree on replicated state
	VerdictDegraded = "degraded" // a replica is stale (no report within StaleAfter)
	VerdictUnknown  = "unknown"  // no audit observed yet
	VerdictOK       = "ok"
)

// auditKeep bounds how many in-flight audit ids are retained per scope while
// waiting for lagging replicas to report.
const auditKeep = 8

// Auditor collects audit digests and apply-progress reports from every
// replica that shares this Hub, compares digests across replicas of the same
// scope (same audit id ⇒ same position in that scope's total order ⇒ the
// digests must be identical), and maintains a health verdict per scope. On
// the first mismatch it localizes the divergence to (scope, seq, key-ranges),
// captures a flight-recorder dump, and flips the scope's verdict to
// "diverged" — which sticks until Forget. A nil *Auditor is the no-op sink.
type Auditor struct {
	flight *Recorder

	mu          sync.Mutex
	scopes      map[string]*scopeAudit
	staleAfter  time.Duration
	audits      uint64 // digest comparisons completed (≥2 replicas agreed)
	reports     uint64 // digest reports received
	divergences []Divergence
	lagGauge    *Gauge // amoeba_health_apply_lag: max apply-lag across replicas
	staleGauge  *Gauge // amoeba_health_audit_staleness_ms: oldest scope's audit age
	divGauge    *Gauge // amoeba_health_diverged: 0/1
}

type scopeAudit struct {
	verdict  string
	lastSeq  uint32    // seq of the newest compared audit
	lastAt   time.Time // when the newest audit report arrived
	pending  map[uint64]map[string]Digest
	order    []uint64 // pending audit ids, oldest first
	replicas map[string]*replicaAudit
	diverged *Divergence
}

type replicaAudit struct {
	applied  uint32
	lastSeen time.Time
}

func newAuditor(reg *Registry, flight *Recorder) *Auditor {
	a := &Auditor{
		flight:     flight,
		scopes:     make(map[string]*scopeAudit),
		staleAfter: 5 * time.Second,
		lagGauge:   reg.gauge("amoeba_health_apply_lag"),
		staleGauge: reg.gauge("amoeba_health_audit_staleness_ms"),
		divGauge:   reg.gauge("amoeba_health_diverged"),
	}
	reg.RegisterSource(func() []Sample {
		a.mu.Lock()
		defer a.mu.Unlock()
		return []Sample{
			{Name: "amoeba_health_reports_total", Value: a.reports},
			{Name: "amoeba_health_audits_total", Value: a.audits},
			{Name: "amoeba_health_divergence_total", Value: uint64(len(a.divergences))},
		}
	})
	return a
}

// SetStaleAfter sets how long a replica may go without any report before the
// rollup degrades. The default is 5s; tests and fast-audit clusters lower it.
func (a *Auditor) SetStaleAfter(d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	a.mu.Lock()
	a.staleAfter = d
	a.mu.Unlock()
}

func (a *Auditor) scope(name string) *scopeAudit {
	sc := a.scopes[name]
	if sc == nil {
		sc = &scopeAudit{
			verdict:  VerdictUnknown,
			pending:  make(map[uint64]map[string]Digest),
			replicas: make(map[string]*replicaAudit),
		}
		a.scopes[name] = sc
	}
	return sc
}

// Report records one replica's digest for an audit. The audit command id —
// not the seq — keys the comparison: a group reformed from an older log can
// reuse seq numbers, but an audit id is ordered at most once per timeline.
// Safe to call from a state machine's Apply (never calls back into replicas).
func (a *Auditor) Report(scope, node string, d Digest) {
	if a == nil || d.ID == 0 {
		return
	}
	a.mu.Lock()
	a.reports++
	sc := a.scope(scope)
	rep := sc.replica(node)
	rep.lastSeen = time.Now()
	if d.Seq > 0 {
		sc.lastSeq = d.Seq
		sc.lastAt = rep.lastSeen
		if d.Seq > rep.applied {
			rep.applied = d.Seq
		}
	}
	peers, ok := sc.pending[d.ID]
	if !ok {
		peers = make(map[string]Digest)
		sc.pending[d.ID] = peers
		sc.order = append(sc.order, d.ID)
		for len(sc.order) > auditKeep {
			delete(sc.pending, sc.order[0])
			sc.order = sc.order[1:]
		}
	}
	peers[node] = d
	var div *Divergence
	compared := len(peers) >= 2
	if compared {
		a.audits++
		div = compareDigests(scope, peers)
	}
	if div != nil && sc.diverged == nil {
		div.At = time.Now()
		div.FlightDump = a.flight.Format()
		sc.diverged = div
		sc.verdict = VerdictDiverged
		a.divergences = append(a.divergences, *div)
		a.divGauge.Add(1 - a.divGauge.Value())
		a.flight.Recordf("health", "%s", div.String())
	} else if compared && sc.diverged == nil {
		// A verdict needs an actual comparison: a lone replica's report
		// proves nothing, so the scope stays unknown until a peer echoes
		// the same audit.
		sc.verdict = VerdictOK
	}
	a.refreshGaugesLocked()
	a.mu.Unlock()
}

// Progress records a replica's applied seq so the auditor can compute
// apply-lag (distance behind the most advanced replica of the scope) and
// notice replicas that stop making progress.
func (a *Auditor) Progress(scope, node string, applied uint32) {
	if a == nil {
		return
	}
	a.mu.Lock()
	sc := a.scope(scope)
	rep := sc.replica(node)
	rep.lastSeen = time.Now()
	if applied > rep.applied {
		rep.applied = applied
	}
	a.refreshGaugesLocked()
	a.mu.Unlock()
}

func (sc *scopeAudit) replica(node string) *replicaAudit {
	rep := sc.replicas[node]
	if rep == nil {
		rep = &replicaAudit{}
		sc.replicas[node] = rep
	}
	return rep
}

// compareDigests checks all reported digests for one audit against each
// other and, on mismatch, localizes the differing key-ranges (index -1 for
// the meta digest). Returns nil when all replicas agree.
func compareDigests(scope string, peers map[string]Digest) *Divergence {
	var ref Digest
	var refNode string
	first := true
	for node, d := range peers {
		if first || node < refNode {
			// Deterministic reference: the lexically-smallest node.
			ref, refNode, first = d, node, false
		}
	}
	var badNodes []string
	badRanges := make(map[int]bool)
	for node, d := range peers {
		if node == refNode || d.Sum == ref.Sum {
			continue
		}
		badNodes = append(badNodes, node)
		if d.Meta != ref.Meta {
			badRanges[-1] = true
		}
		n := len(d.Ranges)
		if len(ref.Ranges) < n {
			n = len(ref.Ranges)
		}
		for i := 0; i < n; i++ {
			if d.Ranges[i] != ref.Ranges[i] {
				badRanges[i] = true
			}
		}
		if len(d.Ranges) != len(ref.Ranges) {
			badRanges[-1] = true
		}
	}
	if len(badNodes) == 0 {
		return nil
	}
	badNodes = append(badNodes, refNode)
	sort.Strings(badNodes)
	ranges := make([]int, 0, len(badRanges))
	for i := range badRanges {
		ranges = append(ranges, i)
	}
	sort.Ints(ranges)
	return &Divergence{Scope: scope, ID: ref.ID, Seq: ref.Seq, Ranges: ranges, Nodes: badNodes}
}

func (a *Auditor) refreshGaugesLocked() {
	var maxLag int64
	var oldest time.Time
	for _, sc := range a.scopes {
		var top uint32
		for _, rep := range sc.replicas {
			if rep.applied > top {
				top = rep.applied
			}
		}
		for _, rep := range sc.replicas {
			if lag := int64(top) - int64(rep.applied); lag > maxLag {
				maxLag = lag
			}
		}
		if !sc.lastAt.IsZero() && (oldest.IsZero() || sc.lastAt.Before(oldest)) {
			oldest = sc.lastAt
		}
	}
	a.lagGauge.Add(maxLag - a.lagGauge.Value())
	var staleMS int64
	if !oldest.IsZero() {
		staleMS = time.Since(oldest).Milliseconds()
	}
	a.staleGauge.Add(staleMS - a.staleGauge.Value())
}

// ReplicaHealth is one replica's row in a scope's health snapshot.
type ReplicaHealth struct {
	Node    string
	Applied uint32
	Lag     uint32
	Stale   bool
}

// ScopeHealth is the health snapshot of one audited scope.
type ScopeHealth struct {
	Scope     string
	Verdict   string
	LastSeq   uint32
	LastAudit time.Time
	Replicas  []ReplicaHealth
	Diverged  *Divergence
}

// Snapshot returns per-scope health, sorted by scope name, restricted to
// scopes whose name starts with prefix ("" for all).
func (a *Auditor) Snapshot(prefix string) []ScopeHealth {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	out := make([]ScopeHealth, 0, len(a.scopes))
	for name, sc := range a.scopes {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		sh := ScopeHealth{Scope: name, Verdict: sc.verdict, LastSeq: sc.lastSeq, LastAudit: sc.lastAt}
		if sc.diverged != nil {
			d := *sc.diverged
			sh.Diverged = &d
		}
		var top uint32
		for _, rep := range sc.replicas {
			if rep.applied > top {
				top = rep.applied
			}
		}
		for node, rep := range sc.replicas {
			sh.Replicas = append(sh.Replicas, ReplicaHealth{
				Node:    node,
				Applied: rep.applied,
				Lag:     top - rep.applied,
				Stale:   now.Sub(rep.lastSeen) > a.staleAfter,
			})
		}
		sort.Slice(sh.Replicas, func(i, j int) bool { return sh.Replicas[i].Node < sh.Replicas[j].Node })
		if sh.Verdict != VerdictDiverged {
			for _, rep := range sh.Replicas {
				if rep.Stale {
					sh.Verdict = VerdictDegraded
					break
				}
			}
		}
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out
}

// Rollup folds the matching scopes' verdicts into one: diverged beats
// degraded beats ok; no audited scope at all is "unknown".
func (a *Auditor) Rollup(prefix string) string {
	scopes := a.Snapshot(prefix)
	if len(scopes) == 0 {
		return VerdictUnknown
	}
	verdict := VerdictOK
	for _, sc := range scopes {
		switch sc.Verdict {
		case VerdictDiverged:
			return VerdictDiverged
		case VerdictDegraded:
			verdict = VerdictDegraded
		case VerdictUnknown:
			if verdict == VerdictOK {
				verdict = VerdictUnknown
			}
		}
	}
	return verdict
}

// Divergences returns every divergence recorded so far.
func (a *Auditor) Divergences() []Divergence {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Divergence(nil), a.divergences...)
}

// Forget drops all state for scopes matching prefix — for a hub that outlives
// the cluster it observed.
func (a *Auditor) Forget(prefix string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for name := range a.scopes {
		if strings.HasPrefix(name, prefix) {
			delete(a.scopes, name)
		}
	}
	a.refreshGaugesLocked()
	a.mu.Unlock()
}

// Summary renders the one-line rollup plus any divergence details — the
// HEALTH wire verb and the top of /health.
func (a *Auditor) Summary(prefix string) string {
	if a == nil {
		return "health: unknown (no auditor)\n"
	}
	scopes := a.Snapshot(prefix)
	var b strings.Builder
	fmt.Fprintf(&b, "health: %s (%d scopes audited)\n", a.Rollup(prefix), len(scopes))
	for _, sc := range scopes {
		if sc.Diverged != nil {
			fmt.Fprintf(&b, "  %s\n", sc.Diverged.String())
		}
	}
	return b.String()
}

// Format renders the live per-scope table — the TOP wire verb:
//
//	SCOPE                 VERDICT   SEQ     LAST-AUDIT  REPLICAS (node applied lag)
//	kv/amoeba-kv/0        ok        1234    118ms       node-0:1234+0 node-1:1230+4
func (a *Auditor) Format(prefix string) string {
	if a == nil {
		return "health: unknown (no auditor)\n"
	}
	scopes := a.Snapshot(prefix)
	if len(scopes) == 0 {
		return "health: no scopes audited\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-9s %-7s %-11s %s\n", "SCOPE", "VERDICT", "SEQ", "LAST-AUDIT", "REPLICAS (node applied lag)")
	for _, sc := range scopes {
		age := "never"
		if !sc.LastAudit.IsZero() {
			age = time.Since(sc.LastAudit).Round(time.Millisecond).String()
		}
		var reps []string
		for _, rep := range sc.Replicas {
			mark := ""
			if rep.Stale {
				mark = "!stale"
			}
			reps = append(reps, fmt.Sprintf("%s:%d+%d%s", rep.Node, rep.Applied, rep.Lag, mark))
		}
		fmt.Fprintf(&b, "%-22s %-9s %-7d %-11s %s\n", sc.Scope, sc.Verdict, sc.LastSeq, age, strings.Join(reps, " "))
	}
	return b.String()
}
