package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares one metric. Bound, for end-to-end metrics only, is the
// share of the parent's median by which the metric may worsen before a change
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the gated metrics, the same five on every workload, all
// measured untraced over the whole run. Allocation counts and live heap repeat
// within a third of their bounds (NOISE.md). The two timings carry the widest
// bound the contract allows: leased-read and proxied-mix keep both cores busy
// and follow this shared host's CPU speed, which drifts by 20% within hours.
// The ISSUE's other four candidates are reported per layer instead, because
// identical runs spread 10–24% on them, more than a 25% bound can hold
// (README.md, "Moved out of the gate"): the three median latencies
// (client.p50_us …) and CPU time per op (runtime.cpu_us_per_op).
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "op/s", higher, 0.25},
	{"allocs_per_op", "count", lower, 0.05},
	{"alloc_bytes_per_op", "B", lower, 0.05},
	{"live_heap_mb", "MB", lower, 0.10},
}

// perLayerDefs are the ungated metrics of single layers, printed by -trace 1.
// The layers are the repository's modules.
var perLayerDefs = append(append([]metricDef(nil), workloadDefs...), ladderDefs...)

// workloadDefs come from the workload's two passes, untraced and traced.
var workloadDefs = defs(
	// client: the harness's own histogram over every call of the workload.
	"client.p50_us us lower", "client.write_p50_us us lower", "client.read_p50_us us lower",
	"client.mean_us us lower", "client.p90_us us lower", "client.p99_us us lower",
	"client.p999_us us lower", "client.max_us us lower", "client.stall_share share lower",
	"client.failed_ops count lower", "client.attempted_ops count higher",
	// kv: deltas of Client.Stats, Service.Stats and Store.LeaseStats.
	"kv.client.local_share share higher", "kv.client.lease_read_share share higher",
	"kv.client.routing_updates count lower", "kv.service.forwarded_share share lower",
	"kv.service.scattered count lower", "kv.service.errors count lower",
	"kv.lease.fallback_share share lower",
	// core: Replica.Stats summed over every replica.
	"core.msgs_per_op count lower", "core.batch_fill count higher", "core.batched_share share higher",
	"core.max_batch count higher", "core.retries_per_kop count lower",
	// wal: Replica.DurabilityStats().Log summed over every replica.
	"wal.appends_per_op count lower", "wal.entries_per_append count higher", "wal.syncs_per_op count lower",
	"wal.checkpoints count lower", "wal.disk_mb MB lower",
	"runtime.cpu_us_per_op us lower", "runtime.gc_cycles count lower", "runtime.gc_pause_ms ms lower",
	"runtime.goroutines count lower", "runtime.peak_rss_mb MB lower",
	// traced pass: the workload again with an obs.Hub wired through.
	"obs.seq_append_p50_ns ns lower", "obs.seq_multicast_p50_ns ns lower", "obs.seq_ack_complete_p50_ns ns lower",
	"obs.deliver_wait_p50_ns ns lower", "obs.apply_p50_ns ns lower", "obs.wal_append_p50_ns ns lower",
	"obs.batch_fill_p50 count higher",
	"trace.overhead_pct % lower", "trace.spans count higher",
	"client.open_p50_us us lower", "client.open_p99_us us lower", "client.open_late_p99_us us lower",
)

// ladderDefs come from the layer ladder: one caller on an idle 3-node fabric,
// each layer's public calls timed from outside. The ladder does not depend on
// the workload, so only ordered-put's traced run climbs it (that is the
// workload ladder.unattributed_us is defined on); the others print 0 for these.
var ladderDefs = defs(
	"memnet.frame_p50_us us lower", "flip.unicast_p50_us us lower",
	"rpc.null_call_p50_us us lower", "rpc.null_call_allocs count lower",
	"core.seq_send_p50_us us lower", "core.member_send_p50_us us lower", "core.member_send_mean_us us lower",
	"core.member_send_stall_share share lower", "core.member_send_allocs count lower",
	"core.send_batch16_p50_us us lower", "shared.submit_p50_us us lower",
	"wal.append_p50_us us lower", "wal.append_sync_p50_us us lower",
	"kv.codec.roundtrip_ns ns lower", "kv.codec.roundtrip_allocs count lower",
	"kv.client.local_p50_us us lower", "kv.client.direct_p50_us us lower", "kv.client.forwarded_p50_us us lower",
	"kv.client.leased_p50_us us lower", "kv.client.stale_p50_us us lower",
	"flip.self_us us lower", "rpc.self_us us lower", "core.self_us us lower",
	"shared.self_us us lower", "kv.self_us us lower", "ladder.unattributed_us us lower",
)

func defs(lines ...string) []metricDef {
	out := make([]metricDef, len(lines))
	for i, l := range lines {
		f := strings.Fields(l)
		out[i] = metricDef{Name: f[0], Unit: f[1], Better: f[2]}
	}
	return out
}

// manifestJSON renders BENCHMARK.json from the tables above; a test holds the
// committed file to it.
func manifestJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndDefs,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workload{s.name, s.why})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables are constants; this cannot fail
	}
	return append(b, '\n')
}
