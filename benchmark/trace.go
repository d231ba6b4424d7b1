package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"amoeba/obs"
)

// Caps on the spans one log keeps: a traced leased-read window makes over a
// million calls, and a log that grew with them would change the GC pacing it
// is there to observe. Later spans are counted, not kept.
const (
	callerSpanCap = 1 << 15
	rungSpanCap   = 1 << 10
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later change). Times are nanoseconds
// since the log's epoch.
type span struct {
	name       string
	start, end int64
	op         int // the call's index within its parent; spans of one call share it
}

// spanLog is a parent span (a traced window, a ladder rung) and the calls made
// under it, kept in memory until the run ends. One goroutine writes a log.
type spanLog struct {
	name    string
	epoch   time.Time
	begin   int64
	end     int64
	spans   []span
	dropped int
}

func newSpanLog(name string, epoch time.Time, capacity int) *spanLog {
	return &spanLog{name: name, epoch: epoch, begin: int64(time.Since(epoch)), spans: make([]span, 0, capacity)}
}

func (l *spanLog) add(name string, t0, t1 time.Time) {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name, int64(t0.Sub(l.epoch)), int64(t1.Sub(l.epoch)), len(l.spans)})
}

func (l *spanLog) close() { l.end = int64(time.Since(l.epoch)) }

// writeSpans writes the logs as one JSON document: every span has a name, a
// start, an end, its parent's id and its op; a log's parent span comes first.
func writeSpans(path string, stamp map[string]string, logs []*spanLog) (kept int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		f.Close()
		return 0, err
	}
	fmt.Fprintf(w, "{\"stamp\": %s,\n \"spans\": [\n", stampJSON)
	id := 0
	for _, l := range logs {
		if id > 0 {
			fmt.Fprint(w, ",\n")
		}
		parent := id
		fmt.Fprintf(w, "  {\"id\": %d, \"name\": %q, \"start\": %d, \"end\": %d, \"parent\": -1, \"op\": -1, \"dropped\": %d}",
			id, l.name, l.begin, l.end, l.dropped)
		id++
		for _, s := range l.spans {
			fmt.Fprintf(w, ",\n  {\"id\": %d, \"name\": %q, \"start\": %d, \"end\": %d, \"parent\": %d, \"op\": %d}",
				id, s.name, s.start, s.end, parent, s.op)
			id++
		}
		kept += len(l.spans)
	}
	fmt.Fprint(w, "\n ]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return kept, f.Close()
}

// stageHistograms maps the hub's stage histograms onto the metrics that
// report their medians.
var stageHistograms = map[string]string{
	"amoeba_seq_append_ns":         "obs.seq_append_p50_ns",
	"amoeba_seq_multicast_ns":      "obs.seq_multicast_p50_ns",
	"amoeba_seq_ack_complete_ns":   "obs.seq_ack_complete_p50_ns",
	"amoeba_group_deliver_wait_ns": "obs.deliver_wait_p50_ns",
	"amoeba_replica_apply_ns":      "obs.apply_p50_ns",
	"amoeba_wal_append_ns":         "obs.wal_append_p50_ns",
	"amoeba_seq_batch_fill":        "obs.batch_fill_p50",
}

// stageMedians returns the median of each stage histogram over the interval
// between two registry snapshots (the hub also saw the preload and warm-up).
func stageMedians(before, after []obs.HistSnapshot) map[string]float64 {
	was := make(map[string]obs.HistSnapshot, len(before))
	for _, h := range before {
		was[h.Name] = h
	}
	out := make(map[string]float64, len(stageHistograms))
	for _, metric := range stageHistograms {
		out[metric] = 0 // a stage this workload never runs (no WAL, say)
	}
	for _, h := range after {
		metric, ok := stageHistograms[h.Name]
		if !ok {
			continue
		}
		old := was[h.Name]
		h.Count -= old.Count
		h.Sum -= old.Sum
		for i := range h.Buckets {
			h.Buckets[i] -= old.Buckets[i]
		}
		out[metric] = float64(h.Quantile(0.5))
	}
	return out
}

const (
	probeRate = 1000 // calls per second of the open-loop probe
	// probeShare of the run's seconds go to the probe.
	probeShare = 10
)

// openLoopProbe issues cl's ops on a fixed schedule, one every 1/probeRate
// seconds whether or not the store keeps up, and times each from when it was
// due: a stall then also costs the calls queued behind it, which a closed loop
// hides. late is how far behind schedule the generator itself ran. On this
// two-core host the pacing sleeps measure the host as much as the program, so
// these are layer metrics and gate nothing.
func openLoopProbe(ctx context.Context, cl *caller, dur time.Duration) (latency, late *hist) {
	latency, late = new(hist), new(hist)
	interval := time.Second / probeRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			return latency, late
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		if _, _, ok := cl.call(ctx); ok {
			latency.record(uint64(time.Since(due)))
			late.record(uint64(sent.Sub(due)))
		}
	}
}

// runTraced produces the per-layer metrics of one workload, in three passes:
// the workload untraced (layer counters, and the baseline for the tracing
// overhead), the workload again with an obs.Hub wired through every group,
// log and client and a harness span around every call, and (in ordered-put's
// run) the layer ladder.
func runTraced(ctx context.Context, sp *spec, cfg config) (*result, error) {
	keys := keyTable()
	window := cfg.window * 3 / 10
	epoch := time.Now()

	c, callers, _, err := setUp(ctx, sp, cfg, nil, keys)
	if err != nil {
		return nil, err
	}
	before := c.counters()
	plain := runMeasurement(ctx, callers, window)
	values := layerMetrics(plain, callers, before, c.counters(), c.diskMB())
	err = verify(c, callers, keys)
	c.close()
	if err != nil {
		return nil, fmt.Errorf("%s: wrong output: %w", sp.name, err)
	}
	attempted, _ := attempts(callers)

	hub := obs.NewHub(obs.Options{Node: "bench"})
	c, callers, _, err = setUp(ctx, sp, cfg, hub, keys)
	if err != nil {
		return nil, err
	}
	var logs []*spanLog
	for _, cl := range callers {
		cl.span = newSpanLog(fmt.Sprintf("traced/%s/caller-%d", sp.name, cl.id), epoch, callerSpanCap)
		logs = append(logs, cl.span)
	}
	stagesBefore := hub.Registry().Histograms()
	traced := runMeasurement(ctx, callers, window)
	for k, v := range stageMedians(stagesBefore, hub.Registry().Histograms()) {
		values[k] = v
	}
	for _, cl := range callers {
		cl.span.close()
		cl.span = nil
	}
	values["trace.overhead_pct"] = 100 * (1 - traced.opsPerSec()/plain.opsPerSec())
	open, late := new(hist), new(hist)
	if sp.proxied {
		open, late = openLoopProbe(ctx, callers[0], cfg.window/probeShare)
	}
	values["client.open_p50_us"] = open.quantile(0.5) / 1e3
	values["client.open_p99_us"] = open.quantile(0.99) / 1e3
	values["client.open_late_p99_us"] = late.quantile(0.99) / 1e3
	err = verify(c, callers, keys)
	c.close()
	if err != nil {
		return nil, fmt.Errorf("%s: wrong output in the traced pass: %w", sp.name, err)
	}
	more, _ := attempts(callers)
	attempted += more

	// The ladder does not depend on the workload: one traced run climbs it.
	for _, d := range ladderDefs {
		values[d.Name] = 0
	}
	if sp.ladder {
		rungs, ladderLogs, err := runLadder(ctx, cfg, epoch)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range rungs {
			values[k] = v
		}
		// What the 2-caller workload's median call costs beyond the 1-caller
		// ladder's account of an ordered op: two frames, FLIP twice, then
		// core, shared and kv on top.
		values["ladder.unattributed_us"] = values["client.p50_us"] -
			(2*rungs["memnet.frame_p50_us"] + 2*rungs["flip.self_us"] + rungs["core.self_us"] + rungs["shared.self_us"] + rungs["kv.self_us"])
		logs = append(logs, ladderLogs...)
	}

	kept, err := writeSpans(filepath.Join(cfg.out, "trace-"+sp.name+".json"), stamp(), logs)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	values["trace.spans"] = float64(kept)
	return newResult(perLayerDefs, values, attempted)
}
