package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly in both modes and holds the output to
// the declared metric lists. The runs share the process and the two cores, so
// the numbers themselves mean nothing here; only that each is present, carries
// its unit, and that the outputs verified.
func TestSmoke(t *testing.T) {
	shrink = 100 // a 200-call ladder, warm-ups of a hundredth, one set-up
	defer func() { shrink = 1 }()
	out := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type run struct {
		sp     *spec
		traced bool
		res    *result
		err    error
	}
	// All eight runs go at once: most of a run is spent waiting out the
	// program's 50 ms retry timer, and go test's own -parallel would hold
	// them to two at a time.
	var runs []*run
	var wg sync.WaitGroup
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			r := &run{sp: sp, traced: traced}
			runs = append(runs, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.res, r.err = runOne(ctx, r.sp, config{seed: 5, window: time.Second, trace: r.traced, out: out})
			}()
		}
	}
	wg.Wait()
	for _, r := range runs {
		name, defs := r.sp.name+"/end-to-end", endToEndDefs
		if r.traced {
			name, defs = r.sp.name+"/per-layer", perLayerDefs
		}
		t.Run(name, func(t *testing.T) {
			if r.err != nil {
				t.Fatal(r.err)
			}
			checkResult(t, r.res, defs)
			if r.traced {
				checkLayers(t, r.sp, r.res, filepath.Join(out, "trace-"+r.sp.name+".json"))
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: printed %+v (present %t), declared unit %q", d.Name, m, ok, d.Unit)
		}
		if d.Bound > 0 && m.Value <= 0 { // only end-to-end metrics carry a bound
			t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func checkLayers(t *testing.T, sp *spec, res *result, spanFile string) {
	positive := []string{"client.attempted_ops", "client.p99_us", "core.msgs_per_op", "trace.spans", "obs.apply_p50_ns"}
	if sp.ladder {
		positive = append(positive, "memnet.frame_p50_us", "core.member_send_p50_us", "kv.client.forwarded_p50_us")
	}
	for _, name := range positive {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("per-layer metric %s = %v, expected it positive", name, res.Metrics[name].Value)
		}
	}
	if res.Metrics["client.failed_ops"].Value != 0 {
		t.Errorf("client.failed_ops = %v", res.Metrics["client.failed_ops"].Value)
	}
	var doc struct {
		Spans []struct {
			Name       string
			Start, End int64
			Parent, Op int
		}
	}
	raw, err := os.ReadFile(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if got := float64(len(doc.Spans)); got <= res.Metrics["trace.spans"].Value {
		t.Errorf("span file holds %v spans; trace.spans = %v, plus their parents, expected", got, res.Metrics["trace.spans"].Value)
	}
	for _, s := range doc.Spans {
		if s.End < s.Start || s.Name == "" {
			t.Fatalf("bad span %+v", s)
		}
	}
}

// TestManifest holds the committed BENCHMARK.json to the tables in metrics.go:
// it lists exactly the workloads and metric names the binary prints.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(committed, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) || len(m.EndToEnd) != len(endToEndDefs) || len(m.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != lower && d.Better != higher) {
			t.Errorf("bad or repeated metric %+v", d)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", lower, 0.25}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !hasSetup || m.RunSeconds != defaultSeconds || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("setup_s declared %t, run_seconds %d, paths %v", hasSetup, m.RunSeconds, m.Paths)
	}
}
