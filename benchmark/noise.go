package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does:
// the driver judges the benchmark's spread with that function.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// worse is by what share of a's median side b's median is worse than a's, in
// the metric's own direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// noisePath is where runAA writes its report.
const noisePath = "benchmark/NOISE.md"

// runAA runs n full sets of the workloads twice over, alternating the two
// sides, all on the same code, and writes the A/A report: what two
// measurements of one program differ by. Every gap between the sides' medians
// must stay within half the metric's bound; otherwise the metric is too noisy
// to gate on and runAA fails.
func runAA(cfg config, n int) error {
	if n < 5 {
		return fmt.Errorf("-aa needs at least 5 sets a side, got %d", n)
	}
	// sides[side][workload][metric] lists the metric's value in each set.
	var sides [2]map[string]map[string][]float64
	for s := range sides {
		sides[s] = map[string]map[string][]float64{}
	}
	for set := 0; set < 2*n; set++ {
		side := set % 2
		run := cfg
		run.seed = cfg.seed + int64(set)
		fmt.Fprintf(os.Stderr, "benchmark: A/A set %d of %d (side %c, seed %d)\n", set+1, 2*n, 'A'+side, run.seed)
		results, err := runAll(run, io.Discard)
		if err != nil {
			return err
		}
		for name, res := range results {
			if sides[side][name] == nil {
				sides[side][name] = map[string][]float64{}
			}
			for metric, v := range res.Metrics {
				sides[side][name][metric] = append(sides[side][name][metric], v.Value)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# A/A noise report\n\n")
	fmt.Fprintf(&b, "Written by `go run ./benchmark -aa %d -seconds %v -seed %d`: %d full sets a side,\n", n, cfg.window.Seconds(), cfg.seed, n)
	fmt.Fprintf(&b, "sides alternating, every set on its own seed, both sides the same code.\n")
	fmt.Fprintf(&b, "`gap` is by how much side B's median is worse than side A's, as a share of A's;\n")
	fmt.Fprintf(&b, "`spread` is (Q3 − Q1) / median per side, quartiles as Python's\n")
	fmt.Fprintf(&b, "`statistics.quantiles(v, n=4)`; `spread A+B` pools both sides, which is what the\n")
	fmt.Fprintf(&b, "driver computes over its ten runs. A metric may gate only while |gap| ≤ bound / 2.\n\n")
	fmt.Fprintf(&b, "Stamp: `%s`\n", stampLine())
	var failures []string
	for _, sp := range specs {
		fmt.Fprintf(&b, "\n## %s\n\n", sp.name)
		fmt.Fprintf(&b, "| metric | unit | median A | median B | gap | spread A | spread B | spread A+B | bound | verdict |\n")
		fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
		for _, d := range endToEndDefs {
			a, bb := sides[0][sp.name][d.Name], sides[1][sp.name][d.Name]
			gap := worse(d, median(a), median(bb))
			verdict := "ok"
			if math.Abs(gap) > d.Bound/2 {
				verdict = "TOO NOISY"
				failures = append(failures, fmt.Sprintf("%s %s: gap %.1f%% exceeds half of bound %.0f%%", sp.name, d.Name, 100*gap, 100*d.Bound))
			}
			fmt.Fprintf(&b, "| %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, median(a), median(bb), 100*gap, 100*spread(a), 100*spread(bb),
				100*spread(append(append([]float64(nil), a...), bb...)), 100*d.Bound, verdict)
		}
	}
	if err := os.WriteFile(noisePath, []byte(b.String()), 0o644); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("A/A gaps beyond half their bound (move these to per_layer):\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
