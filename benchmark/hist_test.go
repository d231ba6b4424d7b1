package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistAgainstSort holds the histogram's quantiles to within 1% of an
// exact sort, over values spanning nanoseconds to minutes.
func TestHistAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, gen := range []struct {
		name string
		next func() uint64
	}{
		{"tiny", func() uint64 { return uint64(rng.Intn(300)) }},
		{"lognormal-us", func() uint64 { return uint64(math.Exp(rng.NormFloat64()*1.5 + 10)) }},
		{"bimodal-stall", func() uint64 {
			if rng.Intn(250) == 0 {
				return 50e6 + uint64(rng.Intn(1e6))
			}
			return 20e3 + uint64(rng.Intn(15e3))
		}},
		{"wide", func() uint64 { return uint64(rng.Int63n(1 << 37)) }},
	} {
		var h hist
		exact := make([]uint64, 200000)
		var sum uint64
		for i := range exact {
			exact[i] = gen.next()
			h.record(exact[i])
			sum += exact[i]
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(exact[int(math.Ceil(q*float64(len(exact))))-1])
			got := h.quantile(q)
			if math.Abs(got-want) > 0.01*want+0.5 {
				t.Errorf("%s: q%.3f = %.1f, exact %.1f", gen.name, q, got, want)
			}
		}
		if h.max != exact[len(exact)-1] || h.n != uint64(len(exact)) || h.sum != sum {
			t.Errorf("%s: max/n/sum = %d/%d/%d, want %d/%d/%d", gen.name, h.max, h.n, h.sum, exact[len(exact)-1], len(exact), sum)
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 257, 511, 512, 1 << 20, 1<<20 + 1<<13, 1 << 41, 1 << 42, 1 << 63} {
		idx := histIndex(v)
		if idx < prev || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d (buckets %d)", v, idx, prev, histBuckets)
		}
		prev = idx
	}
	for v := uint64(0); v < 1<<12; v++ {
		if got := histValue(histIndex(v)); math.Abs(got-float64(v)) > 0.008*float64(v)+0.5 {
			t.Fatalf("value %d reported as %.1f", v, got)
		}
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(123456) }); n != 0 {
		t.Fatalf("record allocates %.0f times", n)
	}
}

func TestHistShareAtLeastAndMerge(t *testing.T) {
	var a, b hist
	for i := 0; i < 990; i++ {
		a.record(25e3)
	}
	for i := 0; i < 10; i++ {
		b.record(50e6)
	}
	a.merge(&b)
	if got := a.shareAtLeast(10e6); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("stall share %.4f, want 0.01", got)
	}
	if a.n != 1000 || a.max != 50e6 {
		t.Fatalf("merged n=%d max=%d", a.n, a.max)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// python3 -c "import statistics; print(statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4))"
	// → [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
	// → [1.5, 3.0, 4.5] for [1,2,3,4,5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Fatalf("quartiles = %v, %v; want 1.5, 4.5", q1, q3)
	}
}
