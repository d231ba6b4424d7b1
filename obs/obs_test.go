package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the power-of-two bucketing: bucket i spans
// (2^(i-1), 2^i], bucket 0 holds 0 and 1.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11}, {1 << 40, 40}, {1<<40 + 1, 41}, {^uint64(0), 64 - 1 + 1 - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in a bucket whose upper bound is ≥ the value
	// and whose predecessor's bound is < the value.
	for _, v := range []uint64{1, 2, 3, 100, 1 << 20, 1<<62 + 7} {
		b := bucketOf(v)
		if upper := bucketUpper(b); upper < v {
			t.Errorf("value %d in bucket %d but upper bound %d < value", v, b, upper)
		}
		if b > 0 && bucketUpper(b-1) >= v {
			t.Errorf("value %d in bucket %d but fits bucket %d", v, b, b-1)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond) // bucket (64,128]
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Microsecond) // bucket (8192,16384]
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if p50 := s.Quantile(0.50); p50 != 128 {
		t.Errorf("p50 = %d, want 128", p50)
	}
	if p99 := s.Quantile(0.99); p99 != 10000 {
		// Last populated bucket: Max is the tighter bound.
		t.Errorf("p99 = %d, want 10000 (the max)", p99)
	}
	if s.Max != 10000 {
		t.Errorf("max = %d, want 10000", s.Max)
	}
}

// TestHistogramConcurrent hammers one histogram from many writers under
// -race and checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveValue(uint64(w*per + i))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*per {
		t.Fatalf("count = %d, want %d", s.Count, writers*per)
	}
	if s.Max != writers*per-1 {
		t.Fatalf("max = %d, want %d", s.Max, writers*per-1)
	}
	var sum uint64
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != writers*per {
		t.Fatalf("bucket total = %d, want %d", sum, writers*per)
	}
}

// TestNilSink checks the whole no-op surface: a nil hub and nil instruments
// must absorb every call.
func TestNilSink(t *testing.T) {
	var hub *Hub
	hub.Histogram("x").Observe(time.Second)
	hub.Gauge("y").Add(1)
	hub.Tracer().Add(42, "ev")
	hub.Flight().Record("scope", "ev")
	hub.Registry().RegisterSource(func() []Sample { return nil })
	if hub.Registry().WritePrometheus(nil) != nil {
		t.Fatal("nil registry WritePrometheus must be a no-op")
	}
	if hub.Tracer().Sampled(0) {
		t.Fatal("nil tracer must sample nothing")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
}

// TestFlightWraparound fills the ring past capacity and checks the dump
// keeps only the newest events, in record order.
func TestFlightWraparound(t *testing.T) {
	r := newRecorder(64) // 8 per stripe
	const total = 1000
	for i := 0; i < total; i++ {
		r.Recordf("test", "event-%d", i)
	}
	evs := r.Dump()
	if len(evs) != 64 {
		t.Fatalf("dump kept %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("dump out of order at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	// Only the tail survives: every retained seq is from the last ~64
	// records per stripe.
	if evs[0].Seq < total-8*64 {
		t.Fatalf("dump retained ancient event seq=%d", evs[0].Seq)
	}
	if !strings.Contains(evs[len(evs)-1].Event, fmt.Sprint(total-1)) {
		t.Fatalf("newest event missing: %+v", evs[len(evs)-1])
	}
}

// TestFlightConcurrent exercises the striped ring under -race.
func TestFlightConcurrent(t *testing.T) {
	r := newRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record("w", "ev")
			}
		}()
	}
	wg.Wait()
	if got := len(r.Dump()); got == 0 || got > 128 {
		t.Fatalf("dump size %d, want (0,128]", got)
	}
}

func TestTracerSamplingAndEviction(t *testing.T) {
	tr := newTracer("n0", 10, 2)
	if tr.Sampled(0) {
		t.Fatal("id 0 must never be sampled")
	}
	if tr.Sampled(7) {
		t.Fatal("7 % 10 != 0 must not be sampled")
	}
	tr.Add(10, "a")
	tr.Add(20, "b")
	tr.Add(30, "c") // evicts 10
	if got := tr.Trace(10); got != nil {
		t.Fatalf("trace 10 should be evicted, got %v", got)
	}
	if got := tr.Trace(30); len(got) != 1 || got[0].Event != "c" {
		t.Fatalf("trace 30 = %v", got)
	}
}

func TestMergeTraces(t *testing.T) {
	a, b := newTracer("node-a", 1, 16), newTracer("node-b", 1, 16)
	a.Add(5, "submitted")
	b.Add(5, "sequenced@3")
	a.Add(5, "replied")
	merged := MergeTraces(5, a, b)
	if len(merged) != 3 {
		t.Fatalf("merged %d spans, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At.Before(merged[i-1].At) {
			t.Fatal("merged spans out of time order")
		}
	}
	out := FormatTrace(5, merged)
	for _, want := range []string{"trace 5", "node-a", "node-b", "sequenced@3"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryPrometheus(t *testing.T) {
	hub := NewHub(Options{Node: "n1"})
	hub.Histogram("amoeba_test_ns").Observe(3 * time.Microsecond)
	hub.Gauge("amoeba_test_depth").Add(4)
	hub.Registry().RegisterSource(func() []Sample {
		return []Sample{{Name: "amoeba_test_total", Value: 7}}
	})
	hub.Registry().RegisterSource(func() []Sample {
		return []Sample{{Name: "amoeba_test_total", Value: 5}} // summed with above
	})
	var b strings.Builder
	if err := hub.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`amoeba_test_total{node="n1"} 12`,
		`amoeba_test_depth{node="n1"} 4`,
		`amoeba_test_ns{node="n1",quantile="0.5"}`,
		"amoeba_test_ns_count{node=\"n1\"} 1",
		"# TYPE amoeba_test_ns summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeDeltas(t *testing.T) {
	hub := NewHub(Options{})
	g := hub.Gauge("g")
	if g2 := hub.Gauge("g"); g2 != g {
		t.Fatal("same name must return the same gauge")
	}
	g.Add(5)
	g.Add(-2)
	if v := g.Value(); v != 3 {
		t.Fatalf("gauge = %d, want 3", v)
	}
}

// TestHistogramQuantileEdges pins the quantile contract at the boundaries:
// zero observations, a single sample (including a zero-valued one), and
// values at the top of the range where the recorded max tightens the last
// bucket's bound.
func TestHistogramQuantileEdges(t *testing.T) {
	empty := NewHistogram("empty").Snapshot()
	for _, q := range []float64{0.001, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// A single zero-valued sample lands in bucket 0 (span [0,1]); every
	// quantile answers that bucket's upper bound.
	zero := NewHistogram("zero")
	zero.ObserveValue(0)
	zs := zero.Snapshot()
	for _, q := range []float64{0.001, 0.5, 1} {
		if got := zs.Quantile(q); got != 1 {
			t.Fatalf("single-zero Quantile(%v) = %d, want bucket-0 bound 1", q, got)
		}
	}

	// A single mid-bucket sample: the bucket bound (8 for value 7) exceeds
	// the recorded max, so the max is the tighter answer.
	one := NewHistogram("one")
	one.ObserveValue(7)
	os := one.Snapshot()
	for _, q := range []float64{0.001, 0.5, 1} {
		if got := os.Quantile(q); got != 7 {
			t.Fatalf("single-sample Quantile(%v) = %d, want max 7", q, got)
		}
	}

	// The largest representable value clamps into the last bucket and
	// comes back out intact.
	top := NewHistogram("top")
	top.ObserveValue(^uint64(0))
	ts := top.Snapshot()
	if got := ts.Quantile(1); got != ^uint64(0) {
		t.Fatalf("max-value Quantile(1) = %d, want MaxUint64", got)
	}
	if got := ts.Quantile(0.5); got != ^uint64(0) {
		t.Fatalf("max-value Quantile(0.5) = %d, want MaxUint64 (only sample)", got)
	}

	// A vanishing quantile still ranks at least one observation: with
	// samples in two buckets, q→0 answers the first bucket, q=1 the last.
	two := NewHistogram("two")
	two.ObserveValue(1)
	two.ObserveValue(1000)
	tw := two.Snapshot()
	if got := tw.Quantile(0.0001); got != 1 {
		t.Fatalf("tiny-q Quantile = %d, want first bucket bound 1", got)
	}
	if got := tw.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %d, want max 1000", got)
	}
}

// TestMergeTracesSkewedClocks reassembles one operation's timeline from two
// hubs whose wall clocks disagree. The merge orders by timestamp — with
// skew, an event that causally followed can sort first — and the contract
// is: the output is globally sorted by At, ties are stable in tracer
// argument order, and no span is lost or duplicated.
func TestMergeTracesSkewedClocks(t *testing.T) {
	const id = 42
	a := newTracer("node-a", 1, 16)
	b := newTracer("node-b", 1, 16)
	a.Add(id, "submitted")
	b.Add(id, "sequenced")
	a.Add(id, "delivered")

	// Skew node-b three seconds into the future: its sequenced event now
	// timestamps AFTER node-a's delivery even though it happened between
	// the two.
	base := time.Unix(1000, 0)
	a.mu.Lock()
	a.traces[id][0].At = base
	a.traces[id][1].At = base.Add(2 * time.Millisecond)
	a.mu.Unlock()
	b.mu.Lock()
	b.traces[id][0].At = base.Add(3 * time.Second)
	b.mu.Unlock()

	merged := MergeTraces(id, a, b)
	if len(merged) != 3 {
		t.Fatalf("%d spans, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At.Before(merged[i-1].At) {
			t.Fatalf("merged spans not sorted at %d: %v then %v", i, merged[i-1].At, merged[i].At)
		}
	}
	// The skewed node's span sorts last despite its causal position.
	if merged[2].Node != "node-b" || merged[2].Event != "sequenced" {
		t.Fatalf("last span = %s/%s, want skewed node-b/sequenced", merged[2].Node, merged[2].Event)
	}

	// Exact-tie timestamps: stable sort keeps tracer argument order, so
	// reversing the arguments reverses the tied pair.
	tie := base.Add(time.Hour)
	a.mu.Lock()
	a.traces[id] = []Span{{Node: "node-a", Event: "tied", At: tie}}
	a.mu.Unlock()
	b.mu.Lock()
	b.traces[id] = []Span{{Node: "node-b", Event: "tied", At: tie}}
	b.mu.Unlock()
	ab := MergeTraces(id, a, b)
	ba := MergeTraces(id, b, a)
	if ab[0].Node != "node-a" || ba[0].Node != "node-b" {
		t.Fatalf("tie order ab=%s ba=%s, want stable argument order", ab[0].Node, ba[0].Node)
	}

	// FormatTrace offsets from the first (earliest) span even when a
	// skewed clock produced it.
	out := FormatTrace(id, ab)
	if !strings.Contains(out, "+0") || !strings.Contains(out, "node-a") {
		t.Fatalf("FormatTrace output missing zero offset or node: %q", out)
	}
}

// NewHistogram returns a standalone histogram attached to no registry.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }
