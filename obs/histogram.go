package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count: bucket i holds observations v with
// 2^(i-1) < v ≤ 2^i (bucket 0 holds 0 and 1). 63 buckets cover every
// uint64, so nanosecond latencies from 1ns to ~292 years land somewhere.
const histBuckets = 64

// Histogram is a fixed-bucket power-of-two histogram safe for concurrent
// writers: one atomic add on the hot path, no locks, no allocation. The
// zero-cost no-op sink is a nil *Histogram — every method nil-checks.
//
// Buckets are powers of two in nanoseconds, which makes quantiles exact to
// a factor of two — plenty for "where does a p99 Put spend its time" and
// cheap enough to leave compiled into the sequencer's ordering path.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns a standalone histogram attached to no registry — for
// ad-hoc measurement (e.g. the kv load driver's per-op latencies).
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// bucketOf maps a value to its bucket index: the position of the highest
// set bit, so bucket i spans (2^(i-1), 2^i].
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(v - 1)
	if b >= histBuckets {
		b = histBuckets - 1 // v > 2^63: clamp into the last bucket
	}
	return b
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) uint64 {
	if i >= 63 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	h.ObserveValue(uint64(d))
}

// ObserveValue records one unitless value (queue depth, batch fill).
func (h *Histogram) ObserveValue(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time read of a histogram.
type HistSnapshot struct {
	Name  string
	Count uint64
	Sum   uint64
	Max   uint64
	// Buckets[i] counts observations in (2^(i-1), 2^i].
	Buckets [histBuckets]uint64
}

// Snapshot reads the histogram. Concurrent writers may tear count vs
// buckets by a few observations; quantiles are bucket-granular anyway.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Name: h.name, Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the upper bound of the bucket containing quantile q
// (0 < q ≤ 1) — exact to a factor of two. Zero observations yield 0.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			u := bucketUpper(i)
			if u > s.Max && s.Max > 0 {
				return s.Max // last bucket: the max is a tighter bound
			}
			return u
		}
	}
	return s.Max
}

// Gauge is a concurrent counter-style gauge (current value, not monotonic).
// Every writer applies deltas, never absolute sets, so several shard groups
// on one node can share a node-level gauge (total queue depth) without
// clobbering each other. A nil *Gauge is the no-op sink.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Add applies a delta.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
