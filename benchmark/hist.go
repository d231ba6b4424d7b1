package main

import "math/bits"

// hist is a fixed-memory log-linear latency histogram: values below 64 are
// counted exactly, larger ones in 64 sub-buckets per power of two, so a
// reported quantile (the bucket midpoint) is within 0.8% of the true value.
// record allocates nothing and touches one counter, so recording a latency
// does not disturb the allocation and GC figures of the program under test;
// obs.Histogram's power-of-two buckets would make every p50 a factor-of-two
// estimate.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Octaves 2^6 … 2^37 ns (over two minutes, longer than any measurement);
	// larger values clamp into the top bucket.
	histMaxShift = 31
	histBuckets  = (histMaxShift + 2) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return shift*histSub + int(v>>uint(shift))
}

// histValue is the value reported for a bucket: exact below 2·histSub, the
// bucket's midpoint above.
func histValue(idx int) float64 {
	if idx < 2*histSub {
		return float64(idx)
	}
	shift := uint(idx/histSub - 1)
	lower := uint64(idx%histSub+histSub) << shift
	return float64(lower) + float64(uint64(1)<<shift)/2
}

func (h *hist) record(v uint64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q ≤ 1) by the nearest-rank rule, or 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank {
			return histValue(i)
		}
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// shareAtLeast is the fraction of recorded values ≥ v (to bucket resolution).
func (h *hist) shareAtLeast(v uint64) float64 {
	if h.n == 0 {
		return 0
	}
	var c uint64
	for i := histIndex(v); i < histBuckets; i++ {
		c += uint64(h.counts[i])
	}
	return float64(c) / float64(h.n)
}
