package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-size log-bucketed latency histogram (HDR-style).
// Values are non-negative integers — nanoseconds on every latency path in
// this repo, but nothing assumes a unit. Record is lock-free, wait-free
// and allocation-free: one atomic add into the value's bucket and one
// into the running sum.
//
// # Bucket layout
//
// 128 buckets with 2 sub-bucket bits: values 0–3 get exact buckets, and
// every power-of-two octave above that splits into 4 sub-buckets, so a
// bucket's width is at most 1/4 of its base value and any quantile
// estimate (reported as the bucket's upper bound) overshoots the true
// value by less than 25%. The top octave ends at 2³³−1 ns ≈ 8.6 s;
// larger values clamp into the last bucket, which renders as +Inf.
const (
	// histSubBits is the sub-bucket resolution: 1<<histSubBits sub-buckets
	// per octave, giving ≤ 2^-histSubBits relative bucket width.
	histSubBits = 2
	histSub     = 1 << histSubBits
	// NumBuckets is the fixed bucket count: histSub exact low buckets plus
	// 31 octaves × histSub sub-buckets.
	NumBuckets = histSub + 31*histSub
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the top set bit, ≥ histSubBits
	idx := histSub + (exp-histSubBits)*histSub + int((v>>(exp-histSubBits))&(histSub-1))
	if idx >= NumBuckets {
		return NumBuckets - 1 // clamp: values ≥ 2^33
	}
	return idx
}

// BucketUpper returns bucket i's inclusive upper bound. The last bucket
// holds clamped overflow too, so its nominal bound understates it; the
// Prometheus rendering folds it into +Inf for that reason.
func BucketUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub - 1 + histSubBits
	sub := uint64(i % histSub)
	return 1<<exp + (sub+1)<<(exp-histSubBits) - 1
}

// Histogram records values; Snapshot extracts a consistent-enough copy
// for rendering and quantiles (bucket loads are individually atomic; a
// scrape racing Record may see a count without its sum increment, which
// only perturbs the mean, never a quantile's ordering).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// NewHistogram builds an unregistered histogram (Registry.Histogram
// registers one in the same step).
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation. Negative values clamp to zero so a clock
// anomaly can never corrupt the bucket index.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram: plain,
// serializable values.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64
	Sum    uint64
}

// Count is the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean is the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of the
// bucket containing the rank-⌈q·n⌉ observation, so the estimate e of a
// true value v satisfies v ≤ e < 1.25·v (exact for values < 4). Returns
// 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}
