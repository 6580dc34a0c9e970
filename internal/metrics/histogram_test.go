package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// exactQuantile computes the true q-quantile of a sorted sample with the
// same rank convention the histogram uses (rank ⌈q·n⌉, 1-based).
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkQuantiles asserts the histogram's estimate brackets the exact
// value: exact ≤ estimate < 1.25·exact + 1 (the documented bound — a
// bucket is at most a quarter of its base value wide, and values below 4
// are exact).
func checkQuantiles(t *testing.T, name string, values []int64) {
	t.Helper()
	h := NewHistogram()
	for _, v := range values {
		h.Record(v)
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		exact := exactQuantile(sorted, q)
		est := h.Snapshot().Quantile(q)
		if est < uint64(exact) {
			t.Errorf("%s: q%g estimate %d below exact %d", name, q, est, exact)
		}
		if bound := uint64(float64(exact)*1.25) + 1; est > bound {
			t.Errorf("%s: q%g estimate %d exceeds %d (exact %d + 25%%)", name, q, est, bound, exact)
		}
	}
}

func TestHistogramQuantilesPointMass(t *testing.T) {
	for _, v := range []int64{0, 1, 3, 4, 7, 100, 1_000_000, 123_456_789} {
		values := make([]int64, 10_000)
		for i := range values {
			values[i] = v
		}
		checkQuantiles(t, "point-mass", values)
	}
}

func TestHistogramQuantilesBimodal(t *testing.T) {
	// 90% fast path around 100 ns, 10% slow path around 2 ms — the exact
	// shape a cache-hit/cache-miss latency split produces. p50 must land
	// in the fast mode, p99/p999 in the slow one.
	rng := rand.New(rand.NewPCG(1, 2))
	values := make([]int64, 50_000)
	for i := range values {
		if rng.Float64() < 0.9 {
			values[i] = 80 + rng.Int64N(40)
		} else {
			values[i] = 1_900_000 + rng.Int64N(200_000)
		}
	}
	checkQuantiles(t, "bimodal", values)
}

func TestHistogramQuantilesHeavyTail(t *testing.T) {
	// Pareto-ish tail over five decades.
	rng := rand.New(rand.NewPCG(3, 4))
	values := make([]int64, 50_000)
	for i := range values {
		u := rng.Float64()
		values[i] = int64(50.0 / (1.0001 - u))
	}
	checkQuantiles(t, "heavy-tail", values)
}

func TestHistogramQuantilesUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	values := make([]int64, 50_000)
	for i := range values {
		values[i] = rng.Int64N(10_000_000)
	}
	checkQuantiles(t, "uniform", values)
}

func TestHistogramOverflowClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(1 << 40) // ~18 minutes: beyond the 2^33-1 range
	h.Record(-5)      // negative clamps to zero
	s := h.Snapshot()
	if got := s.Counts[NumBuckets-1]; got != 1 {
		t.Fatalf("overflow bucket count = %d, want 1", got)
	}
	if got := s.Counts[0]; got != 1 {
		t.Fatalf("zero bucket count = %d, want 1", got)
	}
	if got := s.Quantile(1.0); got != BucketUpper(NumBuckets-1) {
		t.Fatalf("overflow quantile = %d, want clamp bound %d", got, BucketUpper(NumBuckets-1))
	}
}

func TestHistogramBucketBoundsMonotone(t *testing.T) {
	for i := 1; i < NumBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Fatalf("BucketUpper(%d)=%d not above BucketUpper(%d)=%d",
				i, BucketUpper(i), i-1, BucketUpper(i-1))
		}
	}
	// Every value maps into the bucket whose bound brackets it.
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<33 - 1} {
		i := bucketIndex(v)
		if BucketUpper(i) < v {
			t.Errorf("value %d above its bucket %d bound %d", v, i, BucketUpper(i))
		}
		if i > 0 && BucketUpper(i-1) >= v {
			t.Errorf("value %d fits the previous bucket %d (bound %d)", v, i-1, BucketUpper(i-1))
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	const (
		workers = 8
		perG    = 20_000
	)
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed+1))
			for i := 0; i < perG; i++ {
				h.Record(rng.Int64N(1 << 30))
			}
		}(uint64(w))
	}
	// Concurrent scrapes must observe sane intermediate states.
	for i := 0; i < 100; i++ {
		s := h.Snapshot()
		if n := s.Count(); n > workers*perG {
			t.Errorf("snapshot count %d exceeds total records", n)
		}
		_ = s.Quantile(0.99)
	}
	wg.Wait()
	if n := h.Snapshot().Count(); n != workers*perG {
		t.Fatalf("lost records: count %d, want %d", n, workers*perG)
	}
}
