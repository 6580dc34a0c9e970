package metrics

import (
	"strings"
	"testing"
)

// BenchmarkHistogramRecord is gated in CI (bench/baseline.txt): the
// histogram is recorded from inside the ~100 ns enforcement hot path, so
// Record must stay a handful of nanoseconds and allocation-free.
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) & 0xfffff)
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			h.Record(v & 0xfffff)
			v += 97
		}
	})
}

// BenchmarkCounterAdd is gated in CI: sharded counters replace the
// enforcer's per-packet outcome atomics, so Add must stay at one atomic
// add (plus a ~2 ns shard pick on multi-core).
func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkQuantile(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < 100_000; i++ {
		h.Record(i * 37 % 1_000_000)
	}
	s := h.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.99)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{"bp_a_total", "bp_b_total", "bp_c_total"} {
		r.CounterFunc(name, "bench counter", func() uint64 { return 123456 })
	}
	h := NewHistogram()
	r.RegisterHistogram("bp_lat_ns", "bench histogram", h)
	for i := int64(0); i < 10_000; i++ {
		h.Record(i * 131 % 2_000_000)
	}
	var sb strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
