package audit

import (
	"io"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

// BenchmarkRecord measures the hot-path cost charged to the enforcement
// pipeline: one stripe append, no JSON. The stats-only configuration keeps
// the background drainer allocation-free so the number reflects sustained
// recording, not a one-shot burst.
func BenchmarkRecord(b *testing.B) {
	l := NewWithConfig(Config{})
	defer l.Close()
	pkt := samplePacket()
	res := enforcer.Result{Verdict: policy.VerdictAllow}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(pkt, res)
	}
	b.StopTimer()
	b.ReportMetric(float64(count(l, "dropped_total"))/float64(b.N), "dropped/op")
}

// BenchmarkRecordBatch is the per-packet cost when the batched gateway
// drain charges the audit pipeline once per 64-packet burst.
func BenchmarkRecordBatch(b *testing.B) {
	l := NewWithConfig(Config{})
	defer l.Close()
	pkts := make([]*ipv4.Packet, 64)
	res := make([]enforcer.Result, 64)
	for i := range pkts {
		pkts[i] = samplePacket()
		res[i] = enforcer.Result{Verdict: policy.VerdictAllow}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pkts) {
		l.RecordBatch(pkts, res)
	}
	b.StopTimer()
	b.ReportMetric(float64(count(l, "dropped_total"))/float64(b.N), "dropped/op")
}

// BenchmarkRecordDrainJSON is the full sustained pipeline — stripe append
// plus the background drainer JSON-encoding every entry to a discarded
// writer. This is the number to compare against the old synchronous
// mutex+encode Record.
func BenchmarkRecordDrainJSON(b *testing.B) {
	l := NewWithConfig(Config{Writer: io.Discard})
	defer l.Close()
	pkt := samplePacket()
	res := enforcer.Result{Verdict: policy.VerdictAllow}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(pkt, res)
	}
	b.StopTimer()
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	// Under saturation the bounded queue sheds load by design; surface how
	// much of it this run kept.
	b.ReportMetric(float64(count(l, "dropped_total"))/float64(b.N), "dropped/op")
}

// BenchmarkRecordParallel drives Record from every core against one log —
// the stripe layout must keep producers from serializing.
func BenchmarkRecordParallel(b *testing.B) {
	l := NewWithConfig(Config{})
	defer l.Close()
	res := enforcer.Result{Verdict: policy.VerdictAllow}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pkt := samplePacket()
		for pb.Next() {
			l.Record(pkt, res)
		}
	})
}
