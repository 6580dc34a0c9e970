package audit

import (
	"io"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

// keptEvery is how many entries the kept-path benchmarks record between
// off-the-clock flushes: a quarter of the queue, so the queue
// never fills and never reaches the half-full yield.
const keptEvery = 1024

// BenchmarkRecord measures the hot-path cost charged to the enforcement
// pipeline per recorded entry: one queue append, no JSON. The stats-only
// configuration keeps the background drainer allocation-free, and a
// Flush off the clock every keptEvery entries keeps the queue from
// filling, so every entry is kept. (Timed against a queue left to fill,
// the number would mostly be the shed, and it would read better the
// slower the drainer is.)
func BenchmarkRecord(b *testing.B) {
	l := New(nil, 0)
	defer l.Close()
	pkt := samplePacket()
	res := enforcer.Result{Verdict: policy.VerdictAllow}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%keptEvery == keptEvery-1 {
			b.StopTimer()
			l.Flush()
			b.StartTimer()
		}
		l.Record(pkt, res)
	}
	b.StopTimer()
	if dropped := count(l, "dropped_total"); dropped != 0 {
		b.Fatalf("%d of %d entries shed: the benchmark times the kept path", dropped, b.N)
	}
}

// BenchmarkRecordBatch is the per-packet cost when the batched gateway
// drain charges the audit pipeline once per 64-packet burst, every entry
// kept (see BenchmarkRecord).
func BenchmarkRecordBatch(b *testing.B) {
	l := New(nil, 0)
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
		if i%keptEvery == 0 && i > 0 {
			b.StopTimer()
			l.Flush()
			b.StartTimer()
		}
		l.RecordBatch(pkts, res)
	}
	b.StopTimer()
	if dropped := count(l, "dropped_total"); dropped != 0 {
		b.Fatalf("%d entries shed: the benchmark times the kept path", dropped)
	}
}

// BenchmarkRecordDrainJSON is the full sustained pipeline — queue append
// plus the background drainer JSON-encoding every entry to a discarded
// writer. This is the number to compare against the old synchronous
// mutex+encode Record.
func BenchmarkRecordDrainJSON(b *testing.B) {
	l := New(io.Discard, 0)
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
// the producers meet at the one queue lock.
func BenchmarkRecordParallel(b *testing.B) {
	l := New(nil, 0)
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
