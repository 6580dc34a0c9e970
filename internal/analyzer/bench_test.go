package analyzer

import (
	"fmt"
	"testing"
	"time"

	"borderpatrol/internal/dex"
)

// buildBenchAPK creates an apk with roughly n method signatures.
func buildBenchAPK(n int) *dex.APK {
	perClass := 32
	classes := make([]dex.ClassDef, 0, n/perClass+1)
	made := 0
	for made < n {
		methods := make([]dex.MethodDef, 0, perClass)
		for j := 0; j < perClass && made < n; j++ {
			methods = append(methods, dex.MethodDef{
				Name: fmt.Sprintf("m%04d", j), Proto: "()V",
				File: "C.java", StartLine: j * 4, EndLine: j*4 + 3,
			})
			made++
		}
		classes = append(classes, dex.ClassDef{
			Package: fmt.Sprintf("com/bench/p%03d", len(classes)),
			Name:    fmt.Sprintf("C%03d", len(classes)),
			Methods: methods,
		})
	}
	return &dex.APK{
		PackageName: fmt.Sprintf("com.bench.app%d", n),
		VersionCode: 1,
		Dexes:       []*dex.File{{Classes: classes}},
	}
}

// Provisioning-time cost: analyzing one apk into the database.
func benchmarkAnalyze(b *testing.B, methods int) {
	b.Helper()
	apk := buildBenchAPK(methods)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apk.Invalidate()
		if _, err := AnalyzeAPK(apk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeAPK1kMethods(b *testing.B)  { benchmarkAnalyze(b, 1000) }
func BenchmarkAnalyzeAPK10kMethods(b *testing.B) { benchmarkAnalyze(b, 10000) }

// Enforcement-path cost: per-packet stack decoding against the database.
func BenchmarkDecodeStack(b *testing.B) {
	apk := buildBenchAPK(5000)
	db := NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
	}
	tr := apk.Truncated()
	indexes := []uint32{12, 871, 2400, 4999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.DecodeStack(tr, indexes); err != nil {
			b.Fatal(err)
		}
	}
}

// Enforcement-path cost with the resolver handle: one lookup per packet,
// lock-free per-frame decoding into a reused buffer (0 allocs steady
// state).
func BenchmarkResolverDecodeStackInto(b *testing.B) {
	apk := buildBenchAPK(5000)
	db := NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
	}
	tr := apk.Truncated()
	indexes := []uint32{12, 871, 2400, 4999}
	buf := make([]dex.Signature, 0, len(indexes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := db.Resolve(tr)
		if !ok {
			b.Fatal("resolve failed")
		}
		var err error
		buf, err = r.DecodeStackInto(buf, indexes)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticEntry builds a small unique AppEntry for provisioning-churn
// benchmarks: the hash is derived from i, so every call inserts a fresh
// app without analyzing an apk.
func syntheticEntry(i int) AppEntry {
	return AppEntry{
		Hash:        fmt.Sprintf("%016x%016x", 0xfeed00000000+uint64(i), uint64(i)),
		PackageName: fmt.Sprintf("com.churn.app%d", i),
		VersionCode: 1,
		Signatures:  []string{"Lcom/churn/A;->m()V"},
	}
}

// BenchmarkResolveParallel is the fleet-scale read path with no
// management-plane churn: every goroutine resolves the same hot app.
func BenchmarkResolveParallel(b *testing.B) {
	apk := buildBenchAPK(5000)
	db := NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
	}
	tr := apk.Truncated()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := db.Resolve(tr); !ok {
				b.Error("resolve failed")
				return
			}
		}
	})
}

// benchmarkResolveUnderWriter drives parallel resolves while one goroutine
// provisions fresh apps; pace throttles the writer (0 = continuous). The
// continuous writer is the hostile worst case — on a single-core runner it
// also time-shares the CPU with the readers, so the paced variant is the
// one that isolates lock contention (see PERFORMANCE.md).
func benchmarkResolveUnderWriter(b *testing.B, pace time.Duration) {
	b.Helper()
	apk := buildBenchAPK(5000)
	db := NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
	}
	tr := apk.Truncated()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.AddEntry(syntheticEntry(i)); err != nil {
				b.Error(err)
				return
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := db.Resolve(tr); !ok {
				b.Error("resolve failed")
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkResolveParallelWithWriter is the tentpole acceptance benchmark:
// resolve cost with a provisioning writer churning at a heavy-but-realistic
// fleet rate (~10k apps/s) must stay within noise of
// BenchmarkResolveParallel — the writer contends only within the one shard
// each insert lands on.
func BenchmarkResolveParallelWithWriter(b *testing.B) {
	benchmarkResolveUnderWriter(b, 100*time.Microsecond)
}

// BenchmarkResolveParallelWithHotWriter removes the pacing: the writer
// provisions as fast as one core can. This measures the absolute floor
// under management-plane saturation (CPU sharing included).
func BenchmarkResolveParallelWithHotWriter(b *testing.B) {
	benchmarkResolveUnderWriter(b, 0)
}
