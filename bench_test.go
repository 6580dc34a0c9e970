package borderpatrol

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured numbers). Latency benchmarks report the
// virtual per-request latency as the custom metric "virt-ms/req" alongside
// the usual wall-clock ns/op.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/tag"
)

// benchCorpus caches a mid-size corpus across benchmarks.
var benchCorpus []*apkgen.App

func corpusForBench(b *testing.B, n int) []*apkgen.App {
	b.Helper()
	if len(benchCorpus) < n {
		cfg := apkgen.DefaultConfig()
		cfg.Apps = n
		var err error
		benchCorpus, err = apkgen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return benchCorpus[:n]
}

// BenchmarkFig3IoIHistogram regenerates Figure 3: monkey-exercise the
// corpus with the Context Manager tagging, then compute the IoI histogram.
// Each iteration analyzes a 200-app slice with 1,000 events per app.
func BenchmarkFig3IoIHistogram(b *testing.B) {
	corpus := corpusForBench(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(experiments.Fig3Config{
			Corpus:       corpus,
			MonkeyEvents: 1000,
			MonkeySeed:   int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Analysis.AppsWithIoI == 0 {
			b.Fatal("no IoIs")
		}
	}
}

// BenchmarkValidationTrackerBlocking regenerates the §VI-B1 validation:
// 1,050 deny rules over a library-covering app sample, dual run.
func BenchmarkValidationTrackerBlocking(b *testing.B) {
	corpus := corpusForBench(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunValidation(experiments.ValidationConfig{
			Corpus:       corpus,
			SampleSize:   20,
			TopLibraries: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.TrackerPacketsDropped != res.TrackerPacketsTotal {
			b.Fatal("validation precision lost")
		}
	}
}

// BenchmarkCaseStudyCloudStorage regenerates the §VI-C Dropbox/Box table.
func BenchmarkCaseStudyCloudStorage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCloudCaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Precise() {
			b.Fatal("case study imprecise")
		}
	}
}

// BenchmarkCaseStudyFacebookSDK regenerates the §VI-C SolCalendar table.
func BenchmarkCaseStudyFacebookSDK(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFacebookCaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Precise() {
			b.Fatal("case study imprecise")
		}
	}
}

// benchmarkFig4Config measures one Figure 4 configuration; b.N requests.
func benchmarkFig4Config(b *testing.B, id experiments.Fig4ConfigID) {
	b.Helper()
	b.ReportAllocs()
	iters := b.N
	point, err := experiments.RunFig4Config(id, experiments.Fig4Options{Iterations: iters, Runs: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(point.MeanLatency)/float64(time.Millisecond), "virt-ms/req")
}

// BenchmarkFig4LatencyConfigI..VI regenerate the six Figure 4 bars.
func BenchmarkFig4LatencyConfigI(b *testing.B) {
	benchmarkFig4Config(b, experiments.ConfigDefaultSLIRP)
}
func BenchmarkFig4LatencyConfigII(b *testing.B) {
	benchmarkFig4Config(b, experiments.ConfigDefaultTAP)
}
func BenchmarkFig4LatencyConfigIII(b *testing.B) {
	benchmarkFig4Config(b, experiments.ConfigTAPNFQueue)
}
func BenchmarkFig4LatencyConfigIV(b *testing.B) {
	benchmarkFig4Config(b, experiments.ConfigStaticInject)
}
func BenchmarkFig4LatencyConfigV(b *testing.B) {
	benchmarkFig4Config(b, experiments.ConfigStaticGetStack)
}
func BenchmarkFig4LatencyConfigVI(b *testing.B) {
	benchmarkFig4Config(b, experiments.ConfigDynamic)
}

// BenchmarkKeepAliveAmortization regenerates the §VI-D amortization sweep.
func BenchmarkKeepAliveAmortization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunKeepAliveAmortization([]int{1, 10, 100}, 20)
		if err != nil {
			b.Fatal(err)
		}
		if points[2].MeanPerRequest >= points[0].MeanPerRequest {
			b.Fatal("no amortization")
		}
	}
}

// BenchmarkFlowSizeBaseline regenerates the §VII flow-size and
// threshold-evasion analysis.
func BenchmarkFlowSizeBaseline(b *testing.B) {
	corpus := corpusForBench(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFlowSize(corpus, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if res.FragmentedBlocked {
			b.Fatal("evasion unexpectedly detected by threshold")
		}
	}
}

// BenchmarkTagReplayMitigation regenerates the §VII set-once comparison.
func BenchmarkTagReplayMitigation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunReplay()
		if err != nil {
			b.Fatal(err)
		}
		if res.HardenedMaliciousDelivered {
			b.Fatal("replay mitigation failed")
		}
	}
}

// BenchmarkTagEncodeDecode measures the hot per-socket encode and the
// per-packet decode in isolation (the operations the paper amortizes).
func BenchmarkTagEncodeDecode(b *testing.B) {
	t := tag.Tag{Indexes: []uint32{12, 3400, 77, 19000, 2, 811, 4093}}
	for i := range t.AppHash {
		t.AppHash[i] = byte(i * 31)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := t.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tag.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnforcerThroughput measures sustained packets/second through the
// full deployment pipeline ("seeking to thousands of connections" §VI-D).
func BenchmarkEnforcerThroughput(b *testing.B) {
	dep, err := New(Config{Policy: PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`}})
	if err != nil {
		b.Fatal(err)
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dep.Exercise(app, "download")
		if err != nil {
			b.Fatal(err)
		}
		if !out[0].Delivered {
			b.Fatal("dropped")
		}
	}
}

// BenchmarkEnforcerThroughputParallel isolates the gateway's per-packet
// pipeline — extraction, single-resolve stack decoding, compiled policy
// evaluation — and drives it from every core at once against the §VI-B1
// validation-scale rule set, without a flow cache (the uncached
// reference for the flow-table benchmarks below). Before this pipeline
// was compiled, the engine's stats mutex serialized all cores; now
// throughput must scale with GOMAXPROCS.
func BenchmarkEnforcerThroughputParallel(b *testing.B) {
	enf, pkt := benchPipeline(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res := enf.Process(pkt); res.Verdict != policy.VerdictAllow {
				// b.Fatal must not run off the benchmark goroutine.
				b.Error("benign packet dropped")
				return
			}
		}
	})
}

// benchPipeline builds the validation-scale enforcer + a tagged packet
// for the gateway hot-path benchmarks: one fixture for both the uncached
// reference and the flow-cached fast path, so the comparison always
// measures the same workload.
func benchPipeline(b *testing.B, cached bool) (*enforcer.Enforcer, *ipv4.Packet) {
	b.Helper()
	apk := &dex.APK{
		PackageName: "com.corp.files",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{{
				Package: "com/corp/files",
				Name:    "SyncEngine",
				Methods: []dex.MethodDef{
					{Name: "download", Proto: "()V", File: "S.java", StartLine: 10, EndLine: 20},
					{Name: "upload", Proto: "()V", File: "S.java", StartLine: 30, EndLine: 40},
				},
			}},
		}},
	}
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
	}
	rules := make([]policy.Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, policy.Rule{
			Action: policy.Deny,
			Level:  policy.LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	eng, err := policy.NewEngine(rules, policy.VerdictAllow)
	if err != nil {
		b.Fatal(err)
	}
	clock := netsim.NewClock()
	cfg := enforcer.Config{Context: devctx.NewSource(clock)}
	if cached {
		cfg.Flows = enforcer.NewFlowCache(flowtable.Config{Clock: clock})
	}
	enf := enforcer.New(cfg, db, eng)

	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{0, 1}}
	payload, err := tg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: []byte("POST /x HTTP/1.1\r\n\r\n"),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	return enf, pkt
}

// BenchmarkEnforcerFlowCacheHitParallel is the flow-table acceptance
// benchmark at deployment scale: the §VI-B1 rule set behind a warmed flow
// cache, driven from every core. Each packet is one shard probe — no tag
// decode, no stack decode, no Evaluate.
func BenchmarkEnforcerFlowCacheHitParallel(b *testing.B) {
	enf, pkt := benchPipeline(b, true)
	enf.Process(pkt) // warm the flow
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res := enf.Process(pkt); res.Verdict != policy.VerdictAllow {
				b.Error("benign packet dropped")
				return
			}
		}
	})
}

// BenchmarkGatewayBatchDrain pushes 256-packet keep-alive bursts through
// the full gateway (flow-affine split, enforcer batch memo, sanitizer,
// conntrack). Reported ns/op is per packet.
func BenchmarkGatewayBatchDrain(b *testing.B) {
	enf, pkt := benchPipeline(b, true)
	gw := netsim.NewGateway(netsim.GatewayConfig{
		Enforcer:  enf,
		Sanitizer: sanitizer.New(),
		Clock:     netsim.NewClock(),
	})
	burst := make([]*ipv4.Packet, 256)
	for i := range burst {
		burst[i] = pkt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(burst) {
		out, err := gw.ProcessBatch(burst)
		if err != nil {
			b.Fatal(err)
		}
		if out[0].Out == nil {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkOfflineAnalyzer measures database construction per app —
// relevant to provisioning-time cost when administrators onboard apps.
func BenchmarkOfflineAnalyzer(b *testing.B) {
	corpus := corpusForBench(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ga := corpus[i%len(corpus)]
		entry, err := analyzeOne(ga)
		if err != nil {
			b.Fatal(err)
		}
		if len(entry) == 0 {
			b.Fatal("empty table")
		}
	}
}

func analyzeOne(ga *apkgen.App) ([]string, error) {
	sigs := ga.APK.Signatures()
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s.String()
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no signatures")
	}
	return out, nil
}
