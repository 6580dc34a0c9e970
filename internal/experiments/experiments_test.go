package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/policy"
)

// smallCorpus keeps unit tests fast; the full 2,000-app run lives in the
// benchmarks and cmd/bp-experiments.
func smallCorpus(t *testing.T, n int) []*apkgen.App {
	t.Helper()
	cfg := apkgen.DefaultConfig()
	cfg.Apps = n
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestFig3SmallCorpus(t *testing.T) {
	cfg := Fig3Config{
		Corpus:       smallCorpus(t, 200),
		MonkeyEvents: 2000,
		MonkeySeed:   1,
	}
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorpusSize != 200 {
		t.Fatalf("corpus size = %d", res.CorpusSize)
	}
	if res.Analysis.AppsWithIoI == 0 {
		t.Fatal("no IoIs detected; generator wiring broken")
	}
	// Monotone histogram head: 1-IoI apps dominate.
	if res.Analysis.Histogram[1] < res.Analysis.Histogram[2] {
		t.Fatalf("histogram shape wrong: %v", res.Analysis.Histogram)
	}
	// Same-package share near the calibrated 75%.
	if s := res.Analysis.SamePackageShare(); s < 0.5 || s > 0.95 {
		t.Fatalf("same-package share = %.2f, want ≈0.75", s)
	}
	if res.MeanCoverage < 0.8 {
		t.Fatalf("mean coverage = %.2f; monkey not reaching functionality", res.MeanCoverage)
	}
	// Every hooked call site misses its first connect; nearly every other
	// connect is answered from the call-site table.
	if res.CallSites == 0 || res.TaggedConnects <= res.CallSites {
		t.Fatalf("%d tagged connects from %d call sites", res.TaggedConnects, res.CallSites)
	}
	if ceiling := 1 - float64(res.CallSites)/float64(res.TaggedConnects); res.TagCacheHitRate > ceiling || res.TagCacheHitRate < ceiling-0.05 {
		t.Fatalf("tag table hit rate %.3f, want just under its ceiling %.3f", res.TagCacheHitRate, ceiling)
	}
	out := res.Format()
	for _, want := range []string{"Figure 3", "apps with >=1 IoI", "75%", "25%", "tag table hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q", want)
		}
	}
}

func TestValidationSmall(t *testing.T) {
	cfg := ValidationConfig{
		Corpus:       smallCorpus(t, 300),
		SampleSize:   20,
		TopLibraries: 20,
	}
	res, err := RunValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleApps == 0 || res.SampleApps > 20 {
		t.Fatalf("sample = %d", res.SampleApps)
	}
	if res.DenyRules != 1050 {
		t.Fatalf("deny rules = %d, want 1050", res.DenyRules)
	}
	// Headline claims: all tracker packets dropped, no desirable breakage.
	if res.TrackerPacketsTotal == 0 {
		t.Fatal("no tracker traffic exercised")
	}
	if res.TrackerPacketsDropped != res.TrackerPacketsTotal {
		t.Fatalf("tracker packets: %d/%d dropped", res.TrackerPacketsDropped, res.TrackerPacketsTotal)
	}
	if res.DesirableDelivered != res.DesirableTotal {
		t.Fatalf("desirable packets: %d/%d delivered", res.DesirableDelivered, res.DesirableTotal)
	}
	if res.BrokenApps != 0 {
		t.Fatalf("broken apps = %d, want 0", res.BrokenApps)
	}
	out := res.Format()
	if !strings.Contains(out, "tracker packets dropped") {
		t.Error("Format() incomplete")
	}
}

// TestValidationFormatOrdersTiesByName: the top-blocked list is by drops,
// ties by library name, so one result prints the same report every time
// whatever the map's iteration order.
func TestValidationFormatOrdersTiesByName(t *testing.T) {
	res := &ValidationResult{PerLibrary: map[string]int{"com/top": 9, "com/low": 1}}
	for i := 0; i < 12; i++ {
		res.PerLibrary[fmt.Sprintf("com/lib%02d", i)] = 5
	}
	want := []string{"com/top"}
	for i := 0; i < 9; i++ {
		want = append(want, fmt.Sprintf("com/lib%02d", i))
	}
	for run := 0; run < 20; run++ {
		_, list, _ := strings.Cut(res.Format(), "top blocked libraries:\n")
		var got []string
		for _, line := range strings.Split(list, "\n") {
			if name, ok := strings.CutPrefix(line, "  "); ok {
				got = append(got, strings.Fields(name)[0])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: top blocked libraries %v, want %v", run, got, want)
		}
	}
}

func TestCloudCaseStudy(t *testing.T) {
	res, err := RunCloudCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Precise() {
		t.Fatalf("BorderPatrol not precise:\n%s", res.Format())
	}
	bp := res.Allowed[MechBorderPatrol]
	ip := res.Allowed[MechIPBlocklist]
	// Dropbox: single endpoint — IP blocklist kills everything.
	for _, f := range []string{"com.dropbox.android/login", "com.dropbox.android/list", "com.dropbox.android/download", "com.dropbox.android/upload"} {
		if ip[f] {
			t.Fatalf("ip blocklist allowed %s despite shared endpoint", f)
		}
	}
	// Box: blocking the upload IP also kills listing, but download survives.
	if ip["com.box.android/list"] {
		t.Fatal("box listing must break under IP blocklist (shares upload IP)")
	}
	if !ip["com.box.android/download"] {
		t.Fatal("box download uses a separate IP and must survive IP blocklist")
	}
	// BorderPatrol: only uploads blocked.
	if bp["com.dropbox.android/upload"] || bp["com.box.android/upload"] {
		t.Fatal("uploads not blocked by BorderPatrol")
	}
	if !bp["com.dropbox.android/download"] || !bp["com.box.android/list"] {
		t.Fatal("desirable functionality blocked by BorderPatrol")
	}
	// Extractor produced method-level rules.
	if len(res.ExtractedRules) == 0 {
		t.Fatal("no extracted rules")
	}
	for _, r := range res.ExtractedRules {
		if r.Level != policy.LevelMethod || r.Action != policy.Deny {
			t.Fatalf("unexpected rule %s", r)
		}
	}
	if !strings.Contains(res.Format(), "Case study") {
		t.Error("Format() incomplete")
	}
}

func TestFacebookCaseStudy(t *testing.T) {
	res, err := RunFacebookCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Precise() {
		t.Fatalf("BorderPatrol not precise:\n%s", res.Format())
	}
	ip := res.Allowed[MechIPBlocklist]
	bp := res.Allowed[MechBorderPatrol]
	// Blocking the Graph API IP breaks login (the paper's observation).
	if ip["net.daum.android.solcalendar/fb-login"] {
		t.Fatal("IP blocklist must break fb-login")
	}
	if !ip["net.daum.android.solcalendar/calendar-sync"] {
		t.Fatal("calendar sync unrelated to graph IP must survive")
	}
	// BorderPatrol keeps login, drops analytics.
	if !bp["net.daum.android.solcalendar/fb-login"] {
		t.Fatal("BorderPatrol broke fb-login")
	}
	if bp["net.daum.android.solcalendar/fb-analytics"] {
		t.Fatal("BorderPatrol allowed analytics")
	}
}

func TestFig4Shape(t *testing.T) {
	opts := Fig4Options{Iterations: 200, Runs: 2}
	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	lat := map[Fig4ConfigID]float64{}
	for _, p := range res.Points {
		lat[p.Config] = float64(p.MeanLatency)
	}
	// Shape assertions from the paper:
	// (ii) tap faster than (i) slirp.
	if lat[ConfigDefaultTAP] >= lat[ConfigDefaultSLIRP] {
		t.Fatal("tap must be faster than slirp")
	}
	// (iii) adds roughly 1ms over (ii).
	nfq := lat[ConfigTAPNFQueue] - lat[ConfigDefaultTAP]
	if nfq < 0.5e6 || nfq > 2e6 {
		t.Fatalf("nfqueue hop = %.2f ms, want ≈1 ms", nfq/1e6)
	}
	// (v) adds roughly 1.6ms over (iv) for getStackTrace.
	gst := lat[ConfigStaticGetStack] - lat[ConfigStaticInject]
	if gst < 1.2e6 || gst > 2.2e6 {
		t.Fatalf("getStackTrace = %.2f ms, want ≈1.6 ms", gst/1e6)
	}
	// (vi) total overhead below 2.5ms over baseline, relative ≈2x.
	over := lat[ConfigDynamic] - lat[ConfigDefaultSLIRP]
	if over > 2.5e6 {
		t.Fatalf("total overhead = %.2f ms, paper promises < 2.5 ms", over/1e6)
	}
	rel := lat[ConfigDynamic] / lat[ConfigDefaultSLIRP]
	if rel < 1.3 || rel > 3.0 {
		t.Fatalf("relative overhead = %.2fx, want ≈2x", rel)
	}
	// Monotone non-decreasing across iii..vi.
	order := []Fig4ConfigID{ConfigTAPNFQueue, ConfigStaticInject, ConfigStaticGetStack, ConfigDynamic}
	for i := 1; i < len(order); i++ {
		if lat[order[i]] < lat[order[i-1]] {
			t.Fatalf("latency not monotone at %s", order[i])
		}
	}
	if !strings.Contains(res.Format(), "Figure 4") {
		t.Error("Format() incomplete")
	}
}

func TestKeepAliveAmortization(t *testing.T) {
	points, err := RunKeepAliveAmortization([]int{1, 5, 25}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Per-request latency must fall as sockets serve more requests.
	if !(points[0].MeanPerRequest > points[1].MeanPerRequest && points[1].MeanPerRequest > points[2].MeanPerRequest) {
		t.Fatalf("no amortization: %v", points)
	}
	if !strings.Contains(FormatKeepAlive(points), "amortiz") {
		t.Error("format incomplete")
	}
}

func TestFlowSizeEvasion(t *testing.T) {
	res, err := RunFlowSize(smallCorpus(t, 100), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinBytes < 36 || res.MaxBytes > 480*1024*1024 {
		t.Fatalf("flow bounds [%d, %d]", res.MinBytes, res.MaxBytes)
	}
	if !res.MonolithicBlocked {
		t.Fatal("threshold must catch the monolithic upload")
	}
	if res.FragmentedBlocked {
		t.Fatal("fragmented upload must evade the threshold")
	}
	if res.BorderPatrolBlockedFragments != res.FragmentCount {
		t.Fatalf("BorderPatrol dropped %d/%d fragments", res.BorderPatrolBlockedFragments, res.FragmentCount)
	}
	if !strings.Contains(res.Format(), "evasion") {
		t.Error("Format() incomplete")
	}
}

func TestReplayMitigation(t *testing.T) {
	res, err := RunReplay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PrototypeReplaySucceeded {
		t.Fatal("prototype kernel must permit the replay (documented limitation)")
	}
	if !res.HardenedReplayRejected {
		t.Fatal("hardened kernel must reject the replay")
	}
	if res.HardenedMaliciousDelivered {
		t.Fatal("hardened kernel let the malicious packet out")
	}
	if !strings.Contains(res.Format(), "Tag replay") {
		t.Error("Format() incomplete")
	}
}
