package policy

import (
	"fmt"
	"testing"

	"borderpatrol/internal/dex"
)

// Ablation: rule-count scaling. The validation experiment runs 1,050 deny
// rules per packet; this bench quantifies how evaluation cost grows with
// the rule set (linear scan, first decisive rule wins).
func benchmarkEngineRules(b *testing.B, nRules int) {
	b.Helper()
	rules := make([]Rule, 0, nRules)
	for i := 0; i < nRules; i++ {
		rules = append(rules, Rule{
			Action: Deny,
			Level:  LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	eng, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		b.Fatal(err)
	}
	// A stack that matches no rule: worst case, full scan.
	stack := []dex.Signature{
		{Package: "com/benign/app", Class: "Main", Name: "sync", Proto: "()V"},
		{Package: "org/apache/http/client", Class: "HttpClient", Name: "execute", Proto: "()V"},
	}
	var h dex.TruncatedHash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := eng.Evaluate(h, stack); d.Verdict != VerdictAllow {
			b.Fatal("unexpected drop")
		}
	}
}

func BenchmarkEngine10Rules(b *testing.B)   { benchmarkEngineRules(b, 10) }
func BenchmarkEngine100Rules(b *testing.B)  { benchmarkEngineRules(b, 100) }
func BenchmarkEngine1050Rules(b *testing.B) { benchmarkEngineRules(b, 1050) }

// BenchmarkEngine1050RulesParallel runs the §VI-B1 validation-scale rule
// set from all cores at once: with atomic counters and the lock-free
// compiled rule set, throughput must scale with GOMAXPROCS instead of
// serializing on a stats mutex.
func BenchmarkEngine1050RulesParallel(b *testing.B) {
	rules := make([]Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, Rule{
			Action: Deny,
			Level:  LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	eng, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		b.Fatal(err)
	}
	stack := []dex.Signature{
		{Package: "com/benign/app", Class: "Main", Name: "sync", Proto: "()V"},
		{Package: "org/apache/http/client", Class: "HttpClient", Name: "execute", Proto: "()V"},
	}
	var h dex.TruncatedHash
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if d := eng.Evaluate(h, stack); d.Verdict != VerdictAllow {
				// b.Fatal must not run off the benchmark goroutine.
				b.Error("unexpected drop")
				return
			}
		}
	})
}

// BenchmarkCompile1050Rules measures the reconfiguration cost the compiler
// moved out of the packet path: building the indexes for the validation
// rule set.
func BenchmarkCompile1050Rules(b *testing.B) {
	rules := make([]Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, Rule{
			Action: Deny,
			Level:  LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compileRules(rules); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFirstRuleHit is the best case: the first rule decides.
func BenchmarkEngineFirstRuleHit(b *testing.B) {
	rules := make([]Rule, 1050)
	for i := range rules {
		rules[i] = Rule{Action: Deny, Level: LevelLibrary, Target: fmt.Sprintf("com/blocked/lib%04d", i)}
	}
	eng, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		b.Fatal(err)
	}
	stack := []dex.Signature{{Package: "com/blocked/lib0000/sdk", Class: "A", Name: "m", Proto: "()V"}}
	var h dex.TruncatedHash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := eng.Evaluate(h, stack); d.Verdict != VerdictDrop {
			b.Fatal("expected drop")
		}
	}
}

// BenchmarkParseRule measures policy-document parsing (reconfiguration
// cost when administrators push rule updates).
func BenchmarkParseRule(b *testing.B) {
	const raw = `{[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"]}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRule(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: enforcement level vs matching cost. Finer levels do more
// string work per frame.
func benchmarkMatchLevel(b *testing.B, level Level, target string) {
	b.Helper()
	r := Rule{Action: Deny, Level: level, Target: target}
	sig := dex.Signature{Package: "com/flurry/sdk", Class: "Analytics", Name: "report", Proto: "(I)V"}
	var h dex.TruncatedHash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.MatchLevel(h, sig)
	}
}

func BenchmarkMatchLevelLibrary(b *testing.B) {
	benchmarkMatchLevel(b, LevelLibrary, "com/flurry")
}
func BenchmarkMatchLevelClass(b *testing.B) {
	benchmarkMatchLevel(b, LevelClass, "com/flurry/sdk/Analytics")
}
func BenchmarkMatchLevelMethod(b *testing.B) {
	benchmarkMatchLevel(b, LevelMethod, "Lcom/flurry/sdk/Analytics;->report(I)V")
}
