package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseOut = `goos: linux
BenchmarkProcessFlowHit-8     	10000000	       100.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkProcessFlowHit-8     	10000000	       110.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkProcessFlowHit-8     	10000000	       105.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkRecord-8             	30000000	        37.0 ns/op	         0.9992 dropped/op	       0 B/op	       0 allocs/op
PASS
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseStripsCPUSuffixAndIgnoresCustomMetrics(t *testing.T) {
	res, err := parse(strings.NewReader(baseOut))
	if err != nil {
		t.Fatal(err)
	}
	hits := res["BenchmarkProcessFlowHit"]
	if len(hits) != 3 {
		t.Fatalf("samples = %d, want 3", len(hits))
	}
	if m := medianNs(hits); m != 105.0 {
		t.Fatalf("median ns = %v", m)
	}
	rec := res["BenchmarkRecord"]
	if len(rec) != 1 || rec[0].nsPerOp != 37.0 || !rec[0].hasAllocs || rec[0].allocsPerOp != 0 {
		t.Fatalf("record sample = %+v", rec)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	cur := write(t, "cur.txt", strings.ReplaceAll(baseOut, "105.0", "118.0"))
	if err := run(base, cur, 0.20, false, ""); err != nil {
		t.Fatalf("gate failed within threshold: %v", err)
	}
}

func TestGateFailsOnTimeRegression(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	cur := write(t, "cur.txt", `
BenchmarkProcessFlowHit-8  10000000  140.0 ns/op  0 B/op  0 allocs/op
BenchmarkRecord-8          30000000   37.0 ns/op  0 B/op  0 allocs/op
`)
	if err := run(base, cur, 0.20, false, ""); err == nil {
		t.Fatal("gate passed a 33% ns/op regression")
	}
}

func TestGateFailsOnAnyAllocRegression(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	cur := write(t, "cur.txt", `
BenchmarkProcessFlowHit-8  10000000  100.0 ns/op  16 B/op  1 allocs/op
BenchmarkRecord-8          30000000   37.0 ns/op   0 B/op  0 allocs/op
`)
	if err := run(base, cur, 0.20, false, ""); err == nil {
		t.Fatal("gate passed an allocs/op regression")
	}
}

// TestGateFailsOnByteRegression: B/op more than max(25 %, 16 B) over the
// baseline fails even when allocs/op holds, as a per-burst slice amortised
// over a burst's packets does; the check runs under -allocs-only too.
func TestGateFailsOnByteRegression(t *testing.T) {
	base := write(t, "base.txt", `
BenchmarkDeliverBatchFleet-2  500000  1000.0 ns/op  0 B/op  0 allocs/op
BenchmarkServeKeepAlive-2     800000   700.0 ns/op  200 B/op  0 allocs/op
`)
	for _, tc := range []struct{ fleet, serve string }{
		{"17", "200"}, // 17 B over a 0 B/op baseline
		{"0", "251"},  // 51 B over 200: more than a quarter
	} {
		cur := write(t, "cur.txt", `
BenchmarkDeliverBatchFleet-2  500000  1000.0 ns/op  `+tc.fleet+` B/op  0 allocs/op
BenchmarkServeKeepAlive-2     800000   700.0 ns/op  `+tc.serve+` B/op  0 allocs/op
`)
		if err := run(base, cur, 0.20, true, ""); err == nil || !strings.Contains(err.Error(), "1 benchmark regression") {
			t.Fatalf("fleet %s B/op, serve %s B/op: gate returned %v, want one B/op regression", tc.fleet, tc.serve, err)
		}
	}
}

// TestGatePassesByteDeltaWithinSlack: B/op up to max(25 %, 16 B) over the
// baseline, or any fall, passes.
func TestGatePassesByteDeltaWithinSlack(t *testing.T) {
	base := write(t, "base.txt", `
BenchmarkDeliverBatchFleet-2  500000  1000.0 ns/op  0 B/op  0 allocs/op
BenchmarkServeKeepAlive-2     800000   700.0 ns/op  200 B/op  0 allocs/op
BenchmarkDeliverBatchConnect-2 250000  2200.0 ns/op  448 B/op  3 allocs/op
`)
	cur := write(t, "cur.txt", `
BenchmarkDeliverBatchFleet-2  500000  1000.0 ns/op  16 B/op  0 allocs/op
BenchmarkServeKeepAlive-2     800000   700.0 ns/op  250 B/op  0 allocs/op
BenchmarkDeliverBatchConnect-2 250000  2200.0 ns/op  0 B/op  0 allocs/op
`)
	if err := run(base, cur, 0.20, false, ""); err != nil {
		t.Fatalf("gate failed on B/op within its slack: %v", err)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	cur := write(t, "cur.txt", `
BenchmarkProcessFlowHit-8  10000000  100.0 ns/op  0 B/op  0 allocs/op
`)
	if err := run(base, cur, 0.20, false, ""); err == nil {
		t.Fatal("gate passed with a gated benchmark missing from the run")
	}
}

func TestGateToleratesExtraNewBenchmarks(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	cur := write(t, "cur.txt", baseOut+`
BenchmarkBrandNew-8  1000  900.0 ns/op  0 B/op  0 allocs/op
`)
	if err := run(base, cur, 0.20, false, ""); err != nil {
		t.Fatalf("gate failed on an extra benchmark: %v", err)
	}
}

// TestAllocsOnlySkipsTimeGate: with -allocs-only a large ns/op delta
// passes (cross-machine baseline) but an alloc increase still fails.
func TestAllocsOnlySkipsTimeGate(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	slow := write(t, "slow.txt", strings.ReplaceAll(baseOut, "105.0", "400.0"))
	if err := run(base, slow, 0.20, true, ""); err != nil {
		t.Fatalf("allocs-only gate failed on a time-only delta: %v", err)
	}
	leaky := write(t, "leaky.txt", `
BenchmarkProcessFlowHit-8  10000000  100.0 ns/op  16 B/op  1 allocs/op
BenchmarkRecord-8          30000000   37.0 ns/op   0 B/op  0 allocs/op
`)
	if err := run(base, leaky, 0.20, true, ""); err == nil {
		t.Fatal("allocs-only gate passed an allocs/op regression")
	}
}

// TestJSONReport: the -json report carries the full comparison — rows,
// deltas, extra benchmarks, failures, verdict — and is written even when
// the gate fails, so CI can archive it either way.
func TestJSONReport(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	cur := write(t, "cur.txt", `
BenchmarkProcessFlowHit-8  10000000  140.0 ns/op  0 B/op  0 allocs/op
BenchmarkRecord-8          30000000   37.0 ns/op  0 B/op  0 allocs/op
BenchmarkBrandNew-8            1000  900.0 ns/op  0 B/op  0 allocs/op
`)
	jsonPath := filepath.Join(t.TempDir(), "gate.json")
	if err := run(base, cur, 0.20, false, jsonPath); err == nil {
		t.Fatal("gate passed a 33% ns/op regression")
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("report not written on failure: %v", err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Passed {
		t.Error("report claims the failing gate passed")
	}
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "BenchmarkProcessFlowHit") {
		t.Errorf("failures = %v, want the ProcessFlowHit regression", rep.Failures)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmark rows = %d, want 2", len(rep.Benchmarks))
	}
	var hit *reportRow
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "BenchmarkProcessFlowHit" {
			hit = &rep.Benchmarks[i]
		}
	}
	if hit == nil {
		t.Fatal("no row for BenchmarkProcessFlowHit")
	}
	if hit.Pass || hit.BaseNsPerOp != 105.0 || hit.NewNsPerOp != 140.0 {
		t.Errorf("hit row = %+v, want fail with 105 -> 140", *hit)
	}
	if hit.BaseAllocs == nil || *hit.BaseAllocs != 0 {
		t.Errorf("hit base allocs = %v, want 0", hit.BaseAllocs)
	}
	if len(rep.Extra) != 1 || rep.Extra[0] != "BenchmarkBrandNew" {
		t.Errorf("extra = %v, want [BenchmarkBrandNew]", rep.Extra)
	}

	// A clean run reports passed with no failures.
	okPath := filepath.Join(t.TempDir(), "ok.json")
	if err := run(base, base, 0.20, false, okPath); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	raw, err = os.ReadFile(okPath)
	if err != nil {
		t.Fatal(err)
	}
	rep = report{}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || len(rep.Failures) != 0 {
		t.Errorf("clean report = passed=%v failures=%v", rep.Passed, rep.Failures)
	}
}

func TestGateRejectsEmptyInputs(t *testing.T) {
	base := write(t, "base.txt", baseOut)
	empty := write(t, "empty.txt", "no benchmarks here\n")
	if err := run(empty, base, 0.20, false, ""); err == nil {
		t.Fatal("empty baseline accepted")
	}
	if err := run(base, empty, 0.20, false, ""); err == nil {
		t.Fatal("empty current run accepted")
	}
}
