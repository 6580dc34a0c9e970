package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMain keeps the package on one core. Counters then repeat exactly
// (with more, DrainBatch splits a burst over goroutines and whether the
// second chunk's first lookup hits depends on who runs first), and the
// tests load the machine no more than any single-threaded package while
// go test runs timing-sensitive packages beside this one.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// testConfig is count mode at a thousandth of the operation counts, on a
// 16-app corpus.
func testConfig(seed int64) config {
	return config{seed: seed, seconds: 0, scale: 0.001, setups: 1, apps: 16}
}

// TestWorkloadsRepeat runs every workload three times at -scale 0.001: two
// runs of one seed must agree on every packet, verdict and hit/miss
// counter, a second seed must send another schedule, and no packet may
// meet another fate than the oracle's.
func TestWorkloadsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, err := runUntraced(w, testConfig(2019))
			if err != nil {
				t.Fatal(err)
			}
			if !a.correct() || a.metrics["ok_ops_share"].value != 1 {
				t.Fatalf("failed=%d ok_ops_share=%v problems=%v", a.failed, a.metrics["ok_ops_share"].value, a.problems)
			}
			if a.counters["packets"] == 0 || a.counters[famAllow] == 0 || a.counters[famDrop] == 0 {
				t.Fatalf("run sent no mixed traffic: %v", a.counters)
			}
			b, err := runUntraced(w, testConfig(2019))
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(a.counters, b.counters) {
				t.Errorf("one seed, two runs, different counters:\n%v\n%v", a.counters, b.counters)
			}
			c, err := runUntraced(w, testConfig(7))
			if err != nil {
				t.Fatal(err)
			}
			if !c.correct() {
				t.Errorf("seed 7: %v", c.problems)
			}
			if c.counters["schedule_fnv"] == a.counters["schedule_fnv"] {
				t.Error("seeds 2019 and 7 scheduled the same operations")
			}
		})
	}
}

// TestTracedTwinsAgree runs the traced pass of every workload: every
// twin's accept/drop sequence must match T0's.
func TestTracedTwinsAgree(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := runTraced(w, testConfig(2019), "")
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.counters["twin_mismatches"] != 0 {
				t.Fatalf("failed=%d problems=%v", rep.failed, rep.problems)
			}
			if rep.counters["spans"] == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}

// benchmarkJSON is the builder's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON checks that BENCHMARK.json and the
// program name the same workloads and metrics with the same units, and
// that one command prints every one of them — and nothing else — in its
// result line.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), program %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	declared := map[string]string{}
	for _, m := range bj.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bj.PerLayer {
		declared[m.Name] = m.Unit
	}
	programmed := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		programmed[s.name] = s.unit
	}
	if !maps.Equal(declared, programmed) {
		t.Errorf("BENCHMARK.json and the program disagree on metrics or units:\n%v\n%v", declared, programmed)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "churn", "--seed", "3", "--seconds", "0", "--scale", "0.001", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	printed := map[string]string{}
	for name, m := range res.Metrics {
		if m.Value == nil {
			t.Errorf("%s: the result line must carry a number", name)
		}
		printed[strings.TrimPrefix(name, "churn.")] = m.Unit
	}
	if !maps.Equal(printed, declared) {
		t.Errorf("result line and BENCHMARK.json disagree:\n%v\n%v", printed, declared)
	}
	for name := range declared {
		if !strings.Contains(stdout.String(), " "+name+" ") {
			t.Errorf("%s is not printed by name", name)
		}
	}
}

// TestTailWithheld checks that a percentile is reported only when at
// least ten samples lie beyond it.
func TestTailWithheld(t *testing.T) {
	samples := make([]int64, 1000)
	for i := range samples {
		samples[i] = int64(i + 1)
	}
	if v, ok := quantile(samples, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, reported=%v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := quantile(samples, 0.999); ok {
		t.Error("p999 of 1000 samples has one sample beyond it and must be withheld")
	}
	if _, ok := quantile(samples[:999], 0.99); ok {
		t.Error("p99 of 999 samples has nine samples beyond it and must be withheld")
	}
	if v, ok := quantile(samples, 0.5); !ok || v != 500 {
		t.Errorf("p50 = %v, %v", v, ok)
	}
}
