// Command bp-benchgate is the benchmark-regression gate for CI: it parses
// two Go benchmark outputs (the committed baseline and a fresh run of the
// fast-path benchmarks), compares per-benchmark medians, and exits
// non-zero when the new run regresses — more than the ns/op threshold on
// time, *any* increase in allocs/op (the fast paths are designed
// allocation-free; a single new allocation per op is a defect, not noise),
// or B/op more than max(25 %, 16 B) over the baseline's (a per-burst slice
// amortised over a burst's packets reads 0 allocs/op but not 0 B/op).
//
// Benchmarks are matched by name with the -cpu suffix stripped, so
// baselines recorded on different core counts still line up. Benchmarks
// present in the baseline but missing from the new run fail the gate
// (deleting a gated benchmark must be an explicit baseline update), while
// extra new benchmarks only warn until they are added to the baseline.
//
// allocs/op and B/op are machine-independent, so they always gate against
// the committed baseline. ns/op is NOT portable across heterogeneous CI
// runners — compare it only against a run from the same machine (CI
// re-benchmarks the merge-base on the same runner for that); use
// -allocs-only when the reference numbers came from different hardware
// (it still gates B/op).
//
// Usage:
//
//	go test -run NONE -bench 'Flow|Batch' -benchmem -count 6 ./... | tee new.txt
//	bp-benchgate -baseline bench/baseline.txt -current new.txt
//	bp-benchgate -threshold 0.10 ...   # tighten the ns/op gate to 10%
//	bp-benchgate -allocs-only ...      # cross-machine baseline: gate allocs and bytes only
//	bp-benchgate -json gate.json ...   # machine-readable comparison for dashboards
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	bytesPerOp  float64
	hasBytes    bool
}

// bytesSlack is how far a median B/op may rise over the baseline's before
// the gate fails: a quarter of the baseline, and never less than 16 B, the
// smallest size class a growth can take.
func bytesSlack(base float64) float64 { return max(0.25*base, 16) }

// results maps a normalized benchmark name to its samples across -count
// repetitions.
type results map[string][]sample

// reportRow is one benchmark comparison in the -json report.
type reportRow struct {
	Name        string   `json:"name"`
	BaseNsPerOp float64  `json:"base_ns_per_op"`
	NewNsPerOp  float64  `json:"new_ns_per_op"`
	DeltaPct    float64  `json:"delta_pct"`
	BaseAllocs  *float64 `json:"base_allocs_per_op,omitempty"`
	NewAllocs   *float64 `json:"new_allocs_per_op,omitempty"`
	BaseBytes   *float64 `json:"base_bytes_per_op,omitempty"`
	NewBytes    *float64 `json:"new_bytes_per_op,omitempty"`
	Missing     bool     `json:"missing,omitempty"`
	Pass        bool     `json:"pass"`
}

// report is the -json output: everything the human table shows, plus the
// verdict, so dashboards and CI annotations can consume the gate without
// scraping stdout.
type report struct {
	Threshold  float64     `json:"threshold"`
	AllocsOnly bool        `json:"allocs_only"`
	Benchmarks []reportRow `json:"benchmarks"`
	Extra      []string    `json:"extra_benchmarks,omitempty"`
	Failures   []string    `json:"failures,omitempty"`
	Passed     bool        `json:"passed"`
}

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.txt", "committed baseline benchmark output")
	currentPath := flag.String("current", "", "fresh benchmark output to gate (required)")
	threshold := flag.Float64("threshold", 0.20, "maximum tolerated ns/op regression (fraction)")
	allocsOnly := flag.Bool("allocs-only", false, "gate only allocs/op and B/op (baseline from different hardware)")
	jsonPath := flag.String("json", "", "also write the per-benchmark comparison as JSON to this path")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "bp-benchgate: -current is required")
		os.Exit(2)
	}
	if err := run(*baselinePath, *currentPath, *threshold, *allocsOnly, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "bp-benchgate:", err)
		os.Exit(1)
	}
}

func run(baselinePath, currentPath string, threshold float64, allocsOnly bool, jsonPath string) error {
	base, err := parseFile(baselinePath)
	if err != nil {
		return err
	}
	cur, err := parseFile(currentPath)
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("baseline %s contains no benchmark lines", baselinePath)
	}
	if len(cur) == 0 {
		return fmt.Errorf("current run %s contains no benchmark lines", currentPath)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	rep := report{Threshold: threshold, AllocsOnly: allocsOnly}
	var failures []string
	fmt.Printf("%-44s %14s %14s %8s  %-12s %s\n", "benchmark", "base ns/op", "new ns/op", "Δ", "allocs/op", "B/op")
	for _, name := range names {
		bs, cs := base[name], cur[name]
		if len(cs) == 0 {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the new run", name))
			rep.Benchmarks = append(rep.Benchmarks, reportRow{Name: name, BaseNsPerOp: medianNs(bs), Missing: true})
			continue
		}
		bNs, cNs := medianNs(bs), medianNs(cs)
		delta := (cNs - bNs) / bNs
		bAllocs, bHas := medianAllocs(bs)
		cAllocs, cHas := medianAllocs(cs)
		bBytes, bHasBytes := medianBytes(bs)
		cBytes, cHasBytes := medianBytes(cs)

		allocNote, bytesNote := "n/a", "n/a"
		if bHas && cHas {
			allocNote = fmt.Sprintf("%.0f -> %.0f", bAllocs, cAllocs)
		}
		if bHasBytes && cHasBytes {
			bytesNote = fmt.Sprintf("%.0f -> %.0f", bBytes, cBytes)
		}
		fmt.Printf("%-44s %14.2f %14.2f %+7.1f%%  %-12s %s\n", name, bNs, cNs, 100*delta, allocNote, bytesNote)

		pass := true
		if !allocsOnly && delta > threshold {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (%.2f -> %.2f, threshold %.0f%%)",
				name, 100*delta, bNs, cNs, 100*threshold))
			pass = false
		}
		if bHas && cHas && cAllocs > bAllocs {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed (%.0f -> %.0f)", name, bAllocs, cAllocs))
			pass = false
		}
		if bHasBytes && cHasBytes && cBytes-bBytes > bytesSlack(bBytes) {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed (%.0f -> %.0f, more than %.0f B over)",
				name, bBytes, cBytes, bytesSlack(bBytes)))
			pass = false
		}
		row := reportRow{Name: name, BaseNsPerOp: bNs, NewNsPerOp: cNs, DeltaPct: 100 * delta, Pass: pass}
		if bHas {
			row.BaseAllocs = &bAllocs
		}
		if cHas {
			row.NewAllocs = &cAllocs
		}
		if bHasBytes {
			row.BaseBytes = &bBytes
		}
		if cHasBytes {
			row.NewBytes = &cBytes
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("note: %s is not in the baseline (add it on the next baseline refresh)\n", name)
			rep.Extra = append(rep.Extra, name)
		}
	}
	sort.Strings(rep.Extra)

	rep.Failures = failures
	rep.Passed = len(failures) == 0
	if jsonPath != "" {
		// Written before the verdict so CI can archive the report from a
		// failing gate run too.
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding -json report: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing -json report: %w", err)
		}
	}

	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	fmt.Println("\nbenchmark gate passed")
	return nil
}

func parseFile(path string) (results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reads Go benchmark output: lines shaped like
//
//	BenchmarkName-8   1000000   106.2 ns/op   5 extra/op   0 B/op   0 allocs/op
//
// Unknown unit columns (custom b.ReportMetric metrics) are ignored.
func parse(r io.Reader) (results, error) {
	out := make(results)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -cpu suffix
			}
		}
		var s sample
		seenNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = val
				seenNs = true
			case "allocs/op":
				s.allocsPerOp = val
				s.hasAllocs = true
			case "B/op":
				s.bytesPerOp = val
				s.hasBytes = true
			}
		}
		if seenNs {
			out[name] = append(out[name], s)
		}
	}
	return out, sc.Err()
}

func medianNs(ss []sample) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = s.nsPerOp
	}
	return median(vals)
}

func medianAllocs(ss []sample) (float64, bool) {
	return medianOf(ss, func(s sample) (float64, bool) { return s.allocsPerOp, s.hasAllocs })
}

func medianBytes(ss []sample) (float64, bool) {
	return medianOf(ss, func(s sample) (float64, bool) { return s.bytesPerOp, s.hasBytes })
}

// medianOf is the median of the values pick reads off the samples that
// carry one; false when none does.
func medianOf(ss []sample, pick func(sample) (float64, bool)) (float64, bool) {
	var vals []float64
	for _, s := range ss {
		if v, ok := pick(s); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	return median(vals), true
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
