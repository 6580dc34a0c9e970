package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricSpec names one metric and its unit. BENCHMARK.json carries the
// same names with direction and regression bound; bench_test.go keeps the
// two in step.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricSpec{
	{"pkts_per_s", "1/s"},
	{"op_us_p50", "us"},
	{"allocs_per_pkt", "count"},
	{"bytes_per_pkt", "B"},
	{"live_heap_mb", "MiB"},
	{"ok_ops_share", "share"},
	{"audit_kept_share", "share"},
	{"setup_s", "s"},
}

// perLayer is what a traced run attributes to single layers.
var perLayer = []metricSpec{
	{"android.invoke_ns_per_pkt", "ns"},
	{"netstack.connect_us", "us"},
	{"contextmgr.tag_us", "us"},
	{"kernel.send_ns", "ns"},
	{"netsim.deliver_ns_per_pkt", "ns"},
	{"netsim.gateway_ns_per_pkt", "ns"},
	{"enforcer.batch_ns_per_pkt", "ns"},
	{"enforcer.miss_share", "share"},
	{"enforcer.memo_hit_share", "share"},
	{"flowtable.hit_share", "share"},
	{"flowtable.live_entries", "count"},
	{"flowtable.evictions_per_kpkt", "count"},
	{"tag.decode_ns", "ns"},
	{"analyzer.decode_stack_ns", "ns"},
	{"policy.evaluate_ns", "ns"},
	{"sanitizer.process_ns", "ns"},
	{"netsim.conntrack_observe_ns", "ns"},
	{"netsim.conntrack_open_at_mark", "count"},
	{"kernel.netfilter_ns_per_pkt", "ns"},
	{"netsim.serve_ns_per_pkt", "ns"},
	{"transport.parse_tcp_ns", "ns"},
	{"httpsim.parse_request_ns", "ns"},
	{"dns.zone_handler_ns", "ns"},
	{"netsim.response_ns_per_pkt", "ns"},
	{"audit.record_ns", "ns"},
	{"policystore.swap_ms_p50", "ms"},
	{"devctx.flip_us", "us"},
	{"enforcer.invalidation_burst_ratio", "ratio"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.gen_ns_per_pkt", "ns"},
	{"loadgen.op_us_p99", "us"},
	{"loadgen.op_us_p999", "us"},
	{"trace.overhead_share", "share"},
	{"trace.by_difference_share", "share"},
}

// reading is one measured metric; a NaN value is reported as null, with
// note saying why.
type reading struct {
	value float64
	note  string
}

// report is one workload's run.
type report struct {
	workload string
	traced   bool
	cfg      config
	ops      int
	pkts     int
	failed   int
	// problems are oracle failures, twin mismatches and violated counter
	// invariants; any makes the run incorrect.
	problems []string
	metrics  map[string]reading
	// counters are values that repeat exactly between two count-mode runs
	// of one seed.
	counters map[string]float64
	// budget is the traced run's per-packet cost tree.
	budget []string
}

func newReport(w *workload, cfg config, traced bool) *report {
	return &report{workload: w.name, traced: traced, cfg: cfg,
		metrics: make(map[string]reading), counters: make(map[string]float64)}
}

func (r *report) set(name string, v float64, note string) {
	r.metrics[name] = reading{value: v, note: note}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) specs() []metricSpec {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s: %s; %d operations, %d packets, %d failed\n", r.workload, mode, r.ops, r.pkts, r.failed)
	for _, s := range r.specs() {
		m, ok := r.metrics[s.name]
		val := "null"
		if ok && !math.IsNaN(m.value) {
			val = fmt.Sprintf("%.6g", m.value)
		}
		line := fmt.Sprintf("%-10s %-34s %14s %-6s", r.workload, s.name, val, s.unit)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, b := range r.budget {
		fmt.Fprintln(w, b)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-10s PROBLEM: %s\n", r.workload, p)
	}
}

// jsonMetric is the contract's shape for one metric.
type jsonMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	Note  string   `json:"note,omitempty"`
}

// resultLine is the one-line result the driver reads. Values are always
// numbers there: a metric that does not apply to the workload (or a
// percentile withheld for want of samples) reads 0, and the result file
// says null and why.
func resultLine(reports []*report) string {
	type line struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	out := line{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, r := range reports {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.pkts
		out.Failed += r.failed
		for _, s := range r.specs() {
			v := r.metrics[s.name].value
			if math.IsNaN(v) {
				v = 0
			}
			name := s.name
			if len(reports) > 1 {
				name = r.workload + "." + name
			}
			out.Metrics[name] = jsonMetric{Value: &v, Unit: s.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// writeFile writes the machine-readable result of one run.
func (r *report) writeFile(dir string) (string, error) {
	type file struct {
		Benchmark  string                `json:"benchmark"`
		Workload   string                `json:"workload"`
		Mode       string                `json:"mode"`
		Commit     string                `json:"commit"`
		GoVersion  string                `json:"go_version"`
		GOMAXPROCS int                   `json:"gomaxprocs"`
		NumCPU     int                   `json:"nproc"`
		CPUModel   string                `json:"cpu_model"`
		Seed       int64                 `json:"seed"`
		Scale      float64               `json:"scale"`
		Seconds    float64               `json:"seconds"`
		Operations int                   `json:"operations"`
		Packets    int                   `json:"packets"`
		Failed     int                   `json:"failed"`
		Correct    bool                  `json:"correct"`
		Problems   []string              `json:"problems,omitempty"`
		Metrics    map[string]jsonMetric `json:"metrics"`
		Counters   map[string]float64    `json:"counters"`
		Budget     []string              `json:"budget,omitempty"`
	}
	f := file{
		Benchmark: "borderpatrol/benchmark", Workload: r.workload, Mode: "end_to_end",
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Seed: r.cfg.seed, Scale: r.cfg.scale, Seconds: r.cfg.seconds,
		Operations: r.ops, Packets: r.pkts, Failed: r.failed, Correct: r.correct(),
		Problems: r.problems, Metrics: make(map[string]jsonMetric), Counters: r.counters, Budget: r.budget,
	}
	name := "BENCH_" + r.workload + ".json"
	if r.traced {
		f.Mode = "per_layer"
		name = "BENCH_" + r.workload + "_trace.json"
	}
	for _, s := range r.specs() {
		m := r.metrics[s.name]
		jm := jsonMetric{Unit: s.unit, Note: m.note}
		if !math.IsNaN(m.value) {
			v := m.value
			jm.Value = &v
		}
		f.Metrics[s.name] = jm
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the revision the binary was built from: the stamped VCS
// revision when there is one, else what .git says, else "unknown" (the
// driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", rest))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
