package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentSum(t *testing.T) {
	c := NewCounter()
	const (
		workers = 8
		perG    = 100_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perG {
		t.Fatalf("counter = %d, want %d", got, workers*perG)
	}
}

// TestGauge: a GaugeFunc series reads its closure at every scrape, so it
// follows the component's value down as well as up.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	depth := 41.0
	r.GaugeFunc("bp_depth", "queue depth", func() float64 { return depth })
	depth += 1.5
	if got, _ := r.Value("bp_depth"); got != 42.5 {
		t.Fatalf("gauge = %v, want 42.5", got)
	}
	depth -= 42.5
	if got, _ := r.Value("bp_depth"); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.CounterFunc("bp_ok_total", "fine", zero)
	expectPanic("duplicate", func() { r.CounterFunc("bp_ok_total", "again", zero) })
	expectPanic("kind clash", func() { r.GaugeFunc("bp_ok_total", "as gauge", func() float64 { return 0 }) })
	expectPanic("kind clash", func() { r.RegisterHistogram("bp_ok_total", "as histogram", NewHistogram()) })
	expectPanic("bad name", func() { r.CounterFunc("bad-name", "dashes", zero) })
	expectPanic("bad label", func() { r.CounterFunc("bp_lbl_total", "l", zero, L("bad-key", "v")) })
	// Same name with distinct labels is one family, not a duplicate.
	r.CounterFunc("bp_labeled_total", "l", zero, L("kind", "a"))
	r.CounterFunc("bp_labeled_total", "l", zero, L("kind", "b"))
}

// sampleLine matches one Prometheus exposition sample line.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9][0-9eE.+-]*|[+-]Inf|NaN)$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := NewCounter()
	r.CounterFunc("bp_packets_total", "packets seen", c.Value, L("decision", "allow"))
	c.Add(7)
	r.CounterFunc("bp_fn_total", "computed", func() uint64 { return 9 })
	r.GaugeFunc("bp_depth", "queue depth", func() float64 { return 3.5 })
	h := NewHistogram()
	r.RegisterHistogram("bp_latency_ns", "latency", h)
	for _, v := range []int64{1, 100, 100, 5000, 1 << 40} {
		h.Record(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE bp_packets_total counter",
		`bp_packets_total{decision="allow"} 7`,
		"bp_fn_total 9",
		"# TYPE bp_depth gauge",
		"bp_depth 3.5",
		"# TYPE bp_latency_ns histogram",
		`bp_latency_ns_bucket{le="+Inf"} 5`,
		"bp_latency_ns_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}

	// Every non-comment line must be a well-formed sample.
	helpOrType := 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			helpOrType++
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
	if helpOrType != 8 {
		t.Errorf("expected 4 HELP + 4 TYPE lines, got %d", helpOrType)
	}

	// Histogram cumulative counts must be non-decreasing and end at the
	// total, and _sum must equal the recorded sum.
	wantSum := uint64(1 + 100 + 100 + 5000 + 1<<40)
	if !strings.Contains(out, "bp_latency_ns_sum "+strconv.FormatUint(wantSum, 10)) {
		t.Errorf("missing histogram sum %d\n%s", wantSum, out)
	}
	var prev uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "bp_latency_ns_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts decreased: %q after %d", line, prev)
		}
		prev = v
	}
	if prev != 5 {
		t.Errorf("final cumulative bucket = %d, want 5", prev)
	}
}

func TestSnapshotFlattens(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("bp_a_total", "a", func() uint64 { return 3 })
	r.GaugeFunc("bp_b", "b", func() float64 { return 1.25 })
	h := NewHistogram()
	r.RegisterHistogram("bp_c_ns", "c", h)
	h.Record(10)
	samples := r.Snapshot()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	if samples[0].Name != "bp_a_total" || samples[0].Value != 3 || samples[0].Kind != KindCounter {
		t.Errorf("counter sample wrong: %+v", samples[0])
	}
	if samples[1].Value != 1.25 || samples[1].Kind != KindGauge {
		t.Errorf("gauge sample wrong: %+v", samples[1])
	}
	if samples[2].Hist == nil || samples[2].Hist.Count() != 1 || samples[2].Kind != KindHistogram {
		t.Errorf("histogram sample wrong: %+v", samples[2])
	}
}

func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("bp_x_total", "x", func() uint64 { return 2 }, L("kind", "a"), L("side", "in"))
	r.CounterFunc("bp_x_total", "x", func() uint64 { return 5 }, L("kind", "b"), L("side", "in"))
	r.GaugeFunc("bp_g", "g", func() float64 { return 1.5 })
	h := NewHistogram()
	r.RegisterHistogram("bp_h_ns", "h", h)
	h.Record(7)
	for _, tc := range []struct {
		name   string
		labels []Label
		want   float64
		ok     bool
	}{
		{"bp_x_total", nil, 7, true},
		{"bp_x_total", []Label{L("kind", "b")}, 5, true},
		{"bp_x_total", []Label{L("side", "in"), L("kind", "a")}, 2, true},
		{"bp_x_total", []Label{L("kind", "c")}, 0, false},
		{"bp_g", nil, 1.5, true},
		{"bp_h_ns", nil, 1, true},
		{"bp_missing_total", nil, 0, false},
	} {
		if v, ok := r.Value(tc.name, tc.labels...); v != tc.want || ok != tc.ok {
			t.Errorf("Value(%s, %v) = %v, %v; want %v, %v", tc.name, tc.labels, v, ok, tc.want, tc.ok)
		}
	}
}
