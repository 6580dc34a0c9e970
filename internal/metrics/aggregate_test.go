package metrics

import (
	"strings"
	"testing"
)

func TestAggregateMergesRegistries(t *testing.T) {
	r0, r1 := NewRegistry(), NewRegistry()
	r0.CounterFunc("bp_pkts_total", "Packets.", func() uint64 { return 3 }, Label{"stage", "in"})
	r1.CounterFunc("bp_pkts_total", "Packets.", func() uint64 { return 5 }, Label{"stage", "in"})
	r1.GaugeFunc("bp_flows", "Open flows.", func() float64 { return 2 })
	h := NewHistogram()
	r0.RegisterHistogram("bp_latency_seconds", "Latency.", h)
	h.Record(2000)

	a := NewAggregate("gateway")
	a.Attach("gw0", r0)
	a.Attach("gw1", r1)

	var sb strings.Builder
	if err := a.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// One HELP/TYPE per family, even though bp_pkts_total spans registries.
	if got := strings.Count(out, "# HELP bp_pkts_total"); got != 1 {
		t.Fatalf("HELP emitted %d times:\n%s", got, out)
	}
	if got := strings.Count(out, "# TYPE bp_pkts_total counter"); got != 1 {
		t.Fatalf("TYPE emitted %d times:\n%s", got, out)
	}
	// Each registry's series carries its injected label first.
	for _, want := range []string{
		`bp_pkts_total{gateway="gw0",stage="in"} 3`,
		`bp_pkts_total{gateway="gw1",stage="in"} 5`,
		`bp_flows{gateway="gw1"} 2`,
		`bp_latency_seconds_count{gateway="gw0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `bp_latency_seconds_bucket{gateway="gw0",le="+Inf"} 1`) {
		t.Errorf("histogram buckets not rendered with injected label:\n%s", out)
	}
}

func TestAggregateSnapshotGroupsFamilies(t *testing.T) {
	r0, r1 := NewRegistry(), NewRegistry()
	one := func() uint64 { return 1 }
	r0.CounterFunc("bp_a_total", "A.", one)
	r0.CounterFunc("bp_b_total", "B.", one)
	r1.CounterFunc("bp_a_total", "A.", one)

	a := NewAggregate("gateway")
	a.Attach("gw0", r0)
	a.Attach("gw1", r1)

	samples := a.Snapshot()
	var names []string
	for _, s := range samples {
		names = append(names, s.Name)
		if len(s.Labels) == 0 || s.Labels[0].Key != "gateway" {
			t.Fatalf("sample %s missing injected label: %+v", s.Name, s.Labels)
		}
	}
	// Family-contiguous, first-seen order: both bp_a_total series together.
	want := []string{"bp_a_total", "bp_a_total", "bp_b_total"}
	if len(names) != len(want) {
		t.Fatalf("samples = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sample order = %v, want %v", names, want)
		}
	}
}
