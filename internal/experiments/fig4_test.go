package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
)

// TestFig4DynamicIsTheShippedGateway: config (vi), the full prototype, is
// the gateway every deployment ships. It registers the same flow-table,
// audit and device-context families as NewTestbed's.
func TestFig4DynamicIsTheShippedGateway(t *testing.T) {
	fig, err := buildFig4Testbed(ConfigDynamic)
	if err != nil {
		t.Fatal(err)
	}
	defer fig.close()
	ref, err := NewTestbed(nil, TestbedConfig{EnforcementOn: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	families := func(reg *metrics.Registry) []string {
		var out []string
		for _, smp := range reg.Snapshot() {
			for _, prefix := range []string{"bp_flowtable_", "bp_audit_", "bp_context_"} {
				if strings.HasPrefix(smp.Name, prefix) && !slices.Contains(out, smp.Name) {
					out = append(out, smp.Name)
				}
			}
		}
		slices.Sort(out)
		return out
	}
	got, want := families(fig.shipped.Metrics), families(ref.Metrics)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("config (vi) registers\n%v\nNewTestbed registers\n%v", got, want)
	}
}

// TestFig4LatenciesPinned: virtual time is deterministic, so the figure's
// and the keep-alive sweep's per-request latencies are exact values.
func TestFig4LatenciesPinned(t *testing.T) {
	res, err := RunFig4(Fig4Options{Iterations: 50, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Fig4ConfigID]time.Duration{
		ConfigDefaultSLIRP:   5150 * time.Microsecond,
		ConfigDefaultTAP:     4850 * time.Microsecond,
		ConfigTAPNFQueue:     5750 * time.Microsecond,
		ConfigStaticInject:   5820 * time.Microsecond,
		ConfigStaticGetStack: 7320 * time.Microsecond,
		ConfigDynamic:        7440 * time.Microsecond,
	}
	for _, p := range res.Points {
		if p.MeanLatency != want[p.Config] || p.Requests != 50 {
			t.Errorf("%s: %v over %d requests, want %v over 50", p.Config, p.MeanLatency, p.Requests, want[p.Config])
		}
	}
	points, err := RunKeepAliveAmortization([]int{1, 10, 100}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantKA := range []time.Duration{7440 * time.Microsecond, 2526 * time.Microsecond, 2034600 * time.Nanosecond} {
		if points[i].MeanPerRequest != wantKA {
			t.Errorf("%d requests per socket: %v, want %v", points[i].RequestsPerSocket, points[i].MeanPerRequest, wantKA)
		}
	}
}
