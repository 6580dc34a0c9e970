package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"borderpatrol/internal/audit"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policystore"
)

// unitSuffixes name the unit a histogram, or a gauge that has one, must end
// in: a base time or size unit, the thing a histogram of counts counts, or
// the dimensionless score.
var unitSuffixes = []string{"_ns", "_seconds", "_bytes", "_packets", "_entries", "_score"}

// unitWords in a gauge's name say it measures a quantity with a unit.
var unitWords = []string{"age", "latency", "duration", "delay", "time"}

// TestMetricCatalogue checks the names and shapes of every family a fully
// wired deployment registers — the policy store and a rotating audit file
// included — against the exposition conventions: every family explains
// itself, a counter ends in _total, a histogram or a gauge with a unit names
// the unit, and no family's label set grows past a bounded number of series.
func TestMetricCatalogue(t *testing.T) {
	w, err := audit.NewRotatingWriter(filepath.Join(t.TempDir(), "audit.jsonl"), 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tb, err := NewTestbed(nil, TestbedConfig{
		EnforcementOn: true,
		PolicySource:  policystore.NewStaticSource(`{[deny][library]["com/flurry"]}`),
		AuditWriter:   w,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	const maxSeries = 16
	type family struct {
		help   string
		kind   metrics.Kind
		series int
	}
	families := map[string]*family{}
	var order []string
	for _, smp := range tb.Metrics.Snapshot() {
		f := families[smp.Name]
		if f == nil {
			f = &family{help: smp.Help, kind: smp.Kind}
			families[smp.Name] = f
			order = append(order, smp.Name)
		}
		f.series++
	}
	if len(order) < 40 {
		t.Fatalf("only %d families registered: the deployment is not fully wired", len(order))
	}
	hasUnit := func(name string) bool {
		for _, s := range unitSuffixes {
			if strings.HasSuffix(name, s) {
				return true
			}
		}
		return false
	}
	for _, name := range order {
		f := families[name]
		if strings.TrimSpace(f.help) == "" {
			t.Errorf("%s has no HELP", name)
		}
		if f.series > maxSeries {
			t.Errorf("%s has %d series, more than %d", name, f.series, maxSeries)
		}
		switch f.kind {
		case metrics.KindCounter:
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
		case metrics.KindHistogram:
			if !hasUnit(name) {
				t.Errorf("histogram %s does not name its unit", name)
			}
		case metrics.KindGauge:
			if strings.HasSuffix(name, "_total") {
				t.Errorf("gauge %s ends in _total", name)
			}
			for _, word := range unitWords {
				if strings.Contains(name, "_"+word) && !hasUnit(name) {
					t.Errorf("gauge %s measures %s but does not name its unit", name, word)
				}
			}
		}
	}
}
