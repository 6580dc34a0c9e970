package borderpatrol

import (
	"strings"
	"testing"

	"borderpatrol/internal/metrics"
)

// TestDeploymentContextualPolicy drives the contextual dimension through
// the public facade: risk rules in Config.Policy.Doc, a device context
// provisioned before the first flow, Exercise outcomes flipping with the
// device's reported context,
// and the bp_context_* metric families on the deployment registry.
func TestDeploymentContextualPolicy(t *testing.T) {
	dep, err := New(Config{
		Policy: PolicyConfig{
			Doc: `
{[deny][library]["com/flurry"]}
{[risk][network]["unknown"][100]}
{[risk][network]["trusted"][-50]}
{[threshold][block][100]}
`,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	dep.Context().Provision(dep.Device().Config().Addr, DeviceContext{Network: NetTrusted})
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	// Trusted network: the provisioned context keeps the risk score below
	// the block threshold, so the business flow delivers.
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if !o.Delivered {
			t.Fatalf("trusted download packet %d dropped: %+v", i, o)
		}
	}

	// The device roams to an unknown network. The report flows through the
	// bound context source, bumps the generation, and the next flow (and
	// any cached one) scores 100 ≥ block.
	dep.Device().ReportNetwork(NetUnknown)
	out, err = dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, o := range out {
		if !o.Delivered {
			dropped++
			if o.Reason != "risk score 100 >= block threshold 100" {
				t.Fatalf("drop reason = %q, want the risk score and the block threshold", o.Reason)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no packet dropped after roaming to an unknown network")
	}

	// Roaming back re-admits.
	dep.Device().ReportNetwork(NetTrusted)
	out, err = dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if !o.Delivered {
			t.Fatalf("re-trusted download packet %d dropped: %+v", i, o)
		}
	}

	// The context surface is observable through its metric families.
	devices, _ := dep.Metrics().Value("bp_context_devices")
	if network, _ := dep.Metrics().Value("bp_context_invalidations_total", metrics.L("cause", "network")); devices != 1 || network != 2 {
		t.Fatalf("context: %v devices, %v network invalidations; want 1, 2", devices, network)
	}
	var prom strings.Builder
	if err := dep.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"bp_context_evaluations_total",
		"bp_context_invalidations_total",
		"bp_context_devices",
	} {
		if !strings.Contains(prom.String(), family) {
			t.Fatalf("metric family %s missing from scrape", family)
		}
	}
}

// TestDeploymentContextRoundTripsThroughParsePolicy pins the facade-level
// grammar surface: contextual rules survive ParsePolicy → FormatPolicy.
func TestDeploymentContextRoundTripsThroughParsePolicy(t *testing.T) {
	doc := `{[risk][posture]["screen-unlocked"][25]}
{[risk][travel]["impossible"][100]}
{[threshold][warn][40]}
`
	rules, err := ParsePolicy(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatPolicy(rules); got != doc {
		t.Fatalf("round trip:\n%s\nwant:\n%s", got, doc)
	}
}
