package borderpatrol

import (
	"net/netip"
	"strings"
	"testing"
	"time"
)

const fleetPolicyV1 = `
// fleet-wide rules
{[deny][library]["com/flurry"]}
//@group eng
{[deny][method]["Lcom/corp/files/SyncEngine;->upload()V"]}
//@group sales
{[allow][library]["com/corp"]}
`

func newTestFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Policy: PolicyConfig{Doc: fleetPolicyV1},
		Gateways: []GatewaySpec{
			{Name: "gwA", Subnet: netip.MustParsePrefix("10.1.0.0/16"), Groups: []string{"eng"}},
			{Name: "gwB", Subnet: netip.MustParsePrefix("10.2.0.0/16"), Groups: []string{"sales"}},
		},
		WatchTimeout: time.Hour, // all progress must come from the push, not an idle round
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFleetShardedEnforcement: each gateway enforces the global rules
// plus its own group's — and never another group's.
func TestFleetShardedEnforcement(t *testing.T) {
	f := newTestFleet(t)
	depA, depB := f.Deployment("gwA"), f.Deployment("gwB")
	if depA == nil || depB == nil || depA.Name() != "gwA" {
		t.Fatalf("deployment lookup broken: %v %v", depA, depB)
	}
	appA, err := depA.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	appB, err := depB.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	// The global tracker rule applies everywhere.
	for name, pair := range map[string]struct {
		dep *Deployment
		app *App
	}{"gwA": {depA, appA}, "gwB": {depB, appB}} {
		out, err := pair.dep.Exercise(pair.app, "analytics")
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Delivered {
			t.Fatalf("%s: global tracker rule not enforced", name)
		}
	}
	// The eng group's upload rule binds gwA only; its appearance on gwB
	// would be a cross-group policy leak.
	if out, _ := depA.Exercise(appA, "upload"); out[0].Delivered {
		t.Fatal("gwA: eng upload rule not enforced")
	}
	if out, _ := depB.Exercise(appB, "upload"); !out[0].Delivered {
		t.Fatal("gwB: eng rule leaked into the sales shard")
	}
}

// TestFleetPushPolicyOneWatchRound: one PushPolicy reaches every gateway
// in a single watch round — counters, not sleeps — and only the gateways
// whose shard changed recompile.
func TestFleetPushPolicyOneWatchRound(t *testing.T) {
	f := newTestFleet(t)
	depA, depB := f.Deployment("gwA"), f.Deployment("gwB")
	if f.PolicyRev() != 1 {
		t.Fatalf("seed revision = %d", f.PolicyRev())
	}

	// A fleet-wide edit (global section) changes every shard: each store
	// applies exactly once, within exactly one watch round.
	v2 := strings.Replace(fleetPolicyV1, `["com/flurry"]`, `["com/flurry/sdk"]`, 1)
	if err := f.PushPolicy(v2); err != nil {
		t.Fatal(err)
	}
	for _, dep := range f.Deployments() {
		applied, rounds, unchanged, failed := reloads(dep, "applied"), watchRounds(dep), reloads(dep, "unchanged"), reloads(dep, "failed")
		if applied != 2 || rounds != 1 || unchanged != 0 || failed != 0 {
			t.Fatalf("%s after global push: applied/rounds/unchanged/failed = %v/%v/%v/%v", dep.Name(), applied, rounds, unchanged, failed)
		}
	}

	// A single-group edit recompiles only that shard; the other gateway
	// sees the round but keeps its compiled rules.
	v3 := strings.Replace(v2, `{[allow][library]["com/corp"]}`, `{[allow][library]["com/corp/files"]}`, 1)
	if err := f.PushPolicy(v3); err != nil {
		t.Fatal(err)
	}
	if applied, rounds := reloads(depB, "applied"), watchRounds(depB); applied != 3 || rounds != 2 {
		t.Fatalf("gwB after sales push: %v applied in %v rounds", applied, rounds)
	}
	if applied, unchanged, rounds := reloads(depA, "applied"), reloads(depA, "unchanged"), watchRounds(depA); applied != 2 || unchanged != 1 || rounds != 2 {
		t.Fatalf("gwA after sales push: %v applied, %v unchanged in %v rounds", applied, unchanged, rounds)
	}

	// Identical document: revision and counters stand still.
	rev := f.PolicyRev()
	if err := f.PushPolicy(v3); err != nil {
		t.Fatal(err)
	}
	if f.PolicyRev() != rev {
		t.Fatal("identical push revisioned the hub")
	}

	// A malformed document is rejected before it reaches the hub.
	if err := f.PushPolicy("//@groups typo\n" + v3); err == nil {
		t.Fatal("malformed push accepted")
	}
	if f.PolicyRev() != rev {
		t.Fatal("malformed push revisioned the hub")
	}
}

// TestFleetPushWithDefaults: a fleet whose watch timeout and posture are
// all left zero still watches its hub, so a push lands in one watch round,
// a tenth of the push timeout at most, and the pushed rule is enforced.
func TestFleetPushWithDefaults(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Policy:   PolicyConfig{Doc: fleetPolicyV1},
		Gateways: []GatewaySpec{{Name: "gwA", Subnet: netip.MustParsePrefix("10.1.0.0/16"), Groups: []string{"eng"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dep := f.Deployment("gwA")
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	delivered := func() bool {
		out, err := dep.Exercise(app, "download")
		if err != nil {
			t.Fatal(err)
		}
		return out[0].Delivered
	}
	if !delivered() {
		t.Fatal("download dropped before the push")
	}

	v2 := fleetPolicyV1 + "//@group eng\n{[deny][method][\"Lcom/corp/files/SyncEngine;->download()V\"]}\n"
	start := time.Now()
	if err := f.PushPolicy(v2); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("push took %v, want one watch round", took)
	}
	if rounds := watchRounds(dep); rounds != 1 {
		t.Fatalf("push took %v watch rounds, want 1", rounds)
	}
	if delivered() {
		t.Fatal("the pushed deny rule is not enforced")
	}
}

// watchRounds reads the policy store's completed watch rounds.
func watchRounds(dep *Deployment) float64 {
	v, _ := dep.Metrics().Value("bp_policy_watch_rounds_total")
	return v
}

// TestFleetAggregatedMetrics: one scrape covers every gateway, each
// series labelled with its gateway, HELP/TYPE emitted once per family.
func TestFleetAggregatedMetrics(t *testing.T) {
	f := newTestFleet(t)
	depA := f.Deployment("gwA")
	app, err := depA.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := depA.Exercise(app, "download"); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := f.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`bp_enforcer_verdicts_total{gateway="gwA",decision="allow"}`,
		`bp_enforcer_verdicts_total{gateway="gwB",decision="allow"} 0`,
		`bp_policy_watch_rounds_total{gateway="gwA"}`,
		`bp_netsim_faults_total{gateway="fleet",stage="drop"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if got := strings.Count(out, "# TYPE bp_enforcer_verdicts_total counter"); got != 1 {
		t.Errorf("TYPE emitted %d times", got)
	}
}

// TestFleetRejectsOverlappingSubnets: two gateways on overlapping subnets
// would provision their devices on one address and route the shared range
// to the first gateway only, so NewFleet refuses them, identical or nested.
func TestFleetRejectsOverlappingSubnets(t *testing.T) {
	for name, second := range map[string]string{
		"identical": "10.1.0.0/16",
		"nested":    "10.1.2.0/24",
	} {
		t.Run(name, func(t *testing.T) {
			f, err := NewFleet(FleetConfig{
				Policy: PolicyConfig{Doc: fleetPolicyV1},
				Gateways: []GatewaySpec{
					{Name: "gwA", Subnet: netip.MustParsePrefix("10.1.0.0/16"), Groups: []string{"eng"}},
					{Name: "gwB", Subnet: netip.MustParsePrefix(second), Groups: []string{"sales"}},
				},
			})
			if err == nil {
				f.Close()
				t.Fatalf("fleet with gwB on %s inside gwA's 10.1.0.0/16 built", second)
			}
			if !strings.Contains(err.Error(), "overlaps") {
				t.Fatalf("error = %v, want a subnet overlap", err)
			}
		})
	}
}
