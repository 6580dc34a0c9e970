package borderpatrol

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
)

// TestDeploymentFilePolicyHotReload drives the multi-backend policy store
// through the facade: a deployment built over a FilePolicySource hot-swaps
// an edited policy file without restart, keeps the last-good rules when the
// edit is malformed, and surfaces the reload counters on its registry.
func TestDeploymentFilePolicyHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writePolicy(t, path, `{[deny][library]["com/flurry"]}`)

	dep, err := New(Config{Policy: PolicyConfig{
		Source: FilePolicySource(path),
		// No background poll: the test drives ReloadPolicy explicitly for
		// determinism (bp-gateway uses Poll).
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	// Initial policy: analytics (tracker) dropped, upload flows.
	assertOutcome(t, dep, app, "analytics", false)
	assertOutcome(t, dep, app, "upload", true)

	// Hot reload: additionally deny the upload method.
	writePolicy(t, path, `
{[deny][library]["com/flurry"]}
{[deny][method]["Lcom/corp/files/SyncEngine;->upload()V"]}
`)
	applied, err := dep.ReloadPolicy()
	if err != nil || !applied {
		t.Fatalf("ReloadPolicy: applied=%v err=%v", applied, err)
	}
	assertOutcome(t, dep, app, "upload", false)
	assertOutcome(t, dep, app, "download", true)

	// Malformed edit: rejected, last-good (2-rule) policy keeps serving.
	writePolicy(t, path, `{[deny][library "broken"]}`)
	if _, err := dep.ReloadPolicy(); err == nil {
		t.Fatal("malformed candidate applied")
	}
	assertOutcome(t, dep, app, "upload", false)
	assertOutcome(t, dep, app, "analytics", false)
	assertOutcome(t, dep, app, "download", true)

	if applied, failed := reloads(dep, "applied"), reloads(dep, "failed"); applied != 2 || failed != 1 {
		t.Fatalf("reloads = applied %v failed %v, want 2/1", applied, failed)
	}
	version, lastErr := dep.PolicyStatus()
	if version == "" || !strings.Contains(lastErr, "line 1") {
		t.Fatalf("version/error = %q / %q", version, lastErr)
	}
	if rules, _ := dep.Metrics().Value("bp_policy_rules"); rules != 2 {
		t.Fatalf("active rules = %v, want 2", rules)
	}
}

// TestDeploymentPolicyPollBackground: with PolicyPoll set, an edit applies
// with no explicit call at all.
func TestDeploymentPolicyPollBackground(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writePolicy(t, path, `{[deny][library]["com/flurry"]}`)

	dep, err := New(Config{Policy: PolicyConfig{
		Source: FilePolicySource(path),
		Poll:   2 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	assertOutcome(t, dep, app, "upload", true)

	time.Sleep(3 * time.Millisecond) // ensure a distinct mtime
	writePolicy(t, path, `{[deny][method]["Lcom/corp/files/SyncEngine;->upload()V"]}`)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && reloads(dep, "applied") < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if applied := reloads(dep, "applied"); applied < 2 {
		t.Fatalf("background poll never applied the edit: %v reloads applied", applied)
	}
	assertOutcome(t, dep, app, "upload", false)
	assertOutcome(t, dep, app, "analytics", true) // tracker rule replaced
}

func TestDeploymentStaticPolicySource(t *testing.T) {
	dep, err := New(Config{Policy: PolicyConfig{
		Source: StaticPolicySource(`{[deny][library]["com/flurry"]}`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	assertOutcome(t, dep, app, "analytics", false)
	if applied, version := reloads(dep, "applied"), policyVersion(dep); applied != 1 || version == "" {
		t.Fatalf("reloads applied %v, version %q", applied, version)
	}
}

func TestDeploymentPolicySourceExclusions(t *testing.T) {
	_, err := New(Config{Policy: PolicyConfig{
		Doc:    `{[deny][library]["com/flurry"]}`,
		Source: StaticPolicySource(""),
	}})
	if err == nil {
		t.Fatal("Policy + PolicySource accepted")
	}

	// A broken initial policy is fatal: no last-good exists yet.
	if _, err := New(Config{Policy: PolicyConfig{
		Source: StaticPolicySource(`{[broken`),
	}}); err == nil {
		t.Fatal("broken initial policy accepted")
	}

	// Without a source, ReloadPolicy reports misuse.
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.ReloadPolicy(); err == nil {
		t.Fatal("ReloadPolicy without a source succeeded")
	}
	if applied, version := reloads(dep, "applied"), policyVersion(dep); applied != 0 || version != "" {
		t.Fatalf("sourceless: reloads applied %v, version %q", applied, version)
	}
}

// TestDeploymentRejectsInertStaleness is the facade's refusal table. A
// poll interval or a staleness deadline needs a policy source to act on,
// a degraded posture needs a deadline to degrade at, and a deadline a
// posture other than FailStatic to degrade to; a document and a source
// are two policies; a negative flow TTL never expires a flow; and a
// fleet's stores watch its hub. Each would otherwise be accepted and do
// nothing, or do the wrong thing. Every refusal names the field paths the
// caller set, in the facade's words and no Go field or package of its
// own.
func TestDeploymentRejectsInertStaleness(t *testing.T) {
	doc := `{[deny][library]["com/flurry"]}`
	fleet := func(pc PolicyConfig) FleetConfig {
		return FleetConfig{Policy: pc, Gateways: []GatewaySpec{{Subnet: netip.MustParsePrefix("10.1.0.0/16")}}}
	}
	for _, c := range []struct {
		name  string
		cfg   any // Config for New, FleetConfig for NewFleet
		paths []string
	}{
		{"poll without source", Config{Policy: PolicyConfig{Doc: doc, Poll: time.Millisecond}}, []string{"Policy.Poll", "Policy.Source"}},
		{"max-stale without source", Config{Policy: PolicyConfig{Doc: doc, MaxStale: time.Second}}, []string{"Policy.MaxStale", "Policy.Source"}},
		{"fail mode without source", Config{Policy: PolicyConfig{Doc: doc, FailMode: FailOpen}}, []string{"Policy.FailMode", "Policy.Source"}},
		{"all three without source", Config{Policy: PolicyConfig{Doc: doc, MaxStale: time.Nanosecond, FailMode: FailClosed, Poll: time.Millisecond}},
			[]string{"Policy.Poll", "Policy.MaxStale", "Policy.FailMode", "Policy.Source"}},
		{"fail mode without max", Config{Policy: PolicyConfig{Source: StaticPolicySource(doc), FailMode: FailOpen}}, []string{"Policy.FailMode", "Policy.MaxStale"}},
		{"max-stale with static", Config{Policy: PolicyConfig{Source: StaticPolicySource(doc), MaxStale: time.Second}}, []string{"Policy.MaxStale", "Policy.FailMode"}},
		{"doc and source", Config{Policy: PolicyConfig{Doc: doc, Source: StaticPolicySource(doc)}}, []string{"Policy.Doc", "Policy.Source"}},
		{"malformed doc", Config{Policy: PolicyConfig{Doc: `{[deny][library]`}}, []string{"Policy.Doc"}},
		{"negative flow TTL", Config{Flow: FlowConfig{TTL: -time.Second}}, []string{"Flow.TTL"}},
		{"fleet with source", fleet(PolicyConfig{Doc: doc, Source: StaticPolicySource(doc)}), []string{"Policy.Source"}},
		{"fleet with poll", fleet(PolicyConfig{Doc: doc, Poll: time.Second}), []string{"Policy.Poll"}},
		{"fleet with posture", fleet(PolicyConfig{Doc: doc, MaxStale: time.Second, FailMode: FailClosed}), []string{"Policy.MaxStale", "Policy.FailMode"}},
	} {
		var err error
		switch cfg := c.cfg.(type) {
		case Config:
			var dep *Deployment
			if dep, err = New(cfg); err == nil {
				dep.Close()
			}
		case FleetConfig:
			var f *Fleet
			if f, err = NewFleet(cfg); err == nil {
				f.Close()
			}
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		msg := err.Error()
		for _, p := range c.paths {
			if !strings.Contains(msg, p) {
				t.Errorf("%s: refusal %q does not name %s", c.name, msg, p)
			}
		}
		for _, word := range []string{"PolicyConfig", "PolicySource", "PolicyPoll", "PolicyMaxStale", "PolicyFailMode", "FlowTTL", "experiments:", "policystore:"} {
			if strings.Contains(msg, word) {
				t.Errorf("%s: refusal %q names %s, which the caller never typed", c.name, msg, word)
			}
		}
		if !strings.HasPrefix(msg, "borderpatrol: ") {
			t.Errorf("%s: refusal %q lacks the facade's prefix", c.name, msg)
		}
	}
}

// policyVersion is the deployment's active policy revision.
func policyVersion(dep *Deployment) string {
	version, _ := dep.PolicyStatus()
	return version
}

// reloads reads the policy store's reload cycles with one outcome.
func reloads(dep *Deployment, outcome string) float64 {
	v, _ := dep.Metrics().Value("bp_policy_reloads_total", metrics.L("outcome", outcome))
	return v
}

// assertOutcome exercises one functionality and asserts delivery.
func assertOutcome(t *testing.T, dep *Deployment, app *App, fn string, wantDelivered bool) {
	t.Helper()
	out, err := dep.Exercise(app, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s emitted no packets", fn)
	}
	for i, o := range out {
		if o.Delivered != wantDelivered {
			t.Fatalf("%s packet %d delivered=%v want %v (reason %q, stage %q)",
				fn, i, o.Delivered, wantDelivered, o.Reason, o.DropStage)
		}
	}
}

// writePolicy replaces the policy file atomically (temp file + rename): a
// background poll must never read it half written, which parses as an
// empty policy.
func writePolicy(t *testing.T, path, doc string) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}
