package borderpatrol

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDeploymentFilePolicyHotReload drives the multi-backend policy store
// through the facade: a deployment built over a FilePolicySource hot-swaps
// an edited policy file without restart, keeps the last-good rules when the
// edit is malformed, and surfaces the reload counters in DeploymentStats.
func TestDeploymentFilePolicyHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writePolicy(t, path, `{[deny][library]["com/flurry"]}`)

	dep, err := NewDeployment(DeploymentConfig{
		PolicySource: FilePolicySource(path),
		// No background poll: the test drives ReloadPolicy explicitly for
		// determinism (bp-gateway uses PolicyPoll).
	})
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

	st := dep.Stats()
	if st.PolicyReloads != 2 || st.PolicyReloadFailures != 1 {
		t.Fatalf("reload stats = %+v", st)
	}
	if st.PolicyVersion == "" || !strings.Contains(st.PolicyLastError, "line 1") {
		t.Fatalf("version/error stats = %q / %q", st.PolicyVersion, st.PolicyLastError)
	}
	if ps := dep.PolicyStoreStats(); ps.Applied != 2 || ps.Rules != 2 {
		t.Fatalf("store stats = %+v", ps)
	}
}

// TestDeploymentPolicyPollBackground: with PolicyPoll set, an edit applies
// with no explicit call at all.
func TestDeploymentPolicyPollBackground(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writePolicy(t, path, `{[deny][library]["com/flurry"]}`)

	dep, err := NewDeployment(DeploymentConfig{
		PolicySource: FilePolicySource(path),
		PolicyPoll:   2 * time.Millisecond,
	})
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
	for time.Now().Before(deadline) && dep.Stats().PolicyReloads < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if st := dep.Stats(); st.PolicyReloads < 2 {
		t.Fatalf("background poll never applied the edit: %+v", st)
	}
	assertOutcome(t, dep, app, "upload", false)
	assertOutcome(t, dep, app, "analytics", true) // tracker rule replaced
}

func TestDeploymentStaticPolicySource(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{
		PolicySource: StaticPolicySource(`{[deny][library]["com/flurry"]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	assertOutcome(t, dep, app, "analytics", false)
	if st := dep.Stats(); st.PolicyReloads != 1 || st.PolicyVersion == "" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeploymentPolicySourceExclusions(t *testing.T) {
	_, err := NewDeployment(DeploymentConfig{
		Policy:       `{[deny][library]["com/flurry"]}`,
		PolicySource: StaticPolicySource(""),
	})
	if err == nil {
		t.Fatal("Policy + PolicySource accepted")
	}

	// A broken initial policy is fatal: no last-good exists yet.
	if _, err := NewDeployment(DeploymentConfig{
		PolicySource: StaticPolicySource(`{[broken`),
	}); err == nil {
		t.Fatal("broken initial policy accepted")
	}

	// Without a source, ReloadPolicy reports misuse.
	dep, err := NewDeployment(DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.ReloadPolicy(); err == nil {
		t.Fatal("ReloadPolicy without a source succeeded")
	}
	if st := dep.Stats(); st.PolicyReloads != 0 || st.PolicyVersion != "" {
		t.Fatalf("sourceless stats = %+v", st)
	}
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
