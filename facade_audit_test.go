package borderpatrol

import (
	"bytes"
	"os"
	"slices"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
)

// TestAuditPipelineEndToEnd drives the facade and checks the asynchronous
// audit pipeline: every enforced packet is recorded, nothing is shed at
// this scale, entries reach the writer on flush, and Close is clean.
func TestAuditPipelineEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	dep, err := New(Config{
		Policy: PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`},
		Audit:  AuditConfig{Writer: &buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := dep.Exercise(app, "download"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dep.Exercise(app, "analytics"); err != nil {
		t.Fatal(err)
	}

	// Every packet of every connection is audited: 3 download connections
	// × (SYN + request + FIN) + 1 analytics connection × 3 = 12.
	tail := dep.AuditTail() // flushes the pipeline
	if len(tail) != 12 {
		t.Fatalf("audit tail has %d entries, want 12", len(tail))
	}
	reg := dep.Metrics()
	rec, _ := reg.Value("bp_audit_recorded_total")
	if drop, _ := reg.Value("bp_audit_dropped_total"); rec != 12 || drop != 0 {
		t.Fatalf("audit = recorded %v dropped %v", rec, drop)
	}
	if pending, _ := reg.Value("bp_audit_queue_depth"); pending != 0 {
		t.Fatalf("audit pending = %v after flush", pending)
	}
	drop := tail[len(tail)-1]
	if drop.Verdict != "drop" || drop.Cause != "policy" {
		t.Fatalf("analytics entry = %+v", drop)
	}

	// Each download connection's FIN tore its flow down via conntrack.
	// The analytics flow was dropped — its FIN died with the rest of the
	// connection — so its drop verdict deliberately stays cached, keeping
	// repeat offenders cheap to block.
	if live, _ := reg.Value("bp_flowtable_live"); live != 1 {
		t.Fatalf("flows live = %v, want 1 (only the dropped analytics flow)", live)
	}
	if est, closed := conns(dep); est != 3 || closed != 3 {
		t.Fatalf("conntrack = est %v closed %v, want 3/3", est, closed)
	}
	// Per download connection: the SYN misses, request + FIN hit; ports
	// separate the connections so none shares an entry. Analytics: SYN
	// misses, request + FIN hit the cached drop. 4 misses, 8 hits.
	if hits, misses := flowCounts(dep); misses != 4 || hits != 8 {
		t.Fatalf("flow cache = hits %v misses %v, want 8/4", hits, misses)
	}

	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	entries := buf.String()
	if entries == "" {
		t.Fatal("audit writer received nothing")
	}
}

// TestKeepAliveFlowsStayCachedEndToEnd: a multi-request functionality
// rides one TCP connection — the SYN pays the pipeline once, the whole
// keep-alive train hits the cache, and the FIN (not any application-layer
// header) tears the flow down at the end of the connection.
func TestKeepAliveFlowsStayCachedEndToEnd(t *testing.T) {
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	funcs := demoFuncs()
	funcs[0].Op.Requests = 5 // keep-alive train on one socket
	app, err := dep.InstallApp(demoAPK(), funcs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("outcomes = %d, want 7 (SYN + 5 requests + FIN)", len(out))
	}
	if hits, misses := flowCounts(dep); misses != 1 || hits != 6 {
		t.Fatalf("flow cache = hits %v misses %v, want 6/1", hits, misses)
	}
	if live, _ := dep.Metrics().Value("bp_flowtable_live"); live != 0 {
		t.Fatalf("flows live = %v, want 0 (FIN tore the connection down)", live)
	}
	if est, closed := conns(dep); est != 1 || closed != 1 {
		t.Fatalf("conntrack = est %v closed %v, want 1/1", est, closed)
	}
	if rec, _ := dep.Metrics().Value("bp_audit_recorded_total"); rec != 7 {
		t.Fatalf("audit recorded = %v, want 7", rec)
	}
}

// flowCounts reads the packets answered without the pipeline (flow-table
// hits plus the batch drain's same-flow memo) and the flow-table misses.
func flowCounts(dep *Deployment) (hits, misses float64) {
	reg := dep.Metrics()
	hits, _ = reg.Value("bp_flowtable_hits_total")
	memo, _ := reg.Value("bp_enforcer_batch_memo_hits_total")
	misses, _ = reg.Value("bp_flowtable_misses_total")
	return hits + memo, misses
}

// conns reads the connections the gateway's conntrack saw open and close.
func conns(dep *Deployment) (established, closed float64) {
	established, _ = dep.Metrics().Value("bp_conntrack_transitions_total", metrics.L("kind", "established"))
	closed, _ = dep.Metrics().Value("bp_conntrack_transitions_total", metrics.L("kind", "closed"))
	return established, closed
}

// TestOutcomeStackIsTheCallersCopy: an Outcome's Stack is a copy. The
// enforcer's own slice is what its caches serve to the policy engine and
// the audit for every later flow carrying the tag, so a caller that edits
// its Outcome must not change the next verdict, stack or audit entry.
func TestOutcomeStackIsTheCallersCopy(t *testing.T) {
	dep, err := New(Config{Policy: PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	first, err := dep.Exercise(app, "analytics")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || first[0].Delivered || len(first[0].Stack) == 0 {
		t.Fatalf("first analytics outcome = %+v, want a gateway drop with a stack", first)
	}
	want := append([]Signature(nil), first[0].Stack...)
	wantAudit := dep.AuditTail()[0]
	// Launder the tracker frame into one the policy admits.
	for _, o := range first {
		for i := range o.Stack {
			o.Stack[i] = Signature{Package: "com/corp/files", Class: "SyncEngine", Name: "download", Proto: "()V"}
		}
	}
	again, err := dep.Exercise(app, "analytics")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range again {
		if o.Delivered || o.Reason != first[i].Reason {
			t.Fatalf("packet %d after the edit: %+v, want the same drop (%q)", i, o, first[i].Reason)
		}
		if !slices.Equal(o.Stack, want) {
			t.Fatalf("packet %d after the edit decoded to %v, want %v", i, o.Stack, want)
		}
	}
	tail := dep.AuditTail()
	got := tail[len(tail)-1]
	if got.Verdict != wantAudit.Verdict || got.Cause != wantAudit.Cause || got.Rule != wantAudit.Rule || !slices.Equal(got.Stack, wantAudit.Stack) {
		t.Fatalf("audit entry after the edit = %+v, want it to read like %+v", got, wantAudit)
	}
}

// TestOutcomeReasonTexts pins every reason text byte for byte as
// Outcome.Reason reports it: deny, allow, default and risk block under a
// static document, and the fail-open and fail-closed postures of a store
// whose backend is gone past its staleness deadline.
func TestOutcomeReasonTexts(t *testing.T) {
	dep, err := New(Config{Policy: PolicyConfig{Doc: `
{[deny][library]["com/flurry"]}
{[allow][method]["Lcom/corp/files/SyncEngine;->download()V"]}
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	dep.Context().Provision(dep.Device().Config().Addr, DeviceContext{Network: NetTrusted})
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	assertReasons(t, dep, app, "analytics", false, `deny rule {[deny][library]["com/flurry"]} matched`)
	assertReasons(t, dep, app, "download", true, `allow rule {[allow][method]["Lcom/corp/files/SyncEngine;->download()V"]} satisfied by all frames`)
	assertReasons(t, dep, app, "upload", true, "default allow")
	dep.Device().ReportNetwork(NetUnknown)
	assertReasons(t, dep, app, "download", false, "risk score 100 >= block threshold 100")

	for mode, want := range map[FailMode]string{FailOpen: "fail-open", FailClosed: "fail-closed"} {
		path := policyFile(t, `{[deny][library]["com/flurry"]}`)
		dep, err := New(Config{Policy: PolicyConfig{Source: FilePolicySource(path), MaxStale: time.Second, FailMode: mode}})
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		app, err := dep.InstallApp(demoAPK(), demoFuncs())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		dep.tb.Network.Clock.Advance(2 * time.Second)
		if _, err := dep.ReloadPolicy(); err == nil {
			t.Fatal("reload from a deleted policy file succeeded")
		}
		assertReasons(t, dep, app, "analytics", mode == FailOpen, want+": policy stale beyond 1s (backend file:"+path+")")
	}
}

// assertReasons exercises fn and checks that every packet has the fate and
// gives the reason.
func assertReasons(t *testing.T, dep *Deployment, app *App, fn string, delivered bool, reason string) {
	t.Helper()
	out, err := dep.Exercise(app, fn)
	if err != nil || len(out) == 0 {
		t.Fatalf("%s: %d packets, err %v", fn, len(out), err)
	}
	for i, o := range out {
		if o.Delivered != delivered || o.Reason != reason {
			t.Fatalf("%s packet %d: delivered %v, reason %q; want %v, %q", fn, i, o.Delivered, o.Reason, delivered, reason)
		}
	}
}
