package borderpatrol

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
)

// TestDeploymentChaosControls pins the facade's chaos and backend controls:
// an HTTPPolicySource hot-swaps over conditional fetches, SetFaults and
// ClearFaults put faults on the wire and take them off, RestartGateway
// drops per-flow state without changing a verdict, and SweepIdle reclaims
// flows idle past the TTL.
func TestDeploymentChaosControls(t *testing.T) {
	var mu sync.Mutex
	doc, version := `{[deny][library]["com/flurry"]}`, 1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		etag := fmt.Sprintf(`"v%d"`, version)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", etag)
		fmt.Fprintln(w, doc)
	}))
	defer srv.Close()

	dep, err := New(Config{Policy: PolicyConfig{Source: HTTPPolicySource(srv.URL)}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	count := func(family string, labels ...metrics.Label) float64 {
		v, _ := dep.Metrics().Value(family, labels...)
		return v
	}
	assertOutcome(t, dep, app, "analytics", false)
	assertOutcome(t, dep, app, "upload", true)

	// The endpoint answers an unchanged policy with 304; a new document
	// under a new ETag applies.
	if applied, err := dep.ReloadPolicy(); err != nil || applied {
		t.Fatalf("unchanged endpoint: applied=%v err=%v", applied, err)
	}
	mu.Lock()
	doc, version = doc+"\n{[deny][method][\"Lcom/corp/files/SyncEngine;->upload()V\"]}", 2
	mu.Unlock()
	if applied, err := dep.ReloadPolicy(); err != nil || !applied {
		t.Fatalf("changed endpoint: applied=%v err=%v", applied, err)
	}
	assertOutcome(t, dep, app, "upload", false)
	assertOutcome(t, dep, app, "download", true)

	// A wire that loses every packet, then the perfect wire again.
	dep.SetFaults(FaultPlan{Seed: 1, Drop: 1})
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Delivered || o.DropStage != "wire-fault" {
			t.Fatalf("packet %d under a total-loss plan: %+v", i, o)
		}
	}
	if drops := count("bp_netsim_faults_total", metrics.L("stage", "drop")); drops != float64(len(out)) {
		t.Fatalf("%v drops counted for %d packets", drops, len(out))
	}
	dep.ClearFaults()
	assertOutcome(t, dep, app, "download", true)

	// A restart wipes the flow cache and conntrack; re-resolved verdicts
	// are the same.
	dep.RestartGateway()
	if n := count("bp_gateway_restarts_total"); n != 1 {
		t.Fatalf("bp_gateway_restarts_total = %v after one restart", n)
	}
	if live := count("bp_flowtable_live"); live != 0 {
		t.Fatalf("%v flows survived the restart", live)
	}
	assertOutcome(t, dep, app, "analytics", false)
	assertOutcome(t, dep, app, "download", true)

	// The dropped analytics flow stays cached. A delay fault moves virtual
	// time two minutes per packet, past the flow TTL, and the sweep takes
	// the idle flow; a second sweep finds nothing.
	if live := count("bp_flowtable_live"); live == 0 {
		t.Fatal("no cached flow to sweep")
	}
	dep.SetFaults(FaultPlan{Seed: 1, Delay: 1, DelayMin: 2 * time.Minute})
	assertOutcome(t, dep, app, "upload", false)
	dep.ClearFaults()
	if _, flows := dep.SweepIdle(time.Minute); flows == 0 {
		t.Fatal("SweepIdle reclaimed no flow idle past the TTL")
	}
	if conns, flows := dep.SweepIdle(time.Minute); conns != 0 || flows != 0 {
		t.Fatalf("second sweep reclaimed %d conns, %d flows", conns, flows)
	}
}
