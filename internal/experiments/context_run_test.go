package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunContextSmoke runs the contextual-policy experiment at a reduced
// scale and asserts every invariant Check covers, plus the JSON export.
func TestRunContextSmoke(t *testing.T) {
	res, err := RunContext(ContextRunConfig{Devices: 16, HitIterations: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// 16 devices round-robin over 4 scenarios: 4 each.
	for _, s := range res.Scenarios {
		if s.Devices != 4 {
			t.Fatalf("scenario %s ran %d devices, want 4", s.Name, s.Devices)
		}
	}
	// Exactly the trusted devices minus the hot one were flipped.
	if res.FlippedDevices != 3 {
		t.Fatalf("flipped %d devices, want 3", res.FlippedDevices)
	}
	// 16 consecutive pool addresses share no stripe, so no flip may touch
	// another device's cached flow — and Check must object if one does.
	if len(res.Flips) != 3 || res.BystanderReevaluations != 0 {
		t.Fatalf("flips = %+v, bystander re-evaluations = %d, want 3 flips and 0", res.Flips, res.BystanderReevaluations)
	}
	over := *res
	over.Flips = append([]ContextFlipReport(nil), res.Flips...)
	over.Flips[1].BystanderReevaluations = over.Flips[1].StripeMates + 1
	if err := over.Check(); err == nil {
		t.Fatal("Check accepted a flip that re-evaluated more than its stripe")
	}
	// The time-window cohort: 4 cellular + 4 unknown flows across both edges
	// of the lockdown, one re-evaluation per flow per edge — and Check must
	// object to a stale allow, and to a flow scored more or less often.
	if res.TimeFlows != 8 || res.TimeEdgesCrossed != 2 || res.StaleTimeAllows != 0 || res.TimeReevaluations != 16 {
		t.Fatalf("time window: %d flows, %d edges, %d stale allows, %d re-evaluations",
			res.TimeFlows, res.TimeEdgesCrossed, res.StaleTimeAllows, res.TimeReevaluations)
	}
	for _, bad := range []func(*ContextBenchResult){
		func(r *ContextBenchResult) { r.StaleTimeAllows = 1 },
		func(r *ContextBenchResult) { r.TimeReevaluations++ },
		func(r *ContextBenchResult) { r.TimeReevaluations-- },
	} {
		broken := *res
		bad(&broken)
		if err := broken.Check(); err == nil {
			t.Fatalf("Check accepted a broken time window: %+v", broken)
		}
	}
	if res.Format() == "" {
		t.Fatal("empty Format")
	}

	path := filepath.Join(t.TempDir(), "BENCH_context.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ContextBenchResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.StaleAllows != 0 || back.FlippedDevices != res.FlippedDevices {
		t.Fatalf("JSON round trip: %+v", back)
	}
}
