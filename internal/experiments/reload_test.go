package experiments

import "testing"

// TestRunReloadUnderLoad is the acceptance gate for the policy store: rule
// swaps during saturating ProcessBatch traffic never produce a verdict
// inconsistent with both the old and new rule sets, malformed candidates
// are rejected with the last-good rules serving, and the flow-cache
// generation advances exactly once per applied swap.
func TestRunReloadUnderLoad(t *testing.T) {
	cfg := DefaultReloadConfig()
	if testing.Short() {
		cfg.Swaps = 40
	}
	res, err := RunReloadUnderLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)

	if res.TornVerdicts != 0 {
		t.Fatalf("torn verdicts: %d (out of %d processed)", res.TornVerdicts, res.Processed)
	}
	if res.DivergentPool == 0 {
		t.Fatal("rule sets A and B agree on every pool packet; the experiment proves nothing")
	}
	if res.Swaps == 0 {
		t.Fatalf("no swaps applied: %s", res)
	}
	if res.GenerationDelta != res.Swaps {
		t.Fatalf("generation moved %d for %d swaps (must be exactly one bump per swap)",
			res.GenerationDelta, res.Swaps)
	}
	if res.RejectedSwaps == 0 {
		t.Fatalf("no malformed candidate was injected/rejected: %s", res)
	}
	if res.Version == "" || res.Rules == 0 {
		t.Fatalf("store lost its last-good state: %s", res)
	}
	// Traffic must have observed both sides of swaps (otherwise the run
	// did not actually race reloads against enforcement).
	if res.VerdictsOld == 0 || res.VerdictsNew == 0 {
		t.Fatalf("divergent verdict split %d/%d: traffic never raced a swap",
			res.VerdictsOld, res.VerdictsNew)
	}
	if res.Processed == 0 {
		t.Fatal("no packets processed during churn")
	}
	// Every swap invalidates cached verdicts; the cache must have observed
	// stale entries (generation mismatches) during the churn.
	if res.FlowStaleDrops == 0 {
		t.Fatalf("flow cache never invalidated on swap: %s", res)
	}
}
