package policy

import (
	"testing"

	"borderpatrol/internal/dex"
)

// TestDegradedOverride: a fail-closed override answers every evaluation
// with the forced verdict regardless of the rules; clearing it restores
// rule evaluation. Each transition bumps the generation so cached
// verdicts invalidate.
func TestDegradedOverride(t *testing.T) {
	eng, err := NewEngine([]Rule{
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
	}, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	cleanStack := []dex.Signature{{Package: "com/corp/app", Class: "Main", Name: "sync"}}
	if d := eng.Evaluate(dex.TruncatedHash{}, cleanStack); d.Verdict != VerdictAllow {
		t.Fatalf("pre-degradation verdict = %v", d.Verdict)
	}

	gen := eng.Generation()
	if err := eng.SetDegraded(VerdictDrop, "policy stale"); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", eng.Generation(), gen+1)
	}
	d := eng.Evaluate(dex.TruncatedHash{}, cleanStack)
	if d.Verdict != VerdictDrop || d.Reason() != "policy stale" {
		t.Fatalf("degraded verdict = %+v", d)
	}
	if dd := eng.degraded.Load(); dd == nil || dd.Verdict != VerdictDrop {
		t.Fatalf("degraded override = %+v", dd)
	}

	// Idempotent per (verdict, reason): no extra generation burn.
	if err := eng.SetDegraded(VerdictDrop, "policy stale"); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != gen+1 {
		t.Fatalf("idempotent re-assert bumped generation to %d", eng.Generation())
	}
	// A different reason is a new degraded state.
	if err := eng.SetDegraded(VerdictAllow, "operator override"); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != gen+2 {
		t.Fatalf("changed override did not bump generation: %d", eng.Generation())
	}

	eng.ClearDegraded()
	if eng.degraded.Load() != nil {
		t.Fatal("ClearDegraded left the override")
	}
	if eng.Generation() != gen+3 {
		t.Fatalf("clear did not bump generation: %d", eng.Generation())
	}
	eng.ClearDegraded() // no-op: not degraded
	if eng.Generation() != gen+3 {
		t.Fatal("redundant clear bumped generation")
	}
	if d := eng.Evaluate(dex.TruncatedHash{}, cleanStack); d.Verdict != VerdictAllow {
		t.Fatalf("post-clear verdict = %v", d.Verdict)
	}
	if n := count(eng, "bp_policy_degraded_hits_total"); n != 1 {
		t.Fatalf("degraded hits = %d, want 1", n)
	}
}

// TestDegradedRejectsInvalidVerdict: only Allow and Drop are valid
// degraded postures.
func TestDegradedRejectsInvalidVerdict(t *testing.T) {
	eng, err := NewEngine(nil, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetDegraded(Verdict(99), "bogus"); err == nil {
		t.Fatal("invalid verdict accepted")
	}
	if eng.degraded.Load() != nil {
		t.Fatal("failed SetDegraded left an override")
	}
}
