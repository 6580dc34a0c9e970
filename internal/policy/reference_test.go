package policy_test

import (
	"math/rand"
	"testing"

	"borderpatrol/internal/policy"
	"borderpatrol/internal/refmodel"
)

// The compiled engine against the reference model's Evaluate, the engine's
// original linear scan.

// TestCompiledMatchesReference is the equivalence proof: over a generated
// corpus of rule sets and packet contexts, the compiled engine must return
// the identical verdict, decisive rule index, and reason as the naive
// linear scan — including its first-decisive-rule-wins ordering.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for trial := 0; trial < 300; trial++ {
		nRules := rng.Intn(40)
		rules := make([]policy.Rule, nRules)
		for i := range rules {
			rules[i] = policy.RandRule(rng)
			if err := rules[i].Validate(); err != nil {
				t.Fatalf("trial %d: generated invalid rule %s: %v", trial, rules[i], err)
			}
		}
		def := policy.VerdictAllow
		if trial%2 == 1 {
			def = policy.VerdictDrop
		}
		eng, err := policy.NewEngine(rules, def)
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		for probe := 0; probe < 60; probe++ {
			appHash := policy.RandHash(rng)
			stack := policy.RandStack(rng)

			wantIdx, want := refmodel.Evaluate(rules, def, appHash, stack)
			gotIdx := policy.DecisiveIndex(eng, appHash, stack)
			if gotIdx != wantIdx {
				t.Fatalf("trial %d probe %d: decisive index = %d, want %d\nrules: %v\nhash: %s stack: %v",
					trial, probe, gotIdx, wantIdx, rules, appHash, stack)
			}
			got := eng.Evaluate(appHash, stack)
			if got.Verdict != want.Verdict || got.Reason() != want.Reason {
				t.Fatalf("trial %d probe %d: decision = %+v, want %+v", trial, probe, got, want)
			}
			if (got.Rule == nil) != (want.Rule == nil) {
				t.Fatalf("trial %d probe %d: rule presence = %v, want %v", trial, probe, got.Rule, want.Rule)
			}
			if got.Rule != nil && *got.Rule != rules[wantIdx] {
				t.Fatalf("trial %d probe %d: decisive rule = %s, want %s", trial, probe, got.Rule, rules[wantIdx])
			}
		}
	}
}

// TestParsedCompiledMatchesReference closes the loop the policy store
// relies on: a rule set that survives a format→parse cycle compiles into
// an engine whose verdicts agree with the naive reference matcher over the
// original (pre-serialization) rules. This extends
// TestCompiledMatchesReference across the grammar layer — a serializer or
// parser bug that altered any rule would surface as a verdict divergence.
func TestParsedCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7331))
	for trial := 0; trial < 150; trial++ {
		nRules := rng.Intn(25)
		rules := make([]policy.Rule, nRules)
		for i := range rules {
			rules[i] = policy.RandRule(rng)
		}
		parsed, err := policy.ParsePolicyString(policy.FormatPolicy(rules))
		if err != nil {
			t.Fatalf("trial %d: round trip failed: %v", trial, err)
		}
		def := policy.VerdictAllow
		if trial%2 == 1 {
			def = policy.VerdictDrop
		}
		eng, err := policy.NewEngine(parsed, def)
		if err != nil {
			t.Fatalf("trial %d: NewEngine over reparsed rules: %v", trial, err)
		}
		for probe := 0; probe < 40; probe++ {
			appHash := policy.RandHash(rng)
			stack := policy.RandStack(rng)
			wantIdx, want := refmodel.Evaluate(rules, def, appHash, stack)
			got := eng.Evaluate(appHash, stack)
			if got.Verdict != want.Verdict || got.Reason() != want.Reason {
				t.Fatalf("trial %d probe %d: decision %+v, want %+v (decisive %d)\nrules: %v",
					trial, probe, got, want, wantIdx, rules)
			}
		}
	}
}
