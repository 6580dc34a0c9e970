package policystore

import (
	"strings"
	"testing"

	"borderpatrol/internal/policy"
)

const fleetDocV1 = `
{[deny][library]["com/global/threat"]}
//@group alpha
{[deny][library]["com/tracker/alpha"]}
//@group beta
{[deny][library]["com/tracker/beta"]}
`

// assertNoForeignRules fails if the engine enforces a rule of another
// group's shard: it drops a frame in that group's tracker package (whose
// /v2 revision matches both the rule and its revision).
func assertNoForeignRules(t *testing.T, eng *policy.Engine, foreign string) {
	t.Helper()
	if lib := "com/tracker/" + foreign + "/v2"; denies(eng, lib) {
		t.Fatalf("engine enforces group %s's rule: it drops %s", foreign, lib)
	}
}

func TestHubShardScopes(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{
		Source: NewHub(fleetDocV1).Shard("alpha"),
		Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if n := count(st, "bp_policy_rules"); n != 2 || !denies(eng, "com/tracker/alpha") {
		t.Fatalf("alpha shard compiled %d rules, want 2 (global + alpha)", n)
	}
	assertNoForeignRules(t, eng, "beta")
	if s := st.cfg.Source.String(); !strings.Contains(s, "[groups:alpha]") {
		t.Fatalf("source description = %q", s)
	}
	if v := st.Version(); !strings.HasPrefix(v, "group:") {
		t.Fatalf("scoped version = %q", v)
	}
}

// TestHubShardNoLeakAfterHotSwap: across a sequence of hot swaps —
// including swaps that only touch another group — the scoped store must
// never compile another group's rules, and must not even recompile (bump
// the engine generation) for revisions outside its shard.
func TestHubShardNoLeakAfterHotSwap(t *testing.T) {
	h := NewHub(fleetDocV1)
	eng := newEngine(t)
	st, err := New(Config{
		Source: h.Shard("alpha"),
		Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()

	// Swap 1: revise beta's shard only. The hub revisions, but alpha's
	// scoped render is byte-identical — unchanged, no recompile.
	h.Set(strings.Replace(fleetDocV1, "com/tracker/beta", "com/tracker/beta/v2", 1))
	applied, err := st.Reload()
	if err != nil || applied {
		t.Fatalf("beta-only swap: applied=%v err=%v", applied, err)
	}
	if eng.Generation() != gen {
		t.Fatalf("beta-only swap bumped generation %d → %d", gen, eng.Generation())
	}
	if n := reloads(st, "unchanged"); n != 1 {
		t.Fatalf("unchanged cycles after beta-only swap = %d, want 1", n)
	}
	assertNoForeignRules(t, eng, "beta")

	// Swap 2: revise alpha's shard. Applied, exactly one generation bump,
	// new rule visible, still nothing foreign.
	doc2 := strings.Replace(fleetDocV1, "com/tracker/alpha", "com/tracker/alpha/v2", 1)
	h.Set(doc2)
	applied, err = st.Reload()
	if err != nil || !applied {
		t.Fatalf("alpha swap: applied=%v err=%v", applied, err)
	}
	if eng.Generation() != gen+1 {
		t.Fatalf("alpha swap: generation = %d, want %d", eng.Generation(), gen+1)
	}
	if !denies(eng, "com/tracker/alpha/v2") || denies(eng, "com/tracker/alpha") {
		t.Fatal("revised alpha rule not compiled")
	}
	assertNoForeignRules(t, eng, "beta")

	// Swap 3: revise the global section — part of every shard, applied.
	h.Set(strings.Replace(doc2, "com/global/threat", "com/global/threat/v2", 1))
	applied, err = st.Reload()
	if err != nil || !applied {
		t.Fatalf("global swap: applied=%v err=%v", applied, err)
	}
	assertNoForeignRules(t, eng, "beta")

	// Swap 4: a new group appears; still not alpha's problem.
	h.Set(fleetDocV1 + "//@group gamma\n{[deny][library][\"com/tracker/gamma\"]}\n")
	if _, err := st.Reload(); err != nil {
		t.Fatal(err)
	}
	assertNoForeignRules(t, eng, "beta")
	assertNoForeignRules(t, eng, "gamma")
}

func TestHubShardRejectsBadGroupedDoc(t *testing.T) {
	h := NewHub(fleetDocV1)
	eng := newEngine(t)
	st, err := New(Config{
		Source: h.Shard("alpha"),
		Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()
	// A typo'd directive must be rejected — it would otherwise silently
	// widen or narrow a shard — and last-good keeps serving.
	h.Set("//@groups oops\n" + fleetDocV1)
	if _, err := st.Reload(); err == nil {
		t.Fatal("malformed grouped document accepted")
	}
	if eng.Generation() != gen {
		t.Fatal("rejected document changed the engine")
	}
	if n := reloads(st, "failed"); n != 1 {
		t.Fatalf("failed cycles = %d, want 1", n)
	}
}

func TestHubShardMultipleGroups(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{
		Source: NewHub(fleetDocV1).Shard("alpha", "beta"),
		Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if n := count(st, "bp_policy_rules"); n != 3 {
		t.Fatalf("alpha+beta shard = %d rules, want 3", n)
	}
}

// TestHubShardWithoutGroups: a shard with no groups serves the global
// rules alone, while the hub's own source serves the whole document.
func TestHubShardWithoutGroups(t *testing.T) {
	h := NewHub(fleetDocV1)
	for _, c := range []struct {
		src   *HubSource
		rules uint64
	}{{h.Shard(), 1}, {h.Source(), 3}} {
		st, err := New(Config{Source: c.src, Engine: newEngine(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Load(); err != nil {
			t.Fatal(err)
		}
		if n := count(st, "bp_policy_rules"); n != c.rules {
			t.Errorf("%s compiled %d rules, want %d", c.src, n, c.rules)
		}
	}
}
