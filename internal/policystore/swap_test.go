package policystore

import (
	"testing"
	"time"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/policy"
)

// reasonDoc has a rule for each verdict a reason explains, and a risk
// program that blocks an unknown network.
const reasonDoc = `{[deny][library]["com/flurry"]}
{[allow][hash]["aabbccdd00112233"]}
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`

// TestReasonTextsThroughEvaluate pins every reason text byte for byte as
// Engine.Evaluate gives it, on rules a store compiled: deny, allow,
// default, the degraded postures' texts the store writes, and a risk
// block (which only a flow context reaches, through Access and Decide).
func TestReasonTextsThroughEvaluate(t *testing.T) {
	allowed, err := dex.ParseTruncatedHash("aabbccdd00112233")
	if err != nil {
		t.Fatal(err)
	}
	flurry := []dex.Signature{{Package: "com/flurry/sdk", Class: "Agent", Name: "beacon", Proto: "()V"}}
	clean := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	for _, mode := range []FailMode{FailOpen, FailClosed} {
		st, eng, src, now := staleFixture(t, mode)
		src.mu.Lock()
		src.doc = reasonDoc
		src.mu.Unlock()
		if applied, err := st.Reload(); err != nil || !applied {
			t.Fatalf("%v: applied=%v err=%v", mode, applied, err)
		}
		for _, c := range []struct {
			hash  dex.TruncatedHash
			stack []dex.Signature
			want  string
		}{
			{dex.TruncatedHash{}, flurry, `deny rule {[deny][library]["com/flurry"]} matched`},
			{allowed, clean, `allow rule {[allow][hash]["aabbccdd00112233"]} satisfied by all frames`},
			{dex.TruncatedHash{}, clean, "default allow"},
		} {
			if got := eng.Evaluate(c.hash, c.stack).Reason(); got != c.want {
				t.Errorf("%v: reason %q, want %q", mode, got, c.want)
			}
		}
		a := eng.Access(dex.TruncatedHash{}, clean)
		if got, want := a.Decide(a.Risk(&policy.FlowContext{})).Reason(), "risk score 100 >= block threshold 100"; got != want {
			t.Errorf("%v: risk block reason %q, want %q", mode, got, want)
		}

		src.setDown(true)
		*now = 2 * time.Minute
		if _, err := st.Reload(); err == nil || !st.Degraded() {
			t.Fatalf("%v: the outage did not degrade the store (err %v)", mode, err)
		}
		want := map[FailMode]string{
			FailOpen:   "fail-open: policy stale beyond 1m0s (backend outage-test)",
			FailClosed: "fail-closed: policy stale beyond 1m0s (backend outage-test)",
		}[mode]
		if got := eng.Evaluate(dex.TruncatedHash{}, flurry).Reason(); got != want {
			t.Errorf("%v: degraded reason %q, want %q", mode, got, want)
		}
	}
}

// TestHubSwapAllocations holds one policy swap at the paper's validation
// scale — a hub revision of 1,050 rules, fetched, compiled in one pass and
// published — to a fixed allocation budget: the document is cut in place,
// so the count does not grow with the rules.
func TestHubSwapAllocations(t *testing.T) {
	docs := [2]string{policy1050(), policy1050() + "{[deny][library][\"com/extra\"]}\n"}
	hub := NewHub(docs[0])
	st, err := New(Config{Source: hub.Source(), Engine: newEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		hub.Set(docs[i%2])
		if applied, err := st.Reload(); err != nil || !applied {
			t.Fatalf("applied=%v err=%v", applied, err)
		}
	})
	t.Logf("%.0f allocations per swap", allocs)
	if allocs > 1100 {
		t.Fatalf("a 1,050-rule hub swap allocates %.0f times, want at most 1,100", allocs)
	}
}

// TestHubSplitsOncePerRevision: every shard of a revision is rendered from
// the one split the hub made of it, and SetGroups refuses a document that
// does not split without revisioning the hub.
func TestHubSplitsOncePerRevision(t *testing.T) {
	h := NewHub(fleetDocV1)
	alpha, beta := h.Shard("alpha"), h.Shard("beta")
	if _, _, err := alpha.Fetch(""); err != nil {
		t.Fatal(err)
	}
	split := h.split
	if _, _, err := beta.Fetch(""); err != nil || split == nil || h.split != split {
		t.Fatalf("the second shard split the revision again (err %v)", err)
	}
	if _, err := h.ShardVersion("alpha"); err != nil || h.split != split {
		t.Fatalf("ShardVersion split the revision again (err %v)", err)
	}

	before, _ := h.ShardVersion("alpha")
	if _, err := h.SetGroups("//@groups typo\n" + fleetDocV1); err == nil || h.Rev() != 1 {
		t.Fatalf("SetGroups took a document that does not split: err %v, rev %d", err, h.Rev())
	}
	if _, err := h.SetGroups(fleetDocV1 + "//@group beta\n{[deny][library][\"com/tracker/beta2\"]}\n"); err != nil || h.Rev() != 2 {
		t.Fatalf("SetGroups: err %v, rev %d", err, h.Rev())
	}
	split = h.split
	if after, err := h.ShardVersion("alpha"); err != nil || after != before || h.split != split {
		t.Fatalf("a beta-only revision changed alpha's shard %q → %q (err %v), or was split again", before, after, err)
	}
	if after, _ := h.ShardVersion("beta"); after == before {
		t.Fatal("beta's shard did not change")
	}
}
