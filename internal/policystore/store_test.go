package policystore

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// denies reports whether the engine drops a stack with one frame in
// package lib: how these tests read which library rules are in force.
func denies(eng *policy.Engine, lib string) bool {
	stack := []dex.Signature{{Package: lib, Class: "C", Name: "m", Proto: "()V"}}
	return eng.Evaluate(dex.TruncatedHash{}, stack).Verdict == policy.VerdictDrop
}

// override evaluates a stack no rule names and returns its verdict, and
// whether the engine's degraded override gave it.
func override(eng *policy.Engine) (policy.Verdict, bool) {
	r := metrics.NewRegistry()
	eng.RegisterMetrics(r)
	before, _ := r.Value("bp_policy_degraded_hits_total")
	v := eng.Evaluate(dex.TruncatedHash{}, nil).Verdict
	after, _ := r.Value("bp_policy_degraded_hits_total")
	return v, after > before
}

// count reads one of the store's series; labels narrow a family.
func count(st *Store, family string, labels ...metrics.Label) uint64 {
	r := metrics.NewRegistry()
	st.RegisterMetrics(r)
	v, _ := r.Value(family, labels...)
	return uint64(v)
}

// reloads reads bp_policy_reloads_total for one outcome; "" sums every
// cycle, since each ends in exactly one outcome.
func reloads(st *Store, outcome string) uint64 {
	if outcome == "" {
		return count(st, "bp_policy_reloads_total")
	}
	return count(st, "bp_policy_reloads_total", metrics.L("outcome", outcome))
}

func newEngine(t *testing.T) *policy.Engine {
	t.Helper()
	eng, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestStoreLoadApplies(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{Source: NewStaticSource(docA), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !denies(eng, "com/flurry") {
		t.Fatal("engine does not enforce the loaded rule")
	}
	if eng.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", eng.Generation())
	}
	applied, failed, ruleCount := reloads(st, "applied"), reloads(st, "failed"), count(st, "bp_policy_rules")
	if applied != 1 || failed != 0 || ruleCount != 1 || st.Version() == "" || st.cfg.Source.String() != "static" {
		t.Fatalf("applied/failed/rules = %d/%d/%d, version %q, source %s", applied, failed, ruleCount, st.Version(), st.cfg.Source)
	}

	// A second cycle is a no-op: unchanged, no generation bump.
	again, err := st.Reload()
	if err != nil || again {
		t.Fatalf("reload of unchanged source: applied=%v err=%v", again, err)
	}
	if eng.Generation() != 1 {
		t.Fatalf("unchanged reload bumped generation to %d", eng.Generation())
	}
	if unchanged, cycles := reloads(st, "unchanged"), reloads(st, ""); unchanged != 1 || cycles != 2 {
		t.Fatalf("unchanged/cycles = %d/%d, want 1/2", unchanged, cycles)
	}
}

func TestStoreInitialLoadFailure(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{Source: NewStaticSource("{[garbage"), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	err = st.Load()
	if err == nil {
		t.Fatal("Load of malformed document succeeded")
	}
	if !errors.Is(err, policy.ErrBadRule) {
		t.Fatalf("error %v does not wrap ErrBadRule", err)
	}
	if applied, failed := reloads(st, "applied"), reloads(st, "failed"); applied != 0 || failed != 1 || st.Version() != "" {
		t.Fatalf("applied/failed = %d/%d, version %q", applied, failed, st.Version())
	}
}

// TestStoreLastGoodSurvivesBadCandidate is the tentpole's core property: a
// malformed candidate leaves the last-good rules serving, with the failure
// counted and exposed, and a later good candidate recovers.
func TestStoreLastGoodSurvivesBadCandidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writeFile(t, path, docA)
	eng := newEngine(t)
	st, err := New(Config{Source: NewFileSource(path), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	goodVersion := st.Version()

	// Push a broken revision.
	bumpMtime(t, path)
	writeFile(t, path, `{[deny][library]["com/ok"]}`+"\n"+`{[deny][nope]["x"]}`)
	if _, err := st.Reload(); err == nil {
		t.Fatal("malformed candidate applied")
	}
	if n := count(st, "bp_policy_rules"); n != 1 || !denies(eng, "com/flurry") || denies(eng, "com/ok") {
		t.Fatalf("last-good rules lost: %d rules", n)
	}
	if eng.Generation() != 1 {
		t.Fatalf("rejected candidate bumped generation to %d", eng.Generation())
	}
	if failed := reloads(st, "failed"); failed != 1 || st.Version() != goodVersion || st.LastError() == "" {
		t.Fatalf("failed %d, version %q (want %q), last error %q", failed, st.Version(), goodVersion, st.LastError())
	}
	// The error is locatable (line number from the grammar).
	if want := "line 2"; !strings.Contains(st.LastError(), want) {
		t.Fatalf("LastError %q does not name %q", st.LastError(), want)
	}

	// Recovery: a good revision applies and clears the error.
	bumpMtime(t, path)
	writeFile(t, path, docB)
	applied, err := st.Reload()
	if err != nil || !applied {
		t.Fatalf("recovery reload: applied=%v err=%v", applied, err)
	}
	if !denies(eng, "com/google/gms") {
		t.Fatal("recovered rules not enforced")
	}
	if applied, rules := reloads(st, "applied"), count(st, "bp_policy_rules"); st.LastError() != "" || applied != 2 || rules != 2 {
		t.Fatalf("after recovery: last error %q, applied %d, rules %d", st.LastError(), applied, rules)
	}
	if eng.Generation() != 2 {
		t.Fatalf("generation = %d, want 2 (one bump per applied swap)", eng.Generation())
	}
}

// TestStorePollerHotReload drives the background poller end to end over a
// file source: an edit is picked up without any manual call, and Close
// stops the goroutine.
func TestStorePollerHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writeFile(t, path, docA)
	eng := newEngine(t)
	st, err := New(Config{
		Source: NewFileSource(path),
		Engine: eng,
		Poll:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	st.Start()
	defer st.Close()

	bumpMtime(t, path)
	writeFile(t, path, docB)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if denies(eng, "com/google/gms") {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := count(st, "bp_policy_rules"); n != 2 || !denies(eng, "com/google/gms") {
		t.Fatalf("poller never applied the edit: %d rules", n)
	}
	if n := reloads(st, "applied"); n != 2 {
		t.Fatalf("applied = %d, want 2", n)
	}
}

// failingSource fails every fetch; used to observe backoff behaviour.
type failingSource struct{ fetches chan time.Time }

func (f *failingSource) Fetch(prev string) (Candidate, bool, error) {
	select {
	case f.fetches <- time.Now():
	default:
	}
	return Candidate{}, false, fmt.Errorf("synthetic fetch failure")
}

func (f *failingSource) String() string { return "failing" }

// TestStorePollerBacksOffOnErrors: consecutive failures stretch the poll
// interval instead of hot-looping against a broken backend.
func TestStorePollerBacksOffOnErrors(t *testing.T) {
	src := &failingSource{fetches: make(chan time.Time, 64)}
	st, err := New(Config{
		Source: src,
		Engine: newEngine(t),
		Poll:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	time.Sleep(120 * time.Millisecond)
	st.Close()

	n := len(src.fetches)
	// 120ms at a flat 1ms cadence would be ~100+ fetches; exponential
	// backoff (1,2,4,8,...) keeps it far below that.
	if n == 0 || n > 30 {
		t.Fatalf("fetches in 120ms = %d, want backoff-limited (1..30)", n)
	}
	if n := reloads(st, "failed"); n == 0 || st.LastError() == "" {
		t.Fatalf("failed %d, last error %q", n, st.LastError())
	}
}

func TestStoreConfigValidation(t *testing.T) {
	if _, err := New(Config{Engine: newEngine(t)}); err == nil {
		t.Fatal("missing Source accepted")
	}
	if _, err := New(Config{Source: NewStaticSource("")}); err == nil {
		t.Fatal("missing Engine accepted")
	}
}

// TestStoreEmptyDocument: an empty document is a valid policy (no rules —
// the engine default decides), matching the facade's historical treatment
// of an empty Config.Policy.
func TestStoreEmptyDocument(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{Source: NewStaticSource(""), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatalf("Load of empty document: %v", err)
	}
	if denies(eng, "com/flurry") {
		t.Fatal("an empty document left a rule in force")
	}
	if applied, rules := reloads(st, "applied"), count(st, "bp_policy_rules"); applied != 1 || rules != 0 {
		t.Fatalf("applied/rules = %d/%d, want 1/0", applied, rules)
	}
}
