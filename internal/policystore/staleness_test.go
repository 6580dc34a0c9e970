package policystore

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/policy"
)

// outageSource wraps a static document behind a switchable outage: while
// down, Fetch fails like an unreachable backend.
type outageSource struct {
	mu   sync.Mutex
	doc  string
	down bool
}

func (o *outageSource) Fetch(prev string) (Candidate, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.down {
		return Candidate{}, false, errors.New("backend unreachable")
	}
	return NewStaticSource(o.doc).Fetch(prev)
}

func (o *outageSource) String() string { return "outage-test" }

func (o *outageSource) setDown(down bool) {
	o.mu.Lock()
	o.down = down
	o.mu.Unlock()
}

// staleFixture builds a store on a manual virtual clock with a 1-minute
// staleness deadline, or none under FailStatic.
func staleFixture(t *testing.T, mode FailMode) (*Store, *policy.Engine, *outageSource, *time.Duration) {
	t.Helper()
	eng := newEngine(t)
	src := &outageSource{doc: docA}
	now := new(time.Duration)
	cfg := Config{Source: src, Engine: eng, FailMode: mode, Now: func() time.Duration { return *now }}
	if mode != FailStatic {
		cfg.MaxStale = time.Minute // a FailStatic store has no deadline
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	return st, eng, src, now
}

// TestStalenessFailClosed: past the deadline with the backend down, the
// engine degrades to deny-everything; a healthy reload recovers it.
func TestStalenessFailClosed(t *testing.T) {
	st, eng, src, now := staleFixture(t, FailClosed)

	// Fresh: healthy.
	if st.Degraded() {
		t.Fatal("degraded immediately after load")
	}

	src.setDown(true)
	*now = 30 * time.Second
	if _, err := st.Reload(); err == nil {
		t.Fatal("reload during outage succeeded")
	}
	if st.Degraded() {
		t.Fatal("degraded before the deadline")
	}

	*now = 2 * time.Minute
	if _, err := st.Reload(); err == nil {
		t.Fatal("reload during outage succeeded")
	}
	if !st.Degraded() {
		t.Fatal("not degraded past the deadline")
	}
	if v, ok := override(eng); !ok || v != policy.VerdictDrop {
		t.Fatalf("engine override = %v, %v (want fail-closed drop)", v, ok)
	}
	if n := count(st, "bp_policy_degraded_enters_total"); !st.Degraded() || n != 1 || st.cfg.FailMode.String() != "fail-closed" {
		t.Fatalf("degraded %v, %d enters, mode %s", st.Degraded(), n, st.cfg.FailMode)
	}
	if g := count(st, "bp_policy_degraded"); g != 1 {
		t.Fatalf("bp_policy_degraded = %d while degraded", g)
	}

	// Recovery: the backend returns; the unchanged document is enough.
	src.setDown(false)
	if _, err := st.Reload(); err != nil {
		t.Fatalf("recovery reload: %v", err)
	}
	if st.Degraded() {
		t.Fatal("still degraded after recovery")
	}
	if _, ok := override(eng); ok {
		t.Fatal("engine override survived recovery")
	}
	if n := count(st, "bp_policy_degraded_enters_total"); n != 1 {
		t.Fatalf("degraded enters = %d after recovery", n)
	}
}

// TestStalenessFailOpen: same transition, but the degraded posture admits
// everything.
func TestStalenessFailOpen(t *testing.T) {
	st, eng, src, now := staleFixture(t, FailOpen)
	src.setDown(true)
	*now = 2 * time.Minute
	st.Reload()
	if !st.Degraded() {
		t.Fatal("not degraded past the deadline")
	}
	if v, ok := override(eng); !ok || v != policy.VerdictAllow {
		t.Fatalf("engine override = %v, %v (want fail-open allow)", v, ok)
	}
}

// TestNewRejectsInertPosture: a deadline needs a posture other than
// FailStatic to degrade to, and a degraded posture needs a deadline to
// degrade at. Each would otherwise be accepted and do nothing.
func TestNewRejectsInertPosture(t *testing.T) {
	for name, cfg := range map[string]Config{
		"deadline with static":      {MaxStale: time.Second},
		"negative deadline":         {MaxStale: -time.Second},
		"open without deadline":     {FailMode: FailOpen},
		"closed without deadline":   {FailMode: FailClosed},
		"closed, negative deadline": {FailMode: FailClosed, MaxStale: -time.Second},
	} {
		cfg.Source, cfg.Engine = NewStaticSource(docA), newEngine(t)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "staleness deadline") {
			t.Errorf("%s: New returned %v, want a staleness-deadline refusal", name, err)
		}
	}
}

// TestStalenessFailStatic: a store without a deadline never degrades —
// the last-good rules serve forever.
func TestStalenessFailStatic(t *testing.T) {
	st, eng, src, now := staleFixture(t, FailStatic)
	src.setDown(true)
	*now = 24 * time.Hour
	st.Reload()
	if st.Degraded() || st.CheckStale() {
		t.Fatal("fail-static store degraded")
	}
	if _, ok := override(eng); ok {
		t.Fatal("fail-static store set an engine override")
	}
}

// TestLastGoodAge tracks the virtual clock and resets on healthy cycles.
func TestLastGoodAge(t *testing.T) {
	st, _, src, now := staleFixture(t, FailClosed)
	if got := st.LastGoodAge(); got != 0 {
		t.Fatalf("age after load = %v", got)
	}
	*now = 45 * time.Second
	if got := st.LastGoodAge(); got != 45*time.Second {
		t.Fatalf("age = %v, want 45s", got)
	}
	if got := count(st, "bp_policy_staleness_age_seconds"); got != 45 {
		t.Fatalf("bp_policy_staleness_age_seconds = %d, want 45", got)
	}
	if _, err := st.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := st.LastGoodAge(); got != 0 {
		t.Fatalf("age after healthy reload = %v, want 0", got)
	}
	// A failed cycle does not refresh the age.
	src.setDown(true)
	*now = 50 * time.Second
	st.Reload()
	if got := st.LastGoodAge(); got != 5*time.Second {
		t.Fatalf("age after failed reload = %v, want 5s", got)
	}
}

// TestParseFailMode covers the flag-facing parser.
func TestParseFailMode(t *testing.T) {
	cases := map[string]FailMode{
		"":            FailStatic,
		"static":      FailStatic,
		"open":        FailOpen,
		"fail-open":   FailOpen,
		"closed":      FailClosed,
		"fail-closed": FailClosed,
	}
	for in, want := range cases {
		got, err := ParseFailMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFailMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFailMode("explode"); err == nil {
		t.Error("ParseFailMode accepted garbage")
	}
}

// TestJitterBounds: poll jitter stays within ±20% of the interval, so the
// backoff never collapses to zero or doubles the configured cadence.
func TestJitterBounds(t *testing.T) {
	const d = time.Second
	for i := 0; i < 1000; i++ {
		j := jitter(d)
		if j < 4*d/5 || j > 6*d/5 {
			t.Fatalf("jitter(%v) = %v outside [0.8d, 1.2d]", d, j)
		}
	}
	if jitter(0) != 0 || jitter(-time.Second) != -time.Second {
		t.Fatal("non-positive intervals must pass through")
	}
}
