package policystore

import (
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/policy"
)

// eventually spins on cond with a deadline, so tests wait on counters
// instead of fixed sleeps.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHubSetRevisionsAndNoOp(t *testing.T) {
	h := NewHub(docA)
	doc, v1 := h.Get()
	if doc != docA || h.Rev() != 1 || !strings.HasPrefix(v1, "rev1-") {
		t.Fatalf("initial state: doc=%q rev=%d v=%q", doc, h.Rev(), v1)
	}
	if v := h.Set(docA); v != v1 || h.Rev() != 1 {
		t.Fatalf("identical Set revisioned: v=%q rev=%d", v, h.Rev())
	}
	v2 := h.Set(docB)
	if v2 == v1 || h.Rev() != 2 {
		t.Fatalf("Set did not revision: v=%q rev=%d", v2, h.Rev())
	}
}

func TestHubSourceWatchWakesOnSet(t *testing.T) {
	h := NewHub(docA)
	src := h.Source()
	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged || c.Doc != docA {
		t.Fatalf("initial fetch: %+v %v %v", c, unchanged, err)
	}
	type res struct {
		c         Candidate
		unchanged bool
		err       error
	}
	got := make(chan res, 1)
	go func() {
		c, u, err := src.Watch(c.Version, time.Minute, nil)
		got <- res{c, u, err}
	}()
	h.Set(docB)
	r := <-got
	if r.err != nil || r.unchanged || r.c.Doc != docB {
		t.Fatalf("watch after Set: %+v", r)
	}
	// An idle watch times out as a healthy unchanged round.
	if _, unchanged, err := src.Watch(r.c.Version, 10*time.Millisecond, nil); err != nil || !unchanged {
		t.Fatalf("idle watch: unchanged=%v err=%v", unchanged, err)
	}
	// A canceled watch returns unchanged promptly.
	cancel := make(chan struct{})
	close(cancel)
	start := time.Now()
	if _, unchanged, err := src.Watch(r.c.Version, time.Minute, cancel); err != nil || !unchanged {
		t.Fatalf("canceled watch: unchanged=%v err=%v", unchanged, err)
	} else if time.Since(start) > 5*time.Second {
		t.Fatal("canceled watch did not return promptly")
	}
}

func TestHTTPSourceWatchLongPoll(t *testing.T) {
	h := NewHub(docA)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	src := NewHTTPSource(srv.URL, nil)

	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged || c.Doc != docA {
		t.Fatalf("initial fetch: %+v %v %v", c, unchanged, err)
	}
	// Idle long-poll expires into an unchanged 304.
	if _, unchanged, err := src.Watch(c.Version, 50*time.Millisecond, nil); err != nil || !unchanged {
		t.Fatalf("idle watch: unchanged=%v err=%v", unchanged, err)
	}
	// A Set during (or just before) the hold is delivered.
	type res struct {
		c         Candidate
		unchanged bool
		err       error
	}
	got := make(chan res, 1)
	go func() {
		c, u, err := src.Watch(c.Version, 30*time.Second, nil)
		got <- res{c, u, err}
	}()
	h.Set(docB)
	r := <-got
	if r.err != nil || r.unchanged || r.c.Doc != docB {
		t.Fatalf("watch after Set: %+v", r)
	}
}

// TestStoreWatchPropagatesInOneRound is the push property the fleet
// relies on: one hub Set reaches every watching store in exactly one
// additional reload cycle — no polling rounds, no sleeps; asserted via
// poll/apply/generation counters.
func TestStoreWatchPropagatesInOneRound(t *testing.T) {
	const grouped = `
{[deny][library]["com/global"]}
//@group a
{[deny][library]["com/a/one"]}
//@group b
{[deny][library]["com/b/one"]}
`
	h := NewHub(grouped)
	stores := make([]*Store, 2)
	engines := make([]*policy.Engine, 2)
	gens := make([]uint64, 2)
	for i, grp := range []string{"a", "b"} {
		eng := newEngine(t)
		st, err := New(Config{
			Source:       NewGroupScopedSource(h.Source(), grp),
			Engine:       eng,
			Poll:         time.Hour, // any progress must come from watch
			WatchTimeout: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		if err := st.Load(); err != nil {
			t.Fatal(err)
		}
		st.Start()
		stores[i], engines[i], gens[i] = st, eng, eng.Generation()
	}
	// Both stores are parked on the watch. One Set touching every shard
	// must wake both.
	h.Set(strings.Replace(grouped, "com/global", "com/global/v2", 1))
	for i, st := range stores {
		rounds := func() uint64 { return count(st, "bp_policy_watch_rounds_total") }
		eventually(t, "store apply", func() bool {
			return reloads(st, "applied") == 2 && rounds() == 1
		})
		// Exactly one completed watch round carried the change; no cycle
		// ever came back empty-handed.
		if n, unchanged, failed := rounds(), reloads(st, "unchanged"), reloads(st, "failed"); n != 1 || unchanged != 0 || failed != 0 {
			t.Errorf("store %d: change took more than one watch round: rounds/unchanged/failed = %d/%d/%d", i, n, unchanged, failed)
		}
		if n := count(st, "bp_policy_watch_fallbacks_total"); n != 0 {
			t.Errorf("store %d: %d watch fallbacks", i, n)
		}
		if got := engines[i].Generation(); got != gens[i]+1 {
			t.Errorf("store %d: generation = %d, want exactly %d+1", i, got, gens[i])
		}
	}
}

// brokenWatchSource serves a document fine over Fetch but errors every
// Watch, modelling a proxy or LB that kills long-polls.
type brokenWatchSource struct {
	mu  sync.Mutex
	doc string
}

func (b *brokenWatchSource) Fetch(prev string) (Candidate, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := contentVersion([]byte(b.doc))
	if prev == v {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: b.doc, Version: v}, false, nil
}

func (b *brokenWatchSource) Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error) {
	return Candidate{}, false, errors.New("long-poll connection reset")
}

func (b *brokenWatchSource) String() string { return "broken-watch" }

// TestWatchDisconnectFallsBackToPollingWithoutStaleness: when the watch
// path is dead but plain fetches work, the store must keep itself fresh
// through the poll fallback — the staleness deadline never trips and the
// engine never degrades.
func TestWatchDisconnectFallsBackToPollingWithoutStaleness(t *testing.T) {
	eng := newEngine(t)
	src := &brokenWatchSource{doc: docA}
	now := new(time.Duration)
	var mu sync.Mutex // guards *now against the poller's CheckStale reads
	st, err := New(Config{
		Source:       src,
		Engine:       eng,
		Poll:         time.Millisecond,
		WatchTimeout: time.Millisecond,
		MaxStale:     time.Minute,
		FailMode:     FailClosed,
		Now: func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			return *now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	st.Start()
	// Walk virtual time well past MaxStale in sub-deadline steps, letting
	// at least one fallback poll land in each step. Every successful poll
	// re-arms the deadline, so the store must never degrade.
	for step := 0; step < 10; step++ {
		polls := reloads(st, "")
		eventually(t, "fallback poll", func() bool { return reloads(st, "") >= polls+2 })
		mu.Lock()
		*now += 30 * time.Second
		mu.Unlock()
	}
	if count(st, "bp_policy_watch_fallbacks_total") == 0 {
		t.Fatal("watch never fell back to polling")
	}
	if n := count(st, "bp_policy_degraded_enters_total"); st.Degraded() || n != 0 {
		t.Fatalf("staleness tripped during watch fallback: degraded %v, %d enters", st.Degraded(), n)
	}
	if _, degraded := eng.Degraded(); degraded {
		t.Fatal("engine degraded during watch fallback")
	}
	// The fallback path still applies real changes.
	src.mu.Lock()
	src.doc = docB
	src.mu.Unlock()
	eventually(t, "fallback apply", func() bool { return reloads(st, "applied") == 2 })
}
