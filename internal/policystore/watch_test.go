package policystore

import (
	"errors"
	"strings"
	"sync/atomic"
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
	doc, v1, _ := h.state()
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
			Source:       h.Shard(grp),
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
		if got := engines[i].Generation(); got != gens[i]+1 {
			t.Errorf("store %d: generation = %d, want exactly %d+1", i, got, gens[i])
		}
	}
}

// downSource fails every Watch and every Fetch, modelling a control
// plane that is down.
type downSource struct{ watches, fetches atomic.Int64 }

func (d *downSource) Fetch(prev string) (Candidate, bool, error) {
	d.fetches.Add(1)
	return Candidate{}, false, errors.New("connection refused")
}

func (d *downSource) Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error) {
	d.watches.Add(1)
	return Candidate{}, false, errors.New("connection refused")
}

func (d *downSource) String() string { return "down" }

// TestFailingWatchBacksOff: a watch round that fails is followed by the
// same doubling backoff as a failed poll, so a dead control plane is not
// hot-looped, and every failed round is counted.
func TestFailingWatchBacksOff(t *testing.T) {
	src := &downSource{}
	st, err := New(Config{
		Source:       src,
		Engine:       newEngine(t),
		Poll:         time.Millisecond,
		WatchTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	time.Sleep(120 * time.Millisecond)
	st.Close()

	n := src.watches.Load()
	// 120ms at a flat 1ms cadence would be ~100+ rounds; the backoff
	// (2,4,8,16,32,64ms) keeps it near 6.
	if n == 0 || n > 30 {
		t.Fatalf("watch rounds in 120ms = %d, want backoff-limited (1..30)", n)
	}
	if f := src.fetches.Load(); f != 0 {
		t.Fatalf("%d plain fetches, want every round on the watch", f)
	}
	if failed := reloads(st, "failed"); failed != uint64(n) || st.LastError() == "" {
		t.Fatalf("failed %d of %d rounds, last error %q", failed, n, st.LastError())
	}
	if r := count(st, "bp_policy_watch_rounds_total"); r != 0 {
		t.Fatalf("watch rounds completed = %d, want 0", r)
	}
}
