package flowtable

import (
	"maps"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
)

// TestPurgeClearsAdmissionRing: a purge models a restart that loses every
// RAM table, the doorkeeper's memory included — a key turned away before
// the purge must not count as "seen twice" after it.
func TestPurgeClearsAdmissionRing(t *testing.T) {
	tab := newTable[int](Config{Capacity: 4, Shards: 1, MissRing: 8})
	fill := func() {
		for i := uint64(0); i < 4; i++ {
			tab.Insert(floodKey(i), 1, nil, int(i))
		}
	}
	fill()
	newcomer := floodKey(77)
	tab.Insert(newcomer, 1, nil, 77) // noted, refused
	tab.Purge()
	if int(tab.live.Load()) != 0 {
		t.Fatalf("live after purge = %d", int(tab.live.Load()))
	}
	fill()
	tab.Insert(newcomer, 1, nil, 77) // first sighting since the restart
	if _, ok := tab.Lookup(newcomer, 1, nil, nil); ok {
		t.Fatal("key noted before the purge was admitted on its first attempt after it")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 2 || ev != 0 {
		t.Fatalf("admission drops/evictions = %d/%d, want 2 admission drops and no eviction", ad, ev)
	}
}

// TestStaleChurnStaysBounded: with the shard full and the generation
// moving under it, refills — stale flows coming back and flows never seen
// before, half and half — must keep the shard at or below capacity and
// must not allocate: the index never grows past its bound.
func TestStaleChurnStaysBounded(t *testing.T) {
	const capacity = 64
	tab := newTable[int](Config{Capacity: capacity, Shards: 1})
	keys := make([]Key, 9*capacity)
	for i := range keys {
		keys[i] = floodKey(uint64(i))
	}
	for i := 0; i < capacity; i++ {
		tab.Insert(keys[i], 1, nil, i)
	}
	fresh := capacity
	for round := 0; round < 8; round++ {
		gen := uint64(round + 2)
		for i := 0; i < capacity; i++ {
			k := keys[fresh]
			if i%2 == 0 {
				k = keys[i] // a flow cached under an older generation
			} else {
				fresh++
			}
			if _, ok := tab.Lookup(k, gen, nil, nil); ok {
				t.Fatalf("round %d: key %d served under generation %d", round, i, gen)
			}
			tab.Insert(k, gen, nil, i)
			if n := int(tab.live.Load()); n > capacity {
				t.Fatalf("round %d insert %d: live = %d > capacity %d", round, i, n, capacity)
			}
		}
	}
	if n := int(tab.live.Load()); n != capacity {
		t.Fatalf("live = %d, want the shard full (%d)", n, capacity)
	}
	if sd, ev := count(tab, "stale_drops_total"), count(tab, "evictions_total"); sd == 0 || ev == 0 {
		t.Fatalf("stale drops/evictions = %d/%d, want both", sd, ev)
	}
	next := fresh
	allocs := testing.AllocsPerRun(100, func() {
		tab.Insert(keys[next%len(keys)], 99, nil, next)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Insert at capacity allocates %.1f times", allocs)
	}
}

// mixedScript drives one goroutine's worth of every table operation —
// fills past capacity, hits, stale and expired probes, refused and
// admitted inserts, deletes, a sweep — and returns the closing value of
// every bp_flowtable_* series.
func mixedScript(tab *Table[int], clk *tickClock) map[string]float64 {
	gen := uint64(1)
	for i := 0; i < 4000; i++ {
		n := i % 50 // a hot set that fits the table...
		if i%3 == 0 {
			n = 50 + i%650 // ...under a cold scan that does not
		}
		k := floodKey(uint64(n))
		if _, ok := tab.Lookup(k, gen, nil, nil); !ok {
			tab.Insert(k, gen, nil, i)
		}
		switch {
		case i%997 == 0:
			gen++
		case i%101 == 0:
			clk.advance(time.Millisecond)
		case i%41 == 0:
			tab.Delete(floodKey(uint64((i * 7) % 700)))
		case i%1009 == 0:
			tab.Sweep(nil)
		}
	}
	reg := metrics.NewRegistry()
	tab.RegisterMetrics(reg)
	out := make(map[string]float64)
	for _, smp := range reg.Snapshot() {
		out[strings.TrimPrefix(smp.Name, "bp_flowtable_")] = smp.Value
	}
	return out
}

// TestIdenticalRunsIdenticalStats: eviction draws on no random source and
// no map order, so one script run twice ends in the same counters (the
// repository benchmark's repeatability check leans on this).
func TestIdenticalRunsIdenticalStats(t *testing.T) {
	run := func() map[string]float64 {
		clk := &tickClock{}
		return mixedScript(New[int](Config{Capacity: 256, Shards: 4, TTL: 10 * time.Millisecond, Clock: clk, MissRing: 16}), clk)
	}
	a, b := run(), run()
	if !maps.Equal(a, b) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", a, b)
	}
	for _, s := range []string{"evictions_total", "expired_drops_total", "stale_drops_total", "admission_drops_total", "hits_total"} {
		if a[s] == 0 {
			t.Fatalf("script left %s unexercised: %v", s, a)
		}
	}
}

// TestScrapeMatchesStats: every bp_flowtable_* series reads the counter it
// names, the live gauge included, across inserts, evictions, deletes and a
// purge.
func TestScrapeMatchesStats(t *testing.T) {
	clk := &tickClock{}
	tab := New[int](Config{Capacity: 256, Shards: 4, TTL: 10 * time.Millisecond, Clock: clk, MissRing: 16})
	reg := metrics.NewRegistry()
	tab.RegisterMetrics(reg)
	check := func(when string) {
		t.Helper()
		want := map[string]float64{
			"bp_flowtable_hits_total":            float64(tab.hits.Load()),
			"bp_flowtable_misses_total":          float64(tab.misses.Load()),
			"bp_flowtable_inserts_total":         float64(tab.inserts.Load()),
			"bp_flowtable_evictions_total":       float64(tab.evictions.Load()),
			"bp_flowtable_stale_drops_total":     float64(tab.stale.Load()),
			"bp_flowtable_expired_drops_total":   float64(tab.expired.Load()),
			"bp_flowtable_admission_drops_total": float64(tab.admissionDrops.Load()),
			"bp_flowtable_live":                  float64(int(tab.live.Load())),
		}
		for _, smp := range reg.Snapshot() {
			if v, ok := want[smp.Name]; !ok {
				t.Fatalf("%s: unexpected family %s", when, smp.Name)
			} else if v != smp.Value {
				t.Fatalf("%s: %s scraped %v, the table holds %v", when, smp.Name, smp.Value, v)
			}
			delete(want, smp.Name)
		}
		if len(want) != 0 {
			t.Fatalf("%s: families not scraped: %v", when, want)
		}
	}
	check("empty")
	if live := mixedScript(tab, clk)["live"]; live == 0 || live > 256 {
		t.Fatalf("live = %v after the script", live)
	}
	check("after the script")
	tab.Purge()
	check("after purge")
	if int(tab.live.Load()) != 0 {
		t.Fatalf("live after purge = %d", int(tab.live.Load()))
	}
}
