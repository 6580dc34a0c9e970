package flowtable

import (
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
)

// TestPurgeClearsAdmissionRing: a purge models a restart that loses every
// RAM table, the doorkeeper's memory included — a key turned away before
// the purge must not count as "seen twice" after it.
func TestPurgeClearsAdmissionRing(t *testing.T) {
	tab := newTable[int]()
	keys := shardKeys(perShard + 1)
	newcomer := keys[perShard]
	fillShard(t, tab, keys)
	tab.put(newcomer, 77) // noted, refused
	tab.Purge()
	if int(tab.live()) != 0 {
		t.Fatalf("live after purge = %d", int(tab.live()))
	}
	fillShard(t, tab, keys)
	tab.put(newcomer, 77) // first sighting since the restart
	if _, ok := tab.get(newcomer); ok {
		t.Fatal("key noted before the purge was admitted on its first attempt after it")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 2 || ev != 0 {
		t.Fatalf("admission drops/evictions = %d/%d, want 2 admission drops and no eviction", ad, ev)
	}
}

// TestStaleChurnStaysBounded: with the shard full and the generation
// moving under it, refills — stale flows coming back and flows never seen
// before, half and half — must keep the shard at or below its share and
// must not allocate: the index never grows past its bound.
func TestStaleChurnStaysBounded(t *testing.T) {
	tab := newTable[int]()
	g := &generations{now: 1}
	keys := shardKeys(5 * perShard)
	for i := 0; i < perShard; i++ {
		tab.Insert(keys[i], 1, g.current, i)
	}
	fresh := perShard
	for round := 0; round < 8; round++ {
		g.now = uint64(round + 2)
		for i := 0; i < perShard; i++ {
			k := keys[fresh]
			if i%2 == 0 {
				k = keys[i] // a flow cached under an older generation
			} else {
				fresh++
			}
			if _, ok := tab.Lookup(k, g.now, g.current, acceptAll); ok {
				t.Fatalf("round %d: key %d served under generation %d", round, i, g.now)
			}
			tab.Insert(k, g.now, g.current, i)
			if n := int(tab.live()); n > perShard {
				t.Fatalf("round %d insert %d: live = %d > the shard's %d", round, i, n, perShard)
			}
		}
	}
	if n := int(tab.live()); n != perShard {
		t.Fatalf("live = %d, want the shard full (%d)", n, perShard)
	}
	if sd := count(tab, "stale_drops_total"); sd == 0 {
		t.Fatal("no stale drops")
	}
	if cells := len(tab.shards[floodShard].flows.cells); cells > cellLimit(perShard) {
		t.Fatalf("%d cells for a share of %d", cells, perShard)
	}
	next := fresh
	g.now = 99
	allocs := testing.AllocsPerRun(100, func() {
		tab.Insert(keys[next%len(keys)], 99, g.current, next)
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
	current := func(Key) uint64 { return gen }
	keys := shardKeys(2 * perShard)
	for i := 0; i < 16000; i++ {
		n := i / 2 % 200 // a hot set that fits the shard...
		if i%2 == 1 {
			n = 200 + i/4%1848 // ...under a cold scan that does not, each key twice
		}
		k := keys[n]
		if _, ok := tab.Lookup(k, gen, current, acceptAll); !ok {
			tab.Insert(k, gen, current, i)
		}
		switch {
		case i%5003 == 0:
			gen++
		case i%401 == 0:
			clk.advance(time.Millisecond)
		case i%41 == 0:
			tab.Delete(keys[(i*7)%len(keys)])
		case i%1009 == 0:
			tab.Sweep(current)
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
		return mixedScript(New[int](Config{TTL: 10 * time.Millisecond, Clock: clk}), clk)
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

// shardSum adds up one counter of every shard.
func shardSum(tab *Table[int], read func(*counters) uint64) float64 {
	var n uint64
	for i := range tab.shards {
		n += read(&tab.shards[i].n)
	}
	return float64(n)
}

// TestScrapeMatchesStats: every bp_flowtable_* series reads the counter it
// names, summed over the shards, the live gauge included, across inserts,
// evictions, deletes and a purge.
func TestScrapeMatchesStats(t *testing.T) {
	clk := &tickClock{}
	tab := New[int](Config{TTL: 10 * time.Millisecond, Clock: clk})
	reg := metrics.NewRegistry()
	tab.RegisterMetrics(reg)
	check := func(when string) {
		t.Helper()
		want := map[string]float64{
			"bp_flowtable_hits_total":            shardSum(tab, func(c *counters) uint64 { return c.hits.Load() }),
			"bp_flowtable_misses_total":          shardSum(tab, func(c *counters) uint64 { return c.misses.Load() }),
			"bp_flowtable_inserts_total":         shardSum(tab, func(c *counters) uint64 { return c.inserts.Load() }),
			"bp_flowtable_evictions_total":       shardSum(tab, func(c *counters) uint64 { return c.evictions.Load() }),
			"bp_flowtable_stale_drops_total":     shardSum(tab, func(c *counters) uint64 { return c.stale.Load() }),
			"bp_flowtable_expired_drops_total":   shardSum(tab, func(c *counters) uint64 { return c.expired.Load() }),
			"bp_flowtable_admission_drops_total": shardSum(tab, func(c *counters) uint64 { return c.admissionDrops.Load() }),
			"bp_flowtable_live":                  shardSum(tab, func(c *counters) uint64 { return uint64(c.live.Load()) }),
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
	if live := mixedScript(tab, clk)["live"]; live == 0 || live > perShard {
		t.Fatalf("live = %v after the script", live)
	}
	check("after the script")
	tab.Purge()
	check("after purge")
	if int(tab.live()) != 0 {
		t.Fatalf("live after purge = %d", int(tab.live()))
	}
}

// tableModel checks a table of the shipped shape against what its callers
// may rely on: a hit returns the last value inserted for its key, stamped
// with the generation the lookup asked for, accepted by the lookup's
// accept function, and not idle past the TTL. A miss is always allowed: a
// flow may have been evicted, refused or reclaimed.
type tableModel struct {
	tb   testing.TB
	tab  *Table[uint32]
	clk  *tickClock
	gen  uint64
	val  uint32
	flow map[Key]modelFlow
}

// modelFlow is the last insert of a key and its last use.
type modelFlow struct {
	val  uint32
	gen  uint64
	used time.Duration
}

// modelKeys are the keys the model draws from, all in floodShard: point
// operations use the first 256, fills (64 at a time) the next 1,024, so
// the shard runs full.
var modelKeys = sync.OnceValue(func() []Key { return shardKeys(256 + perShard) })

func newTableModel(tb testing.TB) *tableModel {
	clk := &tickClock{}
	return &tableModel{tb: tb, tab: New[uint32](Config{Clock: clk}), clk: clk, gen: 1, flow: map[Key]modelFlow{}}
}

func (m *tableModel) current(Key) uint64 { return m.gen }

// older is the generation a sender that read it before the last move
// holds.
func (m *tableModel) older() uint64 { return max(m.gen-1, 1) }

func (m *tableModel) insert(k Key, gen uint64) {
	m.val++
	m.tab.Insert(k, gen, m.current, m.val)
	m.flow[k] = modelFlow{m.val, gen, m.clk.Now()}
}

func (m *tableModel) lookup(k Key, gen uint64, accept func(*uint32) bool) {
	v, ok := m.tab.Lookup(k, gen, m.current, accept)
	if !ok {
		return
	}
	f, held := m.flow[k]
	now := m.clk.Now()
	switch {
	case !held:
		m.tb.Fatalf("hit on a key never inserted (or deleted since): %d", v)
	case v != f.val:
		m.tb.Fatalf("hit returned %d, the last insert was %d", v, f.val)
	case f.gen != gen:
		m.tb.Fatalf("hit under generation %d on a flow inserted under %d", gen, f.gen)
	case now-f.used > defaultTTL:
		m.tb.Fatalf("hit on a flow idle %v, past the TTL", now-f.used)
	case !accept(&v):
		m.tb.Fatalf("hit returned %d, which accept refuses", v)
	}
	f.used = now
	m.flow[k] = f
}

// step runs one operation: op picks it, arg its key, amount or variant.
func (m *tableModel) step(op, arg byte) {
	keys := modelKeys()
	k := keys[arg]
	switch op % 8 {
	case 0:
		m.insert(k, m.gen)
	case 1:
		m.insert(k, m.older())
	case 2:
		m.lookup(k, m.gen, acceptAll)
	case 3:
		m.lookup(k, m.older(), func(v *uint32) bool { return *v%2 == 0 })
	case 4:
		if m.tab.Delete(k) {
			if _, held := m.flow[k]; !held {
				m.tb.Fatal("Delete found a key never inserted (or deleted since)")
			}
		}
		delete(m.flow, k)
	case 5:
		m.clk.advance(time.Duration(arg) * time.Second)
	case 6:
		if arg%2 == 0 {
			m.gen++
			break
		}
		m.tab.Sweep(m.current)
		m.checkSwept()
	case 7:
		block := 256 + int(arg%16)*64
		for _, k := range keys[block : block+64] {
			m.insert(k, m.gen)
		}
	}
	m.check()
}

// check compares the live gauge with the shards and each shard with its
// share and its own live count.
func (m *tableModel) check() {
	held := 0
	for i := range m.tab.shards {
		n := m.tab.shards[i].flows.Len()
		if n > perShard {
			m.tb.Fatalf("shard %d holds %d flows, past its share of %d", i, n, perShard)
		}
		if live := m.tab.shards[i].n.live.Load(); live != int64(n) {
			m.tb.Fatalf("shard %d counts %d live flows, it holds %d", i, live, n)
		}
		held += n
	}
	if live := int(m.tab.live()); live != held {
		m.tb.Fatalf("live gauge %d, the shards hold %d", live, held)
	}
}

// checkSwept fails for any cell a sweep left dead.
func (m *tableModel) checkSwept() {
	now := m.clk.Now()
	for i := range m.tab.shards {
		x := &m.tab.shards[i].flows
		for j := range x.cells {
			if c := &x.cells[j]; c.h != 0 && m.tab.fateOf(now, c.key, &c.val, m.current) != alive {
				m.tb.Fatalf("Sweep left a dead cell in shard %d", i)
			}
		}
	}
}

// FuzzTable runs fuzzer-chosen inserts, lookups, deletes, sweeps,
// generation moves, clock advances and fills on a table of the shipped
// shape against tableModel: each pair of bytes is an operation and its
// argument.
func FuzzTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newTableModel(t)
		for i := 0; i+1 < len(ops) && i < 2048; i += 2 {
			m.step(ops[i], ops[i+1])
		}
	})
}
