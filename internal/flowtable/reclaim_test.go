package flowtable

import (
	"testing"
	"time"
)

// generations is a caller's current-generation function with one global
// generation, and a count of the cells it was asked about.
type generations struct {
	now   uint64
	asked int
}

func (g *generations) current(Key) uint64 {
	g.asked++
	return g.now
}

// TestFullShardTakesStaleCell: after a generation move, a full shard holds
// only dead verdicts. The first insert of a new key takes one of them, as it
// would an idle one: the admission guard is not asked, so the flow does not
// pay a second miss.
func TestFullShardTakesStaleCell(t *testing.T) {
	clk := &tickClock{}
	tab := New[int](Config{TTL: time.Minute, Clock: clk})
	g := &generations{now: 1}
	keys := shardKeys(perShard + 1)
	for i, k := range keys[:perShard] {
		tab.Insert(k, 1, g.current, i)
	}
	g.now = 2
	newcomer := keys[perShard]
	tab.Insert(newcomer, 2, g.current, 77)
	if v, ok := tab.Lookup(newcomer, 2, g.current, acceptAll); !ok || v != 77 {
		t.Fatal("first insert of a new key refused by a shard full of stale verdicts")
	}
	if ad, ev, st := count(tab, "admission_drops_total"), count(tab, "evictions_total"), count(tab, "stale_drops_total"); ad != 0 || ev != 0 || st != 1 {
		t.Fatalf("admission drops/evictions/stale drops = %d/%d/%d, want 0/0/1", ad, ev, st)
	}
	if int(tab.live()) != perShard {
		t.Fatalf("live = %d, want %d", int(tab.live()), perShard)
	}
}

// TestOldGenerationLookupKeepsNewerCell: a sender that read its generation
// before a swap looks up a cell another worker has just filled under the
// new one. It misses, but the cell is current for its key: it stays, and
// no stale drop is counted.
func TestOldGenerationLookupKeepsNewerCell(t *testing.T) {
	tab := newTable[string]()
	g := &generations{now: 2}
	k := key(3)
	tab.Insert(k, 2, g.current, "new")
	if _, ok := tab.Lookup(k, 1, g.current, acceptAll); ok {
		t.Fatal("a cell of generation 2 answered a lookup under generation 1")
	}
	if int(tab.live()) != 1 || count(tab, "stale_drops_total") != 0 {
		t.Fatalf("after the old-generation lookup: live %d, stale drops %d; want 1 and 0", int(tab.live()), count(tab, "stale_drops_total"))
	}
	if v, ok := tab.Lookup(k, 2, g.current, acceptAll); !ok || v != "new" {
		t.Fatalf("lookup under generation 2 = %q, %v", v, ok)
	}
}

// TestReclaimHoldsOneWave: N flows under one generation, then N new flows
// under the next. The first wave is dead by then, and the insert that would
// double the index reclaims it: the shard ends holding N flows in the cells
// N flows need, not 2N.
func TestReclaimHoldsOneWave(t *testing.T) {
	const n = 700 // two waves overflow the shard's share; one fits 1,024 cells
	tab := newTable[int]()
	g := &generations{now: 1}
	keys := shardKeys(2 * n)
	for i := 0; i < n; i++ {
		tab.Insert(keys[i], 1, g.current, i)
	}
	g.now = 2
	for i := n; i < 2*n; i++ {
		tab.Insert(keys[i], 2, g.current, i)
	}
	if cells, want := len(tab.shards[floodShard].flows.cells), cellLimit(n); cells != want {
		t.Fatalf("%d cells after two waves of %d flows, want the %d one wave needs", cells, n, want)
	}
	if int(tab.live()) != n || count(tab, "live") != n || tab.shards[floodShard].flows.Len() != n {
		t.Fatalf("live = %d (gauge %d, index %d), want %d", int(tab.live()), count(tab, "live"), tab.shards[floodShard].flows.Len(), n)
	}
	if st := count(tab, "stale_drops_total"); st != n {
		t.Fatalf("stale drops = %d, want the first wave's %d", st, n)
	}
	for i := 0; i < 2*n; i++ {
		if _, ok := tab.Lookup(keys[i], 2, g.current, acceptAll); ok != (i >= n) {
			t.Fatalf("flow %d: hit = %v", i, ok)
		}
	}
}

// TestReclaimOnePassPerDoubling: a shard of live flows pays one reclaim
// pass per doubling of its index. With dead flows among them (every 16th
// or every 4th is inserted under an old generation) a pass may free enough
// to skip the doubling, and then buys at least ⅛ of the cells in inserts
// before the next pass: a pass that frees less lets the index grow.
func TestReclaimOnePassPerDoubling(t *testing.T) {
	keys := shardKeys(perShard)
	for _, every := range []int{0, 16, 4} {
		tab := newTable[int]()
		g := &generations{now: 1}
		passes, doublings := 0, 0
		due := 0 // the first insert that may run a pass without doubling
		for i, k := range keys {
			gen := uint64(1)
			if every > 0 && i%every == 0 {
				gen = 0
			}
			cells, asked := len(tab.shards[floodShard].flows.cells), g.asked
			tab.Insert(k, gen, g.current, i)
			grew := cells > 0 && len(tab.shards[floodShard].flows.cells) != cells
			if grew {
				doublings++
			}
			if g.asked == asked {
				continue
			}
			passes++
			if !grew {
				if i < due {
					t.Fatalf("dead every %d: insert %d ran a pass before insert %d, ⅛ of the cells after the last pass", every, i, due)
				}
				due = i + cells/8
			}
		}
		if passes == 0 || every == 0 && passes > doublings {
			t.Fatalf("dead every %d: %d reclaim passes for %d doublings", every, passes, doublings)
		}
	}
}

// TestSweepReclaimsStale: with a current-generation function Sweep frees
// the cells no lookup can hit any more, without a TTL, and counts them as
// stale drops; the current flows stay.
func TestSweepReclaimsStale(t *testing.T) {
	tab := newTable[int]()
	g := &generations{now: 1}
	for i := 0; i < 8; i++ {
		tab.Insert(key(i), 1, g.current, i)
	}
	g.now = 2
	for i := 8; i < 12; i++ {
		tab.Insert(key(i), 2, g.current, i)
	}
	if got := tab.Sweep(g.current); got != 8 {
		t.Fatalf("sweep freed %d, want the 8 stale flows", got)
	}
	if int(tab.live()) != 4 || count(tab, "stale_drops_total") != 8 {
		t.Fatalf("live %d, stale drops %d; want 4 and 8", int(tab.live()), count(tab, "stale_drops_total"))
	}
	for i := 8; i < 12; i++ {
		if _, ok := tab.Lookup(key(i), 2, g.current, acceptAll); !ok {
			t.Fatalf("current flow %d swept", i)
		}
	}
}
