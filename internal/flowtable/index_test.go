package flowtable

import (
	"math/rand"
	"testing"
)

// idxHash is the caller hash the differential tests use: four keys share
// each hash, so equal cell hashes are common and the key compare decides.
func idxHash(k uint16) uint64 { return uint64(k >> 2) }

// indexModel runs one Index against a Go map, the reference, and checks
// the two agree after every operation.
type indexModel struct {
	tb    testing.TB
	x     Index[uint16, uint32]
	ref   map[uint16]uint32
	bound int
	stamp uint32
	// wrapped counts the checks that found a cluster running past the
	// array's end, the case backward shift and Sweep must handle.
	wrapped int
	// grown and kept count the reclaim passes after which the array
	// doubled, and those that freed enough for it not to.
	grown, kept int
}

func newIndexModel(tb testing.TB, bound int) *indexModel {
	return &indexModel{tb: tb, x: NewIndex[uint16, uint32](bound), ref: map[uint16]uint32{}, bound: bound}
}

// cellLimit is the most cells an index of the given bound may grow to:
// the smallest power of two, at least minCells, holding the bound at ¾
// load.
func cellLimit(bound int) int {
	c := minCells
	for 4*bound > 3*c {
		c *= 2
	}
	return c
}

// keySpace is the keys the models draw from: more than any bound they
// test, so the index runs full and its probes miss as well as hit.
const keySpace = 64

// step applies one operation: op picks it, arg its key (or sample size).
// Values are key<<16 | a stamp, so an evicted value names its key.
func (m *indexModel) step(op, arg byte) {
	k := uint16(arg % keySpace)
	switch op % 8 {
	case 2:
		m.putReclaim(k, arg)
	case 0, 1:
		_, in := m.ref[k]
		if !in && len(m.ref) == m.bound {
			return // owners never Put past the bound
		}
		p, added := m.x.Put(idxHash(k), k)
		if added == in || (added && *p != 0) {
			m.tb.Fatalf("Put(%d): added=%v with %d present=%v", k, added, *p, in)
		}
		m.stamp++
		*p = uint32(k)<<16 | m.stamp&0xffff
		m.ref[k] = *p
	case 3:
		want, in := m.ref[k]
		if p := m.x.Get(idxHash(k), k); (p != nil) != in || in && *p != want {
			m.tb.Fatalf("Get(%d) = %v, want %d present=%v", k, p, want, in)
		}
	case 4:
		_, in := m.ref[k]
		if got := m.x.Delete(idxHash(k), k); got != in {
			m.tb.Fatalf("Delete(%d) = %v, want %v", k, got, in)
		}
		delete(m.ref, k)
	case 5:
		var got uint32
		if m.x.Evict(int(arg%8)+1, func(v *uint32) bool {
			got = *v
			return *v&1 == 0
		}) {
			ek := uint16(got >> 16)
			if want, in := m.ref[ek]; !in || want != got || got&1 != 0 {
				m.tb.Fatalf("Evict deleted %#x; reference holds %#x present=%v", got, want, in)
			}
			delete(m.ref, ek)
		}
	case 6:
		m.sweep(func(v uint32) bool { return v%3 == uint32(arg)%3 })
	case 7:
		if arg < 32 {
			m.x.Clear()
			clear(m.ref)
		}
	}
	m.check()
}

// sweep runs a deleting Sweep and checks it visited every key exactly
// once, as the reference holds them when the walk starts.
func (m *indexModel) sweep(drop func(uint32) bool) {
	seen := map[uint16]int{}
	m.x.Sweep(func(k uint16, v *uint32) bool {
		seen[k]++
		if want, in := m.ref[k]; !in || *v != want {
			m.tb.Fatalf("Sweep visited %d = %#x; reference holds %#x present=%v", k, *v, want, in)
		}
		return drop(*v)
	})
	if len(seen) != len(m.ref) {
		m.tb.Fatalf("Sweep visited %d of %d keys", len(seen), len(m.ref))
	}
	for k, n := range seen {
		if n != 1 {
			m.tb.Fatalf("Sweep visited %d %d times", k, n)
		}
		if drop(m.ref[k]) {
			delete(m.ref, k)
		}
	}
}

// putReclaim is step's Put through PutReclaim, whose dead test takes the
// values congruent to arg mod 3. It checks that a pass runs exactly when
// the add would double the array, visits every key once, and deletes what
// it accepts, and that the array then doubles only when the pass freed
// fewer than ⅛ of its cells.
func (m *indexModel) putReclaim(k uint16, arg byte) {
	_, in := m.ref[k]
	if !in && len(m.ref) == m.bound {
		return // owners never Put past the bound
	}
	cells := len(m.x.cells)
	pass := !in && len(m.ref) > 0 && 4*(len(m.ref)+1) > 3*cells
	dead := func(v uint32) bool { return v%3 == uint32(arg)%3 }
	seen := map[uint16]int{}
	p, added := m.x.PutReclaim(idxHash(k), k, func(k uint16, v *uint32) bool {
		seen[k]++
		if want, in := m.ref[k]; !in || *v != want {
			m.tb.Fatalf("reclaim visited %d = %#x; reference holds %#x present=%v", k, *v, want, in)
		}
		return dead(*v)
	})
	if !pass {
		if len(seen) != 0 {
			m.tb.Fatalf("PutReclaim(%d) ran a pass at %d keys in %d cells", k, len(m.ref), cells)
		}
	} else {
		if len(seen) != len(m.ref) {
			m.tb.Fatalf("reclaim visited %d of %d keys", len(seen), len(m.ref))
		}
		freed := 0
		for k, n := range seen {
			if n != 1 {
				m.tb.Fatalf("reclaim visited %d %d times", k, n)
			}
			if dead(m.ref[k]) {
				delete(m.ref, k)
				freed++
			}
		}
		grew := len(m.x.cells) != cells
		if grew != (8*freed < cells) {
			m.tb.Fatalf("reclaim freed %d of %d cells; array doubled = %v", freed, cells, grew)
		}
		if grew {
			m.grown++
		} else {
			m.kept++
		}
	}
	if added == in || (added && *p != 0) {
		m.tb.Fatalf("PutReclaim(%d): added=%v with %d present=%v", k, added, *p, in)
	}
	m.stamp++
	*p = uint32(k)<<16 | m.stamp&0xffff
	m.ref[k] = *p
}

// check compares the whole key space and Len with the reference, and the
// array with its bound.
func (m *indexModel) check() {
	if m.x.Len() != len(m.ref) {
		m.tb.Fatalf("Len = %d, reference holds %d", m.x.Len(), len(m.ref))
	}
	for k := 0; k < keySpace; k++ {
		want, in := m.ref[uint16(k)]
		if p := m.x.Get(idxHash(uint16(k)), uint16(k)); (p != nil) != in || in && *p != want {
			m.tb.Fatalf("Get(%d) = %v, want %#x present=%v", k, p, want, in)
		}
	}
	if n := len(m.x.cells); n > cellLimit(m.bound) {
		m.tb.Fatalf("%d cells for a bound of %d", n, m.bound)
	}
	if n := len(m.x.cells); n > 0 && m.x.cells[0].h != 0 && m.x.cells[n-1].h != 0 {
		m.wrapped++
	}
}

// TestIndexMatchesMap runs random Put, reclaiming Put, Get, Delete, hand
// eviction, deleting sweeps and clears on indexes of 8 to 64 cells against
// a Go map.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grown, kept := 0, 0
	for _, bound := range []int{6, 12, 24, 48} {
		wrapped := 0
		for run := 0; run < 12; run++ {
			m := newIndexModel(t, bound)
			for i := 0; i < 2000; i++ {
				m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			wrapped += m.wrapped
			grown += m.grown
			kept += m.kept
		}
		if wrapped == 0 {
			t.Fatalf("bound %d: no cluster ever wrapped past the array's end", bound)
		}
	}
	if grown == 0 || kept == 0 {
		t.Fatalf("reclaim passes: %d doubled the array, %d did not; want both", grown, kept)
	}
}

// FuzzIndex is TestIndexMatchesMap on fuzzer-chosen operations: the first
// byte sizes the index (8 to 64 cells), each later pair is an operation
// and its key.
func FuzzIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		m := newIndexModel(t, int(ops[0])%48+1)
		for i := 1; i+1 < len(ops) && i < 2048; i += 2 {
			m.step(ops[i], ops[i+1])
		}
	})
}

// unmix inverts the index's mix at seed 0: the murmur3 finalizer is a
// bijection on 64 bits, so a caller hash that lands anywhere is easy to
// find — as easy as inverting the unseeded finalizers of transport.Tuple
// and Key, which is what an attacker choosing its own ports would do.
func unmix(m uint64) uint64 {
	inverse := func(c uint64) uint64 {
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	m ^= m >> 33
	m *= inverse(0xc4ceb9fe1a85ec53)
	m ^= m >> 33
	m *= inverse(0xff51afd7ed558ccd)
	m ^= m >> 33
	return m
}

// probes reports how far the keys of x sit from their home cells: the
// longest distance and the mean.
func probes[K comparable, V any](x *Index[K, V]) (longest int, mean float64) {
	mask := uint32(len(x.cells) - 1)
	total := 0
	for i, c := range x.cells {
		if c.h != 0 {
			d := int((uint32(i) - c.h) & mask)
			longest = max(longest, d)
			total += d
		}
	}
	return longest, float64(total) / float64(x.Len())
}

// TestIndexSeedScattersAimedKeys: 1,500 keys whose hashes are aimed at one
// home cell of a 2,048-cell index. With the seed forced to zero they form
// one cluster — the attack works, so the test has teeth. With the
// constructor's seeds they scatter as random keys do, and two indexes
// place them differently. (Random keys at this load, 0.73, sit 1.4 cells
// from home on average; the longest distance is about 40, and the worst
// of 2,000 random tables was 156.)
func TestIndexSeedScattersAimedKeys(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = unmix(rng.Uint64() &^ 2047) // home cell 0 of 2,048
	}
	fill := func(x *Index[uint64, struct{}]) {
		for _, k := range keys {
			x.Put(k, k)
		}
		if len(x.cells) != 2048 || x.Len() != n {
			t.Fatalf("%d keys in %d cells, want %d in 2048", x.Len(), len(x.cells), n)
		}
	}

	zero := NewIndex[uint64, struct{}](n)
	zero.seed = 0
	fill(&zero)
	if longest, _ := probes(&zero); longest != n-1 {
		t.Fatalf("unseeded: longest probe %d, want the one cluster's %d", longest, n-1)
	}

	a, b := NewIndex[uint64, struct{}](n), NewIndex[uint64, struct{}](n)
	fill(&a)
	fill(&b)
	for _, x := range []*Index[uint64, struct{}]{&a, &b} {
		if longest, mean := probes(x); longest >= 256 || mean >= 4 {
			t.Fatalf("seeded: probe distance %.2f on average, %d at the longest; want < 4 and < 256", mean, longest)
		}
	}
	moved := 0
	for i := range a.cells {
		if a.cells[i].key != b.cells[i].key {
			moved++
		}
	}
	if moved < n/2 {
		t.Fatalf("two seeded indexes place only %d of %d keys differently", moved, n)
	}
}

// TestIndexEvictHandCoversArray: eviction attempts that find no victim
// move the hand on, so a victim anywhere is found within ⌈cells/n⌉
// attempts, wherever the hand stood.
func TestIndexEvictHandCoversArray(t *testing.T) {
	for start := 0; start < 64; start += 7 {
		x := NewIndex[uint16, uint32](48)
		for k := uint16(0); k < 48; k++ {
			p, _ := x.Put(uint64(k)*0x9e3779b97f4a7c15, k)
			*p = 1
		}
		x.hand = uint32(start)
		for k := uint16(0); k < 48; k++ {
			*x.Get(uint64(k)*0x9e3779b97f4a7c15, k) = 0
			limit := (len(x.cells) + 2) / 3
			for attempts := 1; !x.Evict(3, func(v *uint32) bool { return *v == 0 }); attempts++ {
				if attempts == limit {
					t.Fatalf("hand at %d: victim %d not found in %d attempts", start, k, limit)
				}
			}
			if x.Len() != 47-int(k) {
				t.Fatalf("eviction took %d keys", 48-int(k)-x.Len())
			}
		}
	}
}

// TestIndexClearReleasesCells: a fresh index holds no cells, and Clear
// gives them back.
func TestIndexClearReleasesCells(t *testing.T) {
	x := NewIndex[uint64, uint64](1024)
	if x.cells != nil {
		t.Fatal("a fresh index allocated cells")
	}
	for k := uint64(0); k < 1024; k++ {
		x.Put(k, k)
	}
	x.Clear()
	if x.cells != nil || x.Len() != 0 || x.Get(1, 1) != nil {
		t.Fatalf("after Clear: %d cells, Len %d", len(x.cells), x.Len())
	}
}
