package flowtable

import (
	"math/rand"
	"sync"
	"testing"

	"borderpatrol/internal/metrics"
)

// rec is the record the intern tests store: the key it answers for, the
// generation it was stored under, and the serial number of its Store.
type rec struct {
	key    byte
	gen    uint64
	serial int
}

// internCount reads one of an intern table's counters ("hits_total").
func internCount(x *Intern[rec], series string) uint64 {
	r := metrics.NewRegistry()
	x.RegisterMetrics(r, "t", "record")
	v, _ := r.Value("t_" + series)
	return uint64(v)
}

// internModel runs one Intern against a reference: which handle each cell
// last issued, and what every handle named. Keys share hashes four ways
// (idxHash), so windows fill and the verbatim key compare decides.
type internModel struct {
	tb     testing.TB
	x      *Intern[rec]
	latest map[int]Handle // cell → the handle its last Store issued
	issued map[Handle]rec
	serial int
}

func newInternModel(tb testing.TB, cells int, zeroSeed bool) *internModel {
	m := &internModel{tb: tb, x: NewIntern[rec](cells), latest: map[int]Handle{}, issued: map[Handle]rec{}}
	if zeroSeed {
		m.x.seed = 0
	}
	return m
}

// step applies one operation: op picks it and the generation, arg the key
// (or, for Get, which issued handle).
func (m *internModel) step(op, arg byte) {
	k, gen := arg%keySpace, uint64(op>>6)
	match := func(r *rec) bool { return r.key == k }
	switch op % 4 {
	case 0, 1: // Find, and Store on a miss, as every owner does
		r, h := m.x.Find(idxHash(uint16(k)), gen, match)
		if r != nil {
			if r.key != k || r.gen != gen || m.issued[h] != *r {
				m.tb.Fatalf("Find(%d, gen %d) answered %+v by handle %#x, issued as %+v", k, gen, *r, h, m.issued[h])
			}
			return
		}
		m.serial++
		v := rec{key: k, gen: gen, serial: m.serial}
		r, h = m.x.Store(idxHash(uint16(k)), gen, v)
		if *r != v || h == 0 || m.issued[h] != (rec{}) {
			m.tb.Fatalf("Store(%d) returned %+v under handle %#x (issued before: %+v)", k, *r, h, m.issued[h])
		}
		m.issued[h], m.latest[int(h)&(len(m.x.cells)-1)] = v, h
		if got, _ := m.x.Find(idxHash(uint16(k)), gen, match); got == nil || *got != v {
			m.tb.Fatalf("a record just stored is not found: %+v", got)
		}
	case 2: // Get of an issued handle: its record while its cell holds it
		if len(m.issued) == 0 {
			return
		}
		for h, want := range m.issued { // map order: some issued handle
			got := m.x.Get(h)
			if live := m.latest[int(h)&(len(m.x.cells)-1)] == h; live != (got != nil) || (got != nil && *got != want) {
				m.tb.Fatalf("Get(%#x) = %v, the cell's latest handle is %#x, issued as %+v", h, got, m.latest[int(h)&(len(m.x.cells)-1)], want)
			}
			if arg%2 == 0 {
				return
			}
		}
	case 3: // a handle never issued resolves to nothing
		if h := Handle(uint32(arg) << 8); m.issued[h] == (rec{}) && m.x.Get(h) != nil {
			m.tb.Fatalf("Get of the unissued handle %#x answered", h)
		}
	}
}

// TestInternMatchesModel: over random operations on tables smaller and
// larger than the keys' working set (replacing, and not), Find
// never answers for another key or another generation, a stored record is
// found at once, and a handle resolves exactly while its cell holds it.
// Half the runs force the seed to zero.
func TestInternMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cells := range []int{4, 8, 64} {
		for run := 0; run < 8; run++ {
			m := newInternModel(t, cells, run%2 == 0)
			for i := 0; i < 2000; i++ {
				m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			if (cells < 64 && internCount(m.x, "replacements_total") == 0) || internCount(m.x, "hits_total") == 0 {
				t.Fatalf("%d cells: the run never replaced or never hit", cells)
			}
		}
	}
}

// FuzzIntern is TestInternMatchesModel on fuzzer-chosen operations: the
// first byte picks the table (4 to 32 cells, zero or drawn seed), each
// later pair is an operation and its key.
func FuzzIntern(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		m := newInternModel(t, 4<<(ops[0]%4), ops[0]&4 != 0)
		for i := 1; i+1 < len(ops) && i < 2048; i += 2 {
			m.step(ops[i], ops[i+1])
		}
	})
}

// TestInternSeedSpreadsAimedKeys: 64 keys whose hashes are aimed at one
// home cell of a 4,096-cell table — as a device choosing its tag bytes can
// aim the unseeded digest. With the seed forced to zero they share one
// window and replace each other: every key past the window's four. With
// the constructor's seed they spread, and every one of them stays.
func TestInternSeedSpreadsAimedKeys(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = unmix(rng.Uint64() >> 12) // home cell 0 of 4,096
	}
	fill := func(x *Intern[rec]) (found int) {
		for i, h := range hashes {
			x.Store(h, 1, rec{key: byte(i)})
		}
		for i, h := range hashes {
			if r, _ := x.Find(h, 1, func(r *rec) bool { return r.key == byte(i) }); r != nil {
				found++
			}
		}
		return found
	}

	zero := NewIntern[rec](4096)
	zero.seed = 0
	if found := fill(zero); found != InternWindow || internCount(zero, "replacements_total") != n-InternWindow {
		t.Fatalf("unseeded: %d keys kept, %d replaced; want %d kept, %d replaced",
			found, internCount(zero, "replacements_total"), InternWindow, n-InternWindow)
	}
	seeded := NewIntern[rec](4096)
	if found := fill(seeded); found != n || internCount(seeded, "replacements_total") != 0 {
		t.Fatalf("seeded: %d of %d keys kept, %d replaced", found, n, internCount(seeded, "replacements_total"))
	}
}

// TestInternConcurrent: goroutines find, store and resolve records of
// overlapping keys at once on a table smaller than their working set;
// every answer is a record of the key asked for (run with -race).
func TestInternConcurrent(t *testing.T) {
	x := NewIntern[rec](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var handles []Handle
			for i := 0; i < 2000; i++ {
				k := byte(rng.Intn(keySpace))
				r, h := x.Find(idxHash(uint16(k)), 0, func(r *rec) bool { return r.key == k })
				if r == nil {
					r, h = x.Store(idxHash(uint16(k)), 0, rec{key: k, serial: g})
				}
				if r.key != k {
					t.Errorf("asked for %d, answered %+v", k, *r)
					return
				}
				handles = append(handles, h)
				if got := x.Get(handles[rng.Intn(len(handles))]); got != nil && got.key >= keySpace {
					t.Errorf("a handle resolved to %+v", *got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
