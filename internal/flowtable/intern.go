package flowtable

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"borderpatrol/internal/metrics"
)

// Intern is a bounded, seeded table of immutable records shared by value:
// the enforcer's decoded tags and decisions, the Context Manager's call
// sites. A record lives in one of InternWindow cells from its home cell,
// picked by the caller's hash mixed with a seed drawn per table, so keys
// aimed at one home through an unseeded, device-chosen hash scatter, and
// InternWindow hot records on one home coexist. Find asks the caller's
// match function, which compares keys verbatim, and never answers across a
// generation. Store takes an empty cell of the window or one of another
// generation before it replaces the window's oldest record.
//
// A Handle names a record: its cell plus the low bits of its fill epoch.
// Once the cell is refilled, Get returns nil for the old handle, never
// another record (a handle aliases only after 2^(32 − log2 cells) fills,
// a million for 4,096 cells). All methods are safe for concurrent use:
// cells are atomic pointers to records never written once published; two
// racing Stores may overwrite each other, which costs the loser a miss.
type Intern[R any] struct {
	cells []atomic.Pointer[interned[R]]
	seed  uint64
	bits  uint8 // log2(len(cells))
	fills atomic.Uint32

	hits, misses, replaced atomic.Uint64
}

// Handle names one interned record; zero names none.
type Handle uint32

// InternWindow is the number of cells, from its home, a record may use.
const InternWindow = 4

type interned[R any] struct {
	val   R
	gen   uint64
	epoch uint32
}

// NewIntern builds an empty table of cells rounded up to a power of two
// between InternWindow and 2^16.
func NewIntern[R any](cells int) *Intern[R] {
	b := uint8(bits.Len(uint(min(max(cells, InternWindow), 1<<16) - 1)))
	return &Intern[R]{cells: make([]atomic.Pointer[interned[R]], 1<<b), seed: rand.Uint64(), bits: b}
}

// Home returns the first cell of h's window.
func (t *Intern[R]) Home(h uint64) int {
	return int(fmix(h, t.seed) >> (64 - t.bits))
}

func (t *Intern[R]) handle(cell int, r *interned[R]) Handle {
	return Handle(r.epoch<<t.bits | uint32(cell))
}

// Find returns the record of generation gen in h's window that match
// accepts, and its handle, or nil on a miss.
func (t *Intern[R]) Find(h, gen uint64, match func(r *R) bool) (*R, Handle) {
	mask := len(t.cells) - 1
	for i, home := 0, t.Home(h); i < InternWindow; i++ {
		c := (home + i) & mask
		if r := t.cells[c].Load(); r != nil && r.gen == gen && match(&r.val) {
			t.hits.Add(1)
			return &r.val, t.handle(c, r)
		}
	}
	t.misses.Add(1)
	return nil, 0
}

// Store publishes v as a record of generation gen in h's window and
// returns it and its handle. The caller has just missed on it in Find.
func (t *Intern[R]) Store(h, gen uint64, v R) (*R, Handle) {
	epoch := t.fills.Add(1)
	if epoch<<t.bits == 0 {
		epoch = t.fills.Add(1) // keep every handle nonzero
	}
	mask := len(t.cells) - 1
	home := t.Home(h)
	victim, oldest := home, int64(-1)
	for i := 0; i < InternWindow; i++ {
		c := (home + i) & mask
		r := t.cells[c].Load()
		if r == nil || r.gen != gen {
			victim, oldest = c, -1
			break
		}
		if age := int64(epoch - r.epoch); age > oldest {
			victim, oldest = c, age
		}
	}
	if oldest >= 0 {
		t.replaced.Add(1)
	}
	r := &interned[R]{val: v, gen: gen, epoch: epoch}
	t.cells[victim].Store(r)
	return &r.val, t.handle(victim, r)
}

// Get returns the record hd names, or nil once its cell has been refilled.
func (t *Intern[R]) Get(hd Handle) *R {
	c := int(hd) & (len(t.cells) - 1)
	if r := t.cells[c].Load(); r != nil && t.handle(c, r) == hd {
		return &r.val
	}
	return nil
}

// RegisterMetrics exposes the table's counters as <family>_hits_total,
// _misses_total and _replacements_total; what names the records in HELP.
func (t *Intern[R]) RegisterMetrics(r *metrics.Registry, family, what string) {
	r.CounterFunc(family+"_hits_total", "Lookups answered by an interned "+what+".", t.hits.Load)
	r.CounterFunc(family+"_misses_total", "Lookups that found no interned "+what+" and built one.", t.misses.Load)
	r.CounterFunc(family+"_replacements_total", "Interned "+what+"s of the current generation replaced by a newcomer.", t.replaced.Load)
}
