package flowtable

import "math/rand/v2"

// Index is a bounded, seeded, open-addressed hash table from K to V: the
// one index under every per-flow table of the packet path (the flow
// cache's shards, the conntrack's, the server's response sequence).
//
// Cells live in one power-of-two array. Each holds a 32-bit hash, the key
// and the value inline; a probe is linear from the key's home cell and
// compares the stored hash before the key. Delete shifts the rest of the
// cluster back (no tombstones), so a probe ends at the first empty cell.
// The array starts empty, is allocated on the first Put and doubles at ¾
// load, never past the size that holds the bound at ¾ load.
//
// # Seeding
//
// The caller supplies each key's 64-bit hash, and callers' hashes are
// unseeded bijective mixes of fields a device chooses (its ports, its tag
// bytes). Each Index draws a random seed at construction and mixes it into
// every probe start, so keys aimed at one home cell by inverting the
// caller's hash scatter anyway: no one outside the process can build a
// long probe cluster. (The flow table gives all its shards one seed drawn
// per process instead, so that its eviction is repeatable; see Table.)
//
// # Locking and pointers
//
// An Index does no locking: its owner serializes Put, Delete, Evict,
// Sweep and Clear against every other call. Get and Len write nothing, so
// any number of them may run together under a read lock. A pointer Get or
// Put returns stays valid until the next Put, Delete, Evict, Sweep or
// Clear on the index — a read-modify-write is one probe that updates
// through it.
//
// The zero value is not usable; call NewIndex.
type Index[K comparable, V any] struct {
	cells []cell[K, V]
	seed  uint64
	n     uint32 // live cells
	bound uint32 // the most live cells Put allows
	hand  uint32 // the next cell Evict samples
}

// cell is one slot of an Index. h is the key's seeded hash with its top bit
// set, 0 when the cell is empty; its low bits pick the home cell, so the
// array regrows without rehashing a key. Key before value keeps the cells
// of the packet path's three tables at 16, 24 and 32 bytes.
type cell[K comparable, V any] struct {
	key K
	h   uint32
	val V
}

// minCells is the array's size at its first Put.
const minCells = 8

// NewIndex builds an empty index holding at most bound keys. It allocates
// no cells. The index is used in place: embed it, and do not copy it once
// it holds keys.
func NewIndex[K comparable, V any](bound int) Index[K, V] {
	return Index[K, V]{seed: rand.Uint64(), bound: uint32(bound)}
}

// mix turns a caller's hash into the cell hash: the seeded finalizer, top
// bit set so that no key hashes to empty.
func (x *Index[K, V]) mix(h uint64) uint32 {
	return uint32(fmix(h, x.seed)) | 1<<31
}

// fmix is a murmur3 finalizer over h xor seed: a bijection of h for each
// seed, so without the seed a caller's hash is easy to aim.
func fmix(h, seed uint64) uint64 {
	h ^= seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Len returns the number of keys held.
func (x *Index[K, V]) Len() int { return int(x.n) }

// Get returns a pointer to k's value, or nil when k is absent. h must be
// the hash the key was Put with. Get writes nothing.
func (x *Index[K, V]) Get(h uint64, k K) *V {
	if x.n == 0 {
		return nil
	}
	m := x.mix(h)
	mask := uint32(len(x.cells) - 1)
	for i := m & mask; ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.h == m && c.key == k {
			return &c.val
		}
		if c.h == 0 {
			return nil
		}
	}
}

// Put returns a pointer to k's value and reports whether k was added, with
// a zero value, by this call. Adding a key past the bound is the owner's
// bug and panics: every owner checks Len against its bound (and evicts)
// before it adds.
func (x *Index[K, V]) Put(h uint64, k K) (v *V, added bool) {
	m := x.mix(h)
	i := uint32(0)
	if len(x.cells) > 0 {
		mask := uint32(len(x.cells) - 1)
		for i = m & mask; x.cells[i].h != 0; i = (i + 1) & mask {
			if c := &x.cells[i]; c.h == m && c.key == k {
				return &c.val, false
			}
		}
	}
	if x.n == x.bound {
		panic("flowtable: Index.Put past its bound")
	}
	if 4*(x.n+1) > 3*uint32(len(x.cells)) {
		x.grow()
		i = x.vacancy(m)
	}
	c := &x.cells[i]
	c.key, c.h = k, m
	x.n++
	return &c.val, true
}

// vacancy returns the first empty cell of m's probe sequence.
func (x *Index[K, V]) vacancy(m uint32) uint32 {
	mask := uint32(len(x.cells) - 1)
	i := m & mask
	for x.cells[i].h != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the array (or allocates its first) and re-places every key
// from its stored hash.
func (x *Index[K, V]) grow() {
	old := x.cells
	x.cells = make([]cell[K, V], max(minCells, 2*len(old)))
	for i := range old {
		if c := &old[i]; c.h != 0 {
			x.cells[x.vacancy(c.h)] = *c
		}
	}
}

// Delete removes k and reports whether it was present.
func (x *Index[K, V]) Delete(h uint64, k K) bool {
	if x.n == 0 {
		return false
	}
	m := x.mix(h)
	mask := uint32(len(x.cells) - 1)
	for i := m & mask; x.cells[i].h != 0; i = (i + 1) & mask {
		if c := &x.cells[i]; c.h == m && c.key == k {
			x.deleteAt(i)
			return true
		}
	}
	return false
}

// deleteAt empties cell i and shifts the rest of its cluster back: each
// later key whose home lies cyclically at or before the hole moves into
// it, and its old cell becomes the hole. Keys only ever move into cells
// from i on, never past their home, and never across an empty cell.
func (x *Index[K, V]) deleteAt(i uint32) {
	mask := uint32(len(x.cells) - 1)
	for j := (i + 1) & mask; x.cells[j].h != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i when i lies in [home, j).
		if home := x.cells[j].h & mask; (j-home)&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = cell[K, V]{}
	x.n--
}

// Evict samples up to n cells from a rotating hand and deletes the first
// key whose value victim accepts, reporting whether it deleted one. The
// hand moves on by the cells it sampled, so attempts that find no victim
// walk the whole array in ⌈cells/n⌉ calls: a victim anywhere in the table
// is found.
func (x *Index[K, V]) Evict(n int, victim func(v *V) bool) bool {
	if x.n == 0 {
		return false
	}
	mask := uint32(len(x.cells) - 1)
	for ; n > 0; n-- {
		i := x.hand & mask
		x.hand = i + 1
		if c := &x.cells[i]; c.h != 0 && victim(&c.val) {
			x.deleteAt(i)
			return true
		}
	}
	return false
}

// Sweep calls fn once on every key and deletes the keys fn accepts. fn may
// change the value through its pointer and must not call the index.
func (x *Index[K, V]) Sweep(fn func(k K, v *V) (drop bool)) {
	if x.n == 0 {
		return
	}
	// Walk from just past an empty cell, so no cluster wraps past the
	// walk's start: a delete then only shifts keys into the current cell or
	// cells not yet walked, and the current cell is walked again.
	mask := uint32(len(x.cells) - 1)
	end := uint32(0)
	for x.cells[end].h != 0 {
		end++
	}
	for i := (end + 1) & mask; i != end; {
		if c := &x.cells[i]; c.h != 0 && fn(c.key, &c.val) {
			x.deleteAt(i)
			continue
		}
		i = (i + 1) & mask
	}
}

// Clear deletes every key and releases the cells, as a restart that loses
// the table's RAM would.
func (x *Index[K, V]) Clear() {
	x.cells, x.n, x.hand = nil, 0, 0
}
