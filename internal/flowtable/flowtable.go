// Package flowtable implements the gateway's per-flow verdict cache: a
// sharded, lock-striped table that remembers a flow's enforcement outcome,
// so every later packet of the connection skips tag decoding, stack
// decoding and policy evaluation (the paper's §VI-D argument: every packet
// of a connection carries the same tag).
//
// # Keying
//
// A flow's Key is its 5-tuple — IPv4 endpoints, the ports the enforcer
// peeks from the TCP/UDP header (zero for non-first fragments), the
// protocol — and a 64-bit digest of its raw tag bytes. The key selects a
// cell; it proves nothing about the tag: Digest is a plain FNV fold of
// bytes the device chooses (§VII), so two tags can be made to share a key.
// Lookup therefore hands each candidate to the caller's accept function,
// and the enforcer compares the packet's tag bytes verbatim with the tag
// interned for the flow (see Intern): a crafted collision costs a miss and
// an overwrite, never a borrowed verdict. Each shard's Index seeds its
// probe start, so crafted keys cannot build long probes either.
//
// # Cell layout
//
// A flow is one cell of its shard's Index: the 24-byte Key, the 4-byte cell
// hash, and an entry of generation, last use and the caller's value. The
// enforcer's value is 16 bytes of handles and verdict, so one flow is one
// 64-byte, pointer-free cell: the garbage collector never scans the table,
// and a hit reads one cache line of it. An index is 3/8 to 3/4 full, so the
// table holds 85 to 171 bytes per live flow.
//
// # Invalidation
//
// Every entry records the generation the caller observed when it evaluated
// the flow, and Lookup requires an exact match. The enforcer derives it
// from counters bumped by policy swaps, signature-database mutations and,
// per stripe of device addresses, device-context changes: one integer
// comparison per lookup, no callbacks, no sweeps. Stale entries are
// deleted on discovery and re-evaluated as misses.
//
// # Eviction
//
// Capacity is split evenly across Shards; each shard's index doubles up to
// its share, so an idle table holds no cells. An insert into a full shard
// samples evictSamples live cells from a rotating hand and takes the least
// recently used: idle past the TTL, it is reclaimed and admits the key;
// otherwise the admission guard (Config.MissRing) may refuse the key, else
// it is evicted. Every shard of every table shares one seed drawn per
// process, so the cells a sample visits follow from the inserted keys
// alone, and a run repeated in one process evicts the same flows. With a
// Clock the TTL is an idle timeout in virtual time from the entry's last
// use. A value that lapses for the caller's own reasons (the enforcer's
// time-of-day edges) is the caller's to check.
//
// Counters are atomic; Lookup takes one shard RLock, so readers of
// different flows share nothing but their shard stripe.
package flowtable

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/transport"
)

// Clock supplies virtual time for TTL expiry and LRU recency.
// netsim.Clock satisfies it.
type Clock interface {
	Now() time.Duration
}

// MaxTagBytes is the largest tag payload a flow can carry: the 40-byte
// IP_OPTIONS budget minus the option's type and length octets.
const MaxTagBytes = 38

// Key identifies one flow at the enforcement point: 24 bytes, no pointer.
type Key struct {
	// Tuple is the packet's IPv4 endpoints and peeked transport ports.
	transport.Tuple
	// Proto is the IPv4 protocol number.
	Proto byte
	// Digest is the raw tag bytes' Digest; it proves nothing (see Keying).
	Digest uint64
}

// SetTag sets the key's digest of the raw tag bytes. It reports false when
// the payload exceeds MaxTagBytes: such a packet must bypass the cache.
func (k *Key) SetTag(b []byte) bool {
	if len(b) > MaxTagBytes {
		return false
	}
	k.Digest = Digest(b)
	return true
}

// fnvOffset64 and fnvPrime64 are the FNV-64 parameters.
const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// Digest computes a 64-bit digest of a raw tag payload, folding eight
// bytes per FNV round: a handful of multiplies per packet.
func Digest(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= fnvPrime64
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i := len(b) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(b[i])
		}
		// Fold the tail length in so "0x00" and "0x00 0x00" differ.
		h ^= tail | uint64(len(b))<<56
		h *= fnvPrime64
	}
	return h
}

// hash mixes the whole key into the 64-bit value that selects the shard
// and keys the shard index. Digest carries most of the entropy; the
// endpoints and ports separate flows with identical tags.
func (k Key) hash() uint64 {
	h := k.Digest
	h ^= uint64(k.Src)
	h ^= uint64(k.Dst) << 32
	h ^= uint64(k.SrcPort)<<16 | uint64(k.DstPort) | uint64(k.Proto)<<32
	// Final avalanche (splitmix64 tail) so low bits depend on all input.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// Config sizes a table.
type Config struct {
	// Capacity bounds the live flows across all shards (default 65536).
	Capacity int
	// Shards is the number of lock stripes, a power of two (default 64).
	Shards int
	// TTL is the idle timeout: an entry expires this much virtual time after
	// its last use (insert or hit). Zero (or a nil Clock) disables expiry.
	TTL time.Duration
	// Clock supplies virtual time; nil falls back to a tick count (no TTL).
	Clock Clock
	// MissRing sizes the per-shard negative cache guarding admission under
	// capacity pressure (0 disables it), so that a unique-flow flood (a SYN
	// flood of crafted tags) cannot churn established flows out of a full
	// shard. The guard decides only when the insert would evict a live
	// flow: a key must then have been refused once before, and the first
	// attempt just notes its hash in a small ring. One-packet flood flows
	// never take a cell; real flows are admitted on their second miss.
	MissRing int
}

// entry is the table's part of a flow's cell. used (recency and TTL
// origin) is atomic, so hits under the read lock can refresh it.
type entry[V any] struct {
	gen  uint64
	used int64
	val  V
}

type shard[V any] struct {
	mu    sync.RWMutex
	flows Index[Key, entry[V]]
	// missRing holds hashes of keys recently refused admission (0 = empty).
	missRing []uint64
	missPos  int
	// pad keeps neighbouring shard locks off one cache line.
	_ [40]byte
}

// refuse is the admission guard at a full shard. A key refused recently is
// admitted, consuming its ring slot; a first-seen key is noted in the ring
// (allocated by the shard's first refusal), overwriting the oldest slot,
// and refused. A zero ring refuses nothing. Caller holds the write lock.
func (s *shard[V]) refuse(h uint64, ring int) bool {
	if ring == 0 {
		return false
	}
	if s.missRing == nil {
		s.missRing = make([]uint64, ring)
	}
	for i, v := range s.missRing {
		if v == h {
			s.missRing[i] = 0
			return false
		}
	}
	s.missRing[s.missPos] = h
	s.missPos = (s.missPos + 1) % len(s.missRing)
	return true
}

// evictSamples bounds the eviction scan: the least recently used of this
// many live entries is reclaimed or evicted (approximate LRU).
const evictSamples = 8

// tableSeed seeds the index of every shard of every table (see Eviction).
var tableSeed = rand.Uint64()

// Table is a sharded per-flow cache of V (the enforcer caches its verdict
// and intern handles). The zero value is not usable; call New.
type Table[V any] struct {
	shards      []shard[V]
	mask        uint64
	ttl         time.Duration
	clock       Clock
	perShardCap int
	missRing    int

	tick atomic.Int64 // recency source when clock is nil
	live atomic.Int64 // flows held, across all shards

	hits           atomic.Uint64
	misses         atomic.Uint64
	inserts        atomic.Uint64
	evictions      atomic.Uint64
	stale          atomic.Uint64
	expired        atomic.Uint64
	admissionDrops atomic.Uint64
}

// New builds a table.
func New[V any](cfg Config) *Table[V] {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 65536
	}
	n := cfg.Shards
	if n <= 0 {
		n = 64
	}
	// Round up to a power of two for mask indexing.
	p := 1
	for p < n {
		p <<= 1
	}
	per := max(capacity/p, 1)
	t := &Table[V]{
		shards:      make([]shard[V], p),
		mask:        uint64(p - 1),
		ttl:         cfg.TTL,
		clock:       cfg.Clock,
		perShardCap: per,
		missRing:    max(cfg.MissRing, 0),
	}
	if t.clock == nil {
		t.ttl = 0 // TTL needs a time source
	}
	for i := range t.shards {
		t.shards[i].flows = Index[Key, entry[V]]{seed: tableSeed, bound: uint32(per)}
	}
	return t
}

// now is the insert-side timestamp: virtual time, else the next tick.
func (t *Table[V]) now() time.Duration {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Duration(t.tick.Add(1))
}

// readNow is the lookup-side timestamp. It never advances the tick, so a
// hit does no shared read-modify-write; +1 orders it after its insert.
func (t *Table[V]) readNow() time.Duration {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Duration(t.tick.Load() + 1)
}

// idle reports whether an entry last used at `used` has outlived the TTL.
func (t *Table[V]) idle(now time.Duration, used int64) bool {
	return t.ttl > 0 && now-time.Duration(used) > t.ttl
}

// Lookup returns the cached value for k if it exists, carries the caller's
// generation, has not sat idle past the TTL, and accept (nil accepts all;
// run under the shard's read lock) takes it. A stale or expired entry is
// deleted; an entry accept refuses stays for the caller's Insert to
// overwrite. Either is a miss.
func (t *Table[V]) Lookup(k Key, gen uint64, accept func(v *V) bool) (V, bool) {
	h := k.hash()
	s := &t.shards[h&t.mask]
	now := t.readNow()
	dead := false
	s.mu.RLock()
	if e := s.flows.Get(h, k); e != nil {
		used := atomic.LoadInt64(&e.used)
		if e.gen == gen && !t.idle(now, used) {
			if accept == nil || accept(&e.val) {
				// Refresh recency, but skip the store when the timestamp has
				// not moved: repeated hits on a hot flow then leave the cell's
				// cache line clean for the other cores.
				if used != int64(now) {
					atomic.StoreInt64(&e.used, int64(now))
				}
				val := e.val
				s.mu.RUnlock()
				t.hits.Add(1)
				return val, true
			}
		} else {
			dead = true
		}
	}
	s.mu.RUnlock()
	if dead {
		t.dropDead(s, h, k, gen, now)
	}
	t.misses.Add(1)
	var zero V
	return zero, false
}

// dropDead deletes k's entry if it is still stale or expired under the
// write lock (it may have been rewritten since the read lock was dropped),
// and counts why.
func (t *Table[V]) dropDead(s *shard[V], h uint64, k Key, gen uint64, now time.Duration) {
	s.mu.Lock()
	e := s.flows.Get(h, k)
	stale := e != nil && e.gen != gen
	if e != nil && (stale || t.idle(now, atomic.LoadInt64(&e.used))) {
		s.flows.Delete(h, k)
		t.live.Add(-1)
		if stale {
			t.stale.Add(1)
		} else {
			t.expired.Add(1)
		}
	}
	s.mu.Unlock()
}

// Insert caches v for k under the given generation, making room in a
// full shard as the package comment's Eviction describes.
func (t *Table[V]) Insert(k Key, gen uint64, v V) {
	h := k.hash()
	s := &t.shards[h&t.mask]
	now := t.now()
	s.mu.Lock()
	// A key already held (re-insert after invalidation or a refused
	// accept) is overwritten in place. Below capacity that is one probe; a
	// full shard looks before it makes room, since making room deletes.
	if s.flows.Len() >= t.perShardCap && s.flows.Get(h, k) == nil && !t.makeRoom(s, h, now) {
		s.mu.Unlock()
		t.admissionDrops.Add(1)
		return
	}
	e, added := s.flows.Put(h, k)
	e.gen, e.used, e.val = gen, int64(now), v
	s.mu.Unlock()
	if added {
		t.live.Add(1)
	}
	t.inserts.Add(1)
}

// makeRoom deletes one entry of a full shard for the key hashed h, or
// reports false when the admission guard refuses the key. Without a TTL
// nothing can have expired, so the guard decides before the sample is paid
// for. Caller holds s.mu.
func (t *Table[V]) makeRoom(s *shard[V], h uint64, now time.Duration) bool {
	if t.ttl == 0 && s.refuse(h, t.missRing) {
		return false
	}
	i, lru := leastUsed(&s.flows)
	expired := t.idle(now, lru)
	if !expired && t.ttl > 0 && s.refuse(h, t.missRing) {
		return false
	}
	s.flows.deleteAt(i)
	t.live.Add(-1)
	if expired {
		t.expired.Add(1)
	} else {
		t.evictions.Add(1)
	}
	return true
}

// leastUsed samples evictSamples entries from x's rotating hand, skipping
// empty cells (at most one lap), and returns the cell of the least recently
// used of them and its last use. x holds an entry.
func leastUsed[V any](x *Index[Key, entry[V]]) (cell uint32, used int64) {
	cells, hand := x.cells, x.hand
	mask := uint32(len(cells) - 1)
	used = math.MaxInt64
	for n, lap := 0, len(cells); n < evictSamples && lap > 0; lap-- {
		// Branch-free on whether the cell is empty: at the index's load
		// that test is a coin flip.
		i := hand & mask
		hand++
		c := &cells[i]
		u, live := c.val.used, int(c.h>>31)
		if live == 0 {
			u = math.MaxInt64
		}
		if u < used {
			cell, used = i, u
		}
		n += live
	}
	x.hand = hand
	return cell, used
}

// Delete removes one flow (e.g. on connection teardown) and reports
// whether it was present.
func (t *Table[V]) Delete(k Key) bool {
	h := k.hash()
	s := &t.shards[h&t.mask]
	s.mu.Lock()
	ok := s.flows.Delete(h, k)
	s.mu.Unlock()
	if ok {
		t.live.Add(-1)
	}
	return ok
}

// Sweep deletes the entries idle past the TTL and returns how many. Expiry
// is otherwise lazy, so a flow whose teardown was lost would pin its entry
// until probed; a periodic Sweep bounds that leak. A no-op without a TTL.
// Each shard is locked on its own, so traffic stalls for one shard's walk.
func (t *Table[V]) Sweep() int {
	if t.ttl <= 0 {
		return 0
	}
	now := t.readNow()
	freed := 0
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		s.flows.Sweep(func(_ Key, e *entry[V]) bool {
			if t.idle(now, e.used) {
				freed++
				return true
			}
			return false
		})
		s.mu.Unlock()
	}
	if freed > 0 {
		t.live.Add(-int64(freed))
		t.expired.Add(uint64(freed))
	}
	return freed
}

// Purge empties the table and releases its memory, as a restart that
// loses the gateway's RAM would (entries are not counted as evictions).
func (t *Table[V]) Purge() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		t.live.Add(-int64(s.flows.Len()))
		s.flows.Clear()
		s.missRing, s.missPos = nil, 0
		s.mu.Unlock()
	}
}

// Len returns the number of live entries: one atomic load, no shard lock.
func (t *Table[V]) Len() int { return int(t.live.Load()) }
