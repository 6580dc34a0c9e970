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
// the flow, and Lookup requires an exact match. The enforcer derives it from
// counters bumped by policy swaps, signature-database mutations and, per
// stripe of device addresses, device-context changes: one integer comparison
// per hit, no invalidation callbacks. A cell is dead when it has sat idle
// past the TTL, or when its generation is no longer its key's current one:
// it can never answer again. The caller passes its current-generation
// function with each call, the way Lookup takes accept (both are required
// and run under the shard's lock, so neither may call the table), and one
// predicate (fateOf) judges every reclaim: a lookup deletes the dead cell it
// finds — never a newer one it merely misses — and the dead cells of a shard
// leave it in one pass just before its index would double. A pass that
// frees less than ⅛ of the cells lets the index double anyway, so a shard of
// live flows pays one pass per doubling, and a workload whose flows die by
// generation holds about one generation's flows, not its capacity.
//
// # Eviction
//
// A table holds at most capacity flows, perShard in each of its shards;
// each shard's index doubles up to the size that holds its share, so an
// idle table holds no cells. An insert into a full shard samples
// evictSamples live cells from a rotating hand and takes the least recently
// used: dead, it is reclaimed and admits the key; otherwise the admission
// guard (see shard.refuse) may refuse the key, else it is evicted. Every
// shard of every table shares one seed drawn per process, so the cells a
// sample visits follow from the inserted keys alone, and a run repeated in
// one process evicts the same flows. The TTL is an idle timeout in virtual
// time from the entry's last use. A value that lapses for the caller's own
// reasons (the enforcer's time-of-day edges) is the caller's to check.
// Sweep frees the dead cells no insert passes over.
//
// # Sharing
//
// A flow's shard follows the gateway's worker split (see Key.Shard): at
// 1, 2, 4 or 8 burst workers, each worker's flows live in shards no other
// worker touches. Each shard keeps its own counters beside its lock, and a
// scrape sums them, so a hit writes the shard's lock word, its hit count
// and the cell's recency, all lines its own worker owns; the table header
// (clock, TTL) is only read on the packet path. Counters stay atomic:
// Process, facade calls, Sweep and Purge may still reach any shard.
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

// Shard returns the index of the shard that holds k's flow. Its top
// pairBits bits are the top bits of the endpoint pair's hash
// (transport.Tuple.PairHash), the bits the gateway splits a burst over its
// workers by; its low bits come from the whole key's hash, so one
// device–server pair still spreads over shards>>pairBits shards.
func (k Key) Shard() int { return shardOf(k, k.hash()) }

// shardOf is Shard for a key whose hash h the caller holds.
func shardOf(k Key, h uint64) int {
	return int(k.PairHash()>>(64-pairBits))*(shards>>pairBits) | int(h%(shards>>pairBits))
}

// The table's shape, the gateway's one: at most capacity live flows in
// shards lock stripes (a power of two), perShard flows to a stripe, and a
// ring of missRing recent refusals per stripe for the admission guard. The
// stripes fall into 1<<pairBits groups by endpoint pair, one per worker at
// up to that many burst workers.
const (
	capacity = 65536
	shards   = 64
	pairBits = 3
	perShard = capacity / shards
	missRing = 64
)

// defaultTTL is the idle timeout of a Config without one: keep-alive flows
// stay warm.
const defaultTTL = time.Minute

// Config sets up a table.
type Config struct {
	// Clock supplies virtual time for the TTL and LRU recency. Required:
	// New panics without one.
	Clock Clock
	// TTL is the idle timeout: an entry expires this much virtual time after
	// its last use (insert or hit). Zero or less selects one minute.
	TTL time.Duration
}

// entry is the table's part of a flow's cell. used (recency and TTL
// origin) is atomic, so hits under the read lock can refresh it.
type entry[V any] struct {
	gen  uint64
	used int64
	val  V
}

type shard[V any] struct {
	mu sync.RWMutex
	// n is the shard's share of the table's counts, beside its lock: a hit
	// writes the lock word and its count in one cache line.
	n     counters
	flows Index[Key, entry[V]]
	// missRing holds hashes of keys recently refused admission (0 = empty),
	// allocated by the shard's first refusal.
	missRing []uint64
	missPos  int
	// pad makes a shard whole cache lines, so neighbouring shards share
	// none.
	_ [24]byte
}

// counters are one shard's counts; RegisterMetrics sums them over the
// shards. live changes under the shard's write lock, so at rest it is the
// shard's length.
type counters struct {
	live atomic.Int64

	hits           atomic.Uint64
	misses         atomic.Uint64
	inserts        atomic.Uint64
	evictions      atomic.Uint64
	stale          atomic.Uint64
	expired        atomic.Uint64
	admissionDrops atomic.Uint64
}

// refuse is the admission guard at a full shard, asked only when an
// insert would evict a live flow, so that a unique-flow flood (a SYN flood
// of crafted tags) cannot churn established flows out. A key refused
// recently is admitted, consuming its ring slot; a first-seen key is noted
// in the ring, overwriting the oldest slot, and refused. One-packet flood
// flows never take a cell; real flows are admitted on their second miss.
// Caller holds the write lock.
func (s *shard[V]) refuse(h uint64) bool {
	if s.missRing == nil {
		s.missRing = make([]uint64, missRing)
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
	shards [shards]shard[V]
	ttl    time.Duration
	clock  Clock
}

// New builds a table. It panics when cfg has no Clock.
func New[V any](cfg Config) *Table[V] {
	if cfg.Clock == nil {
		panic("flowtable: Config.Clock is required")
	}
	t := &Table[V]{ttl: cfg.TTL, clock: cfg.Clock}
	if t.ttl <= 0 {
		t.ttl = defaultTTL
	}
	for i := range t.shards {
		t.shards[i].flows = Index[Key, entry[V]]{seed: tableSeed, bound: perShard}
	}
	return t
}

// idle reports whether an entry last used at `used` has outlived the TTL.
func (t *Table[V]) idle(now time.Duration, used int64) bool {
	return now-time.Duration(used) > t.ttl
}

// fate is what a cell can still do: answer, or nothing, and why not.
type fate uint8

const (
	// alive: the cell may answer a lookup.
	alive fate = iota
	// stale: its generation is no longer its key's current one.
	stale
	// expired: it sat idle past the TTL.
	expired
)

// fateOf is the table's one definition of a dead cell, the test behind
// every reclaim: e, k's entry, is dead at now when it has sat idle past the
// TTL, or when its generation is not current(k) — Lookup hits on equality
// only, so it can never answer again.
func (t *Table[V]) fateOf(now time.Duration, k Key, e *entry[V], current func(Key) uint64) fate {
	switch {
	case t.idle(now, atomic.LoadInt64(&e.used)):
		return expired
	case e.gen != current(k):
		return stale
	}
	return alive
}

// dropped counts one cell deleted for its fate: an alive one was evicted.
// Caller holds s.mu.
func (s *shard[V]) dropped(f fate) {
	s.n.live.Add(-1)
	switch f {
	case alive:
		s.n.evictions.Add(1)
	case stale:
		s.n.stale.Add(1)
	default:
		s.n.expired.Add(1)
	}
}

// reap judges k's cell e of shard s for a reclaim: it reports whether e is
// dead, and counts it as dropped if so. The caller deletes it.
func (t *Table[V]) reap(s *shard[V], now time.Duration, k Key, e *entry[V], current func(Key) uint64) bool {
	f := t.fateOf(now, k, e, current)
	if f != alive {
		s.dropped(f)
	}
	return f != alive
}

// Lookup returns the cached value for k if it exists, carries the caller's
// generation, has not sat idle past the TTL, and accept (run under the
// shard's read lock) takes it. Anything else is a miss. A cell that missed
// for its generation or its age is deleted if it is dead (see fateOf):
// current reports k's current generation, so a caller holding an older
// generation than the cell's misses without deleting it. A cell accept
// refuses stays for the caller's Insert to overwrite.
func (t *Table[V]) Lookup(k Key, gen uint64, current func(Key) uint64, accept func(v *V) bool) (V, bool) {
	h := k.hash()
	s := &t.shards[shardOf(k, h)]
	now := t.clock.Now()
	dead := false
	s.mu.RLock()
	if e := s.flows.Get(h, k); e != nil {
		used := atomic.LoadInt64(&e.used)
		if e.gen == gen && !t.idle(now, used) {
			if accept(&e.val) {
				// Refresh recency, but skip the store when the timestamp has
				// not moved: repeated hits on a hot flow then leave the cell's
				// cache line clean for the other cores.
				if used != int64(now) {
					atomic.StoreInt64(&e.used, int64(now))
				}
				val := e.val
				s.n.hits.Add(1)
				s.mu.RUnlock()
				return val, true
			}
		} else {
			dead = true
		}
	}
	s.n.misses.Add(1)
	s.mu.RUnlock()
	if dead {
		t.dropDead(s, h, k, current, now)
	}
	var zero V
	return zero, false
}

// dropDead deletes k's cell if it is dead under the write lock (it may have
// been rewritten since the read lock was dropped), and counts why.
func (t *Table[V]) dropDead(s *shard[V], h uint64, k Key, current func(Key) uint64, now time.Duration) {
	s.mu.Lock()
	if e := s.flows.Get(h, k); e != nil && t.reap(s, now, k, e, current) {
		s.flows.Delete(h, k)
	}
	s.mu.Unlock()
}

// Insert caches v for k under generation gen, making room as the package
// comment's Eviction describes. current reports each key's current
// generation, so that cells stamped otherwise count as dead (see fateOf).
func (t *Table[V]) Insert(k Key, gen uint64, current func(Key) uint64, v V) {
	h := k.hash()
	s := &t.shards[shardOf(k, h)]
	now := t.clock.Now()
	s.mu.Lock()
	// A key already held (re-insert after invalidation or a refused
	// accept) is overwritten in place. Below capacity that is one probe; a
	// full shard looks before it makes room, since making room deletes.
	if s.flows.Len() >= perShard && s.flows.Get(h, k) == nil && !t.makeRoom(s, h, now, current) {
		s.n.admissionDrops.Add(1)
		s.mu.Unlock()
		return
	}
	e, added := s.flows.PutReclaim(h, k, func(k Key, e *entry[V]) bool {
		return t.reap(s, now, k, e, current)
	})
	e.gen, e.used, e.val = gen, int64(now), v
	if added {
		s.n.live.Add(1)
	}
	s.n.inserts.Add(1)
	s.mu.Unlock()
}

// makeRoom deletes one cell of a full shard for the key hashed h, or
// reports false when the admission guard refuses the key. The least
// recently used cell of the sample goes: if it is dead it admits the key at
// once, and only evicting a live flow consults the guard. Caller holds
// s.mu.
func (t *Table[V]) makeRoom(s *shard[V], h uint64, now time.Duration, current func(Key) uint64) bool {
	i := leastUsed(&s.flows)
	c := &s.flows.cells[i]
	f := t.fateOf(now, c.key, &c.val, current)
	if f == alive && s.refuse(h) {
		return false
	}
	s.flows.deleteAt(i)
	s.dropped(f)
	return true
}

// leastUsed samples evictSamples entries from x's rotating hand, skipping
// empty cells (at most one lap), and returns the cell of the least recently
// used of them. x holds an entry.
func leastUsed[V any](x *Index[Key, entry[V]]) (cell uint32) {
	cells, hand := x.cells, x.hand
	mask := uint32(len(cells) - 1)
	used := int64(math.MaxInt64)
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
	return cell
}

// Delete removes one flow (e.g. on connection teardown) and reports
// whether it was present.
func (t *Table[V]) Delete(k Key) bool {
	h := k.hash()
	s := &t.shards[shardOf(k, h)]
	s.mu.Lock()
	ok := s.flows.Delete(h, k)
	if ok {
		s.n.live.Add(-1)
	}
	s.mu.Unlock()
	return ok
}

// Sweep deletes every dead cell (see fateOf) and returns how many. Inserts
// already clear a shard's dead cells before its index doubles; Sweep frees
// the rest, such as those of a shard no insert reaches any more. Each shard
// is locked on its own, so traffic stalls for one shard's walk.
func (t *Table[V]) Sweep(current func(Key) uint64) int {
	now := t.clock.Now()
	freed := 0
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		s.flows.Sweep(func(k Key, e *entry[V]) bool {
			if t.reap(s, now, k, e, current) {
				freed++
				return true
			}
			return false
		})
		s.mu.Unlock()
	}
	return freed
}

// Purge empties the table and releases its memory, as a restart that
// loses the gateway's RAM would (entries are not counted as evictions).
func (t *Table[V]) Purge() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.n.live.Add(-int64(s.flows.Len()))
		s.flows.Clear()
		s.missRing, s.missPos = nil, 0
		s.mu.Unlock()
	}
}
