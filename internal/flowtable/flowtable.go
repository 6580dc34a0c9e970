// Package flowtable implements the gateway's per-flow verdict cache: a
// sharded, lock-striped table that remembers the enforcement outcome of a
// flow so that every subsequent packet of the same connection skips tag
// decoding, stack decoding, and policy evaluation entirely (the paper's
// §VI-D keep-alive argument — every packet of a connection carries the
// same contextual tag, so one evaluation answers for all of them).
//
// # Keying
//
// A flow is identified by Key: the full 5-tuple — IPv4 endpoints (src, dst),
// the transport ports the enforcer peeks out of the TCP/UDP header (zero for
// non-first fragments and malformed headers), the protocol — and the raw tag
// bytes themselves — which begin with the app's truncated hash — pinned
// verbatim in the key, with a 64-bit digest of them for indexing.
// Internally each shard's Index maps a 64-bit mix of the whole Key to the
// flow's slot, and every probe verifies the full stored Key — including
// the exact tag bytes — so a digest or hash collision between different
// flows can only cause an extra miss or an overwrite (cache churn), never
// a wrong verdict. This is deliberate: tag bytes are attacker-influenced
// (the paper's tag-replay discussion, §VII), and a cache keyed on a
// non-cryptographic digest alone would let a crafted collision borrow a
// benign flow's cached verdict. Nor can crafted keys slow the probe: the
// mix is unseeded, but each Index seeds its own probe start (see Index),
// so keys aimed at one cell scatter.
//
// # Invalidation
//
// Entries never serve stale policy: every entry records the generation
// number the caller observed when it evaluated the flow, and Lookup
// requires an exact generation match. The enforcer derives its generation
// from atomic counters bumped by policy.Engine.SetRules, analyzer.Database
// mutations and, per stripe of device addresses, devctx.Source changes: a
// reconfiguration or a newly provisioned app invalidates every cached
// verdict, a device's context change that device's, at the cost of one
// integer comparison per lookup — no callbacks, no sweeps, no locks.
// Stale entries are released on discovery and re-evaluated as misses.
//
// # Eviction
//
// The table is bounded: Capacity is split evenly across Shards. A shard
// keeps its entries by value in one slab with a free list, so a fill
// allocates nothing and a slot released by invalidation, expiry or
// teardown is the next one claimed; its index and slab grow by doubling
// up to the shard's capacity, so an idle table holds no cells. An insert
// into a full shard samples evictSamples slots from a rotating hand over
// the slab, reclaims the expired ones, else (when the admission guard
// lets the key in, see Config.MissRing) evicts the least recently used of
// the sample (approximate LRU: O(1), deterministic, and a hand that walks
// the whole slab in turn). With a Clock, the TTL is
// an idle timeout in virtual time counted from the entry's last use: a flow
// that keeps sending stays cached, one whose teardown was lost ages out
// without capacity pressure. A value that lapses for the caller's own
// reasons (the enforcer's time-of-day edges) is the caller's to check.
//
// All counters are atomic; Lookup takes only one shard RLock, so parallel
// readers on different flows share nothing but their shard stripe.
package flowtable

import (
	"encoding/binary"
	"math"
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

// MaxTagBytes is the largest tag payload a Key can pin: the 40-byte
// IP_OPTIONS budget minus the option's type and length octets. Tags that
// somehow exceed it are uncacheable (see SetTag).
const MaxTagBytes = 38

// Key identifies one flow at the enforcement point. It holds no pointer.
type Key struct {
	// Tuple is the packet's flow identity: IPv4 endpoints (a packet with
	// any other address family bypasses the cache) and the transport ports
	// peeked from its TCP/UDP header, zero when the payload carries no
	// transport header (non-first fragments, malformed headers).
	transport.Tuple
	// Proto is the IPv4 protocol number.
	Proto byte
	// TagLen and Tag pin the exact raw tag bytes (app truncated hash,
	// index sequence, flags): entry verification
	// compares them verbatim, so no digest collision — accidental or
	// crafted — can ever serve another flow's verdict.
	TagLen uint8
	Tag    [MaxTagBytes]byte
	// Digest is a 64-bit digest of the raw tag bytes (see Digest); it
	// only steers shard selection and the shard index.
	Digest uint64
}

// SetTag pins the raw tag bytes and their digest into the key. It
// reports false when the payload exceeds MaxTagBytes (no legal IPv4
// option can carry that; such a packet must bypass the cache). The
// unused tail of Tag is zeroed, so a Key reused across packets compares
// equal to a freshly built key for the same flow.
func (k *Key) SetTag(b []byte) bool {
	if len(b) > MaxTagBytes {
		return false
	}
	k.TagLen = uint8(len(b))
	n := copy(k.Tag[:], b)
	clear(k.Tag[n:])
	k.Digest = Digest(b)
	return true
}

// fnvPrime64 and fnvOffset64 are the FNV-64 parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest computes a 64-bit digest of a raw tag payload, folding eight
// bytes per FNV round (tags are ≤38 bytes, so this is a handful of
// multiplies on the per-packet path). The tag bytes fully determine the
// decoded (app, index sequence, flags) triple, so hashing them keys the
// verdict without decoding anything.
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
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default 64).
	Shards int
	// TTL is the idle timeout: an entry expires this much virtual time after
	// its last use (insert or hit). Zero (or a nil Clock) disables expiry.
	TTL time.Duration
	// Clock supplies virtual time for TTL and recency; nil falls back to a
	// monotonic tick counter (recency only, no TTL).
	Clock Clock
	// MissRing sizes the per-shard negative cache guarding admission under
	// capacity pressure (0 disables it). A unique-flow flood — a SYN flood
	// of crafted tags is the worst case — otherwise turns every insert
	// into an eviction sample plus a slot write on a full shard (~0.25 µs
	// of table work per miss, BenchmarkFlowMissFlood) and, worse, churns
	// established flows out of the cache. The guard only decides when a
	// full shard would have to evict a live flow: an insert that finds an
	// idle-expired slot in its eviction sample reclaims it and is admitted
	// (a table without a TTL has nothing to reclaim and consults the guard
	// first, before paying for a sample). Otherwise the key must be one
	// recently refused once: the first attempt only notes its hash in a
	// small ring and returns, evicting nothing, so one-packet flood flows
	// never allocate an entry, never evict a live flow, and pay a ring
	// scan instead of the eviction path. Real flows pay the full pipeline
	// for one extra packet and are admitted on their second miss. Shards
	// below capacity admit immediately.
	MissRing int
}

// slot is one cell of a shard's slab: a cached flow, or a link in the free
// list. lastUsed (LRU recency and idle-TTL origin) is atomic so hits under the
// shard RLock can refresh it without a write lock; the other fields change
// only under the write lock.
type slot[V any] struct {
	key      Key
	val      V
	h        uint64
	gen      uint64
	lastUsed atomic.Int64
	// live marks a slot that holds a flow. A free slot's next is the rest
	// of the free list (slot index + 1; 0 ends it).
	live bool
	next uint32
}

type shard[V any] struct {
	mu sync.RWMutex
	// index maps the full 64-bit Key.hash() to the flow's slot; slot.key
	// resolves collisions (verified on every probe). Pointer-free, so the
	// garbage collector never scans it.
	index Index[uint64, uint32]
	// slots holds the shard's entries by value; a released slot goes on the
	// free list and is the next one claimed, so a fill allocates nothing.
	slots []slot[V]
	free  uint32 // head of the free list: slot index + 1, 0 = empty
	hand  uint32 // where the next eviction sample starts
	// missRing is the shard's negative cache: hashes of keys recently
	// refused admission under capacity pressure (0 = empty slot). A key
	// found here on its next insert attempt is admitted — the doorkeeper
	// pattern: one-packet flood flows never get past the ring.
	missRing []uint64
	missPos  int
	// pad keeps neighbouring shard locks off one cache line.
	_ [40]byte
}

// refuse is the admission guard at a full shard. A key refused recently is
// admitted — its ring slot is consumed, so each noted miss admits at most
// one insert; a first-seen key is noted in the ring of size ring (allocated
// by the shard's first refusal), overwriting the oldest slot, and refused.
// A zero ring refuses nothing. Caller holds the shard's write lock.
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

// evictSamples bounds the eviction scan: reclaim expired entries among a
// sample of slots, else evict the least recently used of the sample
// (approximate LRU).
const evictSamples = 8

// Table is a sharded per-flow cache of V (the enforcer caches its Result).
// The zero value is not usable; call New.
type Table[V any] struct {
	shards      []shard[V]
	mask        uint64
	ttl         time.Duration
	clock       Clock
	perShardCap int
	missRing    int

	tick atomic.Int64 // recency source when clock is nil
	live atomic.Int64 // slots holding a flow, across all shards

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
		t.shards[i].index = NewIndex[uint64, uint32](per)
	}
	return t
}

// now returns the insert-side recency/TTL timestamp: virtual time when a
// clock is configured, otherwise the next monotonic tick.
func (t *Table[V]) now() time.Duration {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Duration(t.tick.Add(1))
}

// readNow is the lookup-side timestamp: it never advances the tick, so
// the hot hit path performs no shared read-modify-write (ticks move on
// inserts; +1 orders hits after the insert that produced the entry).
func (t *Table[V]) readNow() time.Duration {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Duration(t.tick.Load() + 1)
}

// claim returns a free slot of s and counts it live: the head of the free
// list, else the next cell of the slab, which doubles until it spans the
// shard's capacity. Caller holds s.mu with the shard below capacity.
func (t *Table[V]) claim(s *shard[V]) uint32 {
	t.live.Add(1)
	if s.free != 0 {
		i := s.free - 1
		s.free = s.slots[i].next
		return i
	}
	i := len(s.slots)
	if i == cap(s.slots) {
		grown := make([]slot[V], i, min(max(2*i, evictSamples), t.perShardCap))
		copy(grown, s.slots)
		s.slots = grown
	}
	s.slots = s.slots[:i+1]
	return uint32(i)
}

// release unmaps slot i of s and puts it on the free list; the value is
// zeroed so a freed slot pins nothing. Caller holds s.mu.
func (t *Table[V]) release(s *shard[V], i uint32) {
	e := &s.slots[i]
	s.index.Delete(e.h, e.h)
	var zero V
	e.val = zero
	e.live = false
	e.next = s.free
	s.free = i + 1
	t.live.Add(-1)
}

// idle reports whether an entry last used at `used` has outlived the TTL.
func (t *Table[V]) idle(now time.Duration, used int64) bool {
	return t.ttl > 0 && now-time.Duration(used) > t.ttl
}

// Lookup returns the cached value for k if it exists, carries the caller's
// current generation, and has not sat idle past the TTL. A stale or expired
// entry is released and reported as a miss, so the caller re-evaluates and
// re-inserts under the current generation.
func (t *Table[V]) Lookup(k Key, gen uint64) (V, bool) {
	h := k.hash()
	s := &t.shards[h&t.mask]
	now := t.readNow()
	stale := false
	s.mu.RLock()
	var i uint32
	p := s.index.Get(h, h)
	ok := p != nil
	if ok {
		i = *p
		e := &s.slots[i]
		if e.key != k {
			ok = false
		} else if used := e.lastUsed.Load(); e.gen == gen && !t.idle(now, used) {
			// Refresh recency, but skip the store when the timestamp has not
			// moved: repeated hits on a hot flow then leave the entry's cache
			// line clean for the other cores.
			if used != int64(now) {
				e.lastUsed.Store(int64(now))
			}
			val := e.val
			s.mu.RUnlock()
			t.hits.Add(1)
			return val, true
		} else {
			stale = e.gen != gen
		}
	}
	s.mu.RUnlock()
	if ok {
		// Dead entry: release it so the shard doesn't pin invalidated flows
		// — unless the slot was rewritten between the two locks.
		s.mu.Lock()
		if p := s.index.Get(h, h); p != nil && *p == i {
			if e := &s.slots[i]; e.key == k && (e.gen != gen || t.idle(now, e.lastUsed.Load())) {
				t.release(s, i)
			}
		}
		s.mu.Unlock()
		if stale {
			t.stale.Add(1)
		} else {
			t.expired.Add(1)
		}
	}
	t.misses.Add(1)
	var zero V
	return zero, false
}

// Insert caches v for k under the given generation. When the stripe is
// full, expired entries are reclaimed first; otherwise the admission guard
// may refuse the key (see Config.MissRing), and else the least recently
// used of a small sample is evicted.
func (t *Table[V]) Insert(k Key, gen uint64, v V) {
	h := k.hash()
	s := &t.shards[h&t.mask]
	now := t.now()
	s.mu.Lock()
	// A key whose hash is already mapped (re-insert after invalidation, or
	// a hash collision) overwrites that slot in place. Below capacity that
	// is one probe; a full shard looks before it makes room, since making
	// room deletes from the index.
	if s.index.Len() >= t.perShardCap && s.index.Get(h, h) == nil && !t.makeRoom(s, h, now) {
		s.mu.Unlock()
		t.admissionDrops.Add(1)
		return
	}
	p, added := s.index.Put(h, h)
	if added {
		*p = t.claim(s)
	}
	e := &s.slots[*p]
	e.key, e.val, e.h, e.gen, e.live = k, v, h, gen, true
	e.lastUsed.Store(int64(now))
	s.mu.Unlock()
	t.inserts.Add(1)
}

// makeRoom frees a slot in a full shard — one with no free slot, so every
// sampled slot is live — for the key hashed h, or reports false when the
// admission guard refuses the key. It samples evictSamples slots from the
// rotating hand and reclaims the idle-expired ones; a reclaimed slot admits
// the key without consulting the guard. Only when the whole sample is live
// does the guard decide, and a refusal evicts nothing; else the least
// recently used of the sample is evicted. Without a TTL nothing can have
// expired, so the guard decides before the sample is paid for. Caller
// holds s.mu.
func (t *Table[V]) makeRoom(s *shard[V], h uint64, now time.Duration) bool {
	if t.ttl == 0 && s.refuse(h, t.missRing) {
		return false
	}
	var (
		lru     uint32
		lruUsed int64 = math.MaxInt64
		freed   int
	)
	n := uint32(len(s.slots))
	for c := uint32(0); c < min(evictSamples, n); c++ {
		i := s.hand
		if s.hand++; s.hand == n {
			s.hand = 0
		}
		if u := s.slots[i].lastUsed.Load(); t.idle(now, u) {
			t.release(s, i)
			freed++
		} else if u < lruUsed {
			lru, lruUsed = i, u
		}
	}
	if freed > 0 {
		t.expired.Add(uint64(freed))
		return true
	}
	if t.ttl > 0 && s.refuse(h, t.missRing) {
		return false
	}
	t.release(s, lru)
	t.evictions.Add(1)
	return true
}

// Delete removes one flow (e.g. on connection teardown) and reports
// whether it was present.
func (t *Table[V]) Delete(k Key) bool {
	h := k.hash()
	s := &t.shards[h&t.mask]
	s.mu.Lock()
	p := s.index.Get(h, h)
	ok := p != nil && s.slots[*p].key == k
	if ok {
		t.release(s, *p)
	}
	s.mu.Unlock()
	return ok
}

// Sweep walks every shard and releases entries idle past the TTL, returning
// how many it reclaimed. Expiry is otherwise lazy (discovered on lookup or
// under insert pressure), which lets a flow whose teardown packets were
// lost pin its entry indefinitely if no traffic ever probes it again; a
// periodic Sweep bounds that leak. A no-op without a TTL/Clock. Each shard
// is locked independently, so concurrent traffic stalls for at most one
// shard's walk.
func (t *Table[V]) Sweep() int {
	if t.ttl <= 0 {
		return 0
	}
	now := t.readNow()
	freed := 0
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		for i := range s.slots {
			if e := &s.slots[i]; e.live && t.idle(now, e.lastUsed.Load()) {
				t.release(s, uint32(i))
				freed++
			}
		}
		s.mu.Unlock()
	}
	if freed > 0 {
		t.expired.Add(uint64(freed))
	}
	return freed
}

// Purge empties the table — index, slab and admission ring — and releases
// their memory, as a restart that loses the gateway's RAM would (entries
// are not counted as evictions).
func (t *Table[V]) Purge() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		t.live.Add(-int64(s.index.Len()))
		s.index.Clear()
		s.slots, s.free, s.hand = nil, 0, 0
		s.missRing, s.missPos = nil, 0
		s.mu.Unlock()
	}
}

// Len returns the number of live entries: one atomic load, no shard lock.
func (t *Table[V]) Len() int { return int(t.live.Load()) }
