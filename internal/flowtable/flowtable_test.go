package flowtable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"borderpatrol/internal/metrics"
	"borderpatrol/internal/transport"
)

// count reads one of the table's bp_flowtable_* series by its name suffix
// ("hits_total", "live").
func count[V any](tb *Table[V], series string) uint64 {
	r := metrics.NewRegistry()
	tb.RegisterMetrics(r)
	v, _ := r.Value("bp_flowtable_" + series)
	return uint64(v)
}

// tickClock is a hand-cranked virtual clock: one atomic, like the
// netsim.Clock the shipped gateway hands its table.
type tickClock struct{ now atomic.Int64 }

func (c *tickClock) Now() time.Duration { return time.Duration(c.now.Load()) }

func (c *tickClock) advance(d time.Duration) { c.now.Add(int64(d)) }

// newTable builds a table on a clock of its own that nothing advances, for
// tests and benchmarks that do not move time.
func newTable[V any]() *Table[V] {
	return New[V](Config{Clock: &tickClock{}})
}

// gen1 is the current-generation function of a caller whose generation
// stays 1.
func gen1(Key) uint64 { return 1 }

// acceptAll is the accept function of a caller that checks nothing but the
// key.
func acceptAll[V any](*V) bool { return true }

// get and put are Lookup and Insert for a caller whose generation stays 1
// and that checks nothing but the key.
func (t *Table[V]) get(k Key) (V, bool) { return t.Lookup(k, 1, gen1, acceptAll[V]) }

func (t *Table[V]) put(k Key, v V) { t.Insert(k, 1, gen1, v) }

// floodShard is the shard shardKeys fills: the first of the shards that
// floodKey's one endpoint pair reaches (see Key.Shard).
var floodShard = floodKey(0).Shard() &^ (shards>>pairBits - 1)

// shardKeys returns n distinct flood keys that all land in floodShard, so
// a test can fill one shard's perShard cells.
func shardKeys(n int) []Key {
	keys := make([]Key, 0, n)
	for i := uint64(0); len(keys) < n; i++ {
		if k := floodKey(i); k.Shard() == floodShard {
			keys = append(keys, k)
		}
	}
	return keys
}

// fillShard inserts keys[:perShard] into floodShard, each key's value its
// index, and checks the shard is full.
func fillShard(t *testing.T, tb *Table[int], keys []Key) {
	t.Helper()
	for i, k := range keys[:perShard] {
		tb.put(k, i)
	}
	if n := tb.shards[floodShard].flows.Len(); n != perShard {
		t.Fatalf("shard %d holds %d flows, want %d", floodShard, n, perShard)
	}
}

func key(i int) Key {
	return Key{
		Tuple:  transport.Tuple{Src: 0x0a420002, Dst: 0x5db80000 | uint32(i&0xffff)},
		Proto:  6,
		Digest: Digest([]byte(fmt.Sprintf("tag-%d", i))),
	}
}

// TestKeyIs24Bytes pins the key's layout: the 12-byte flow tuple, the
// protocol and the tag digest, so a flow's whole cell fits 64 bytes.
func TestKeyIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Key{}); size != 24 {
		t.Fatalf("Key is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(transport.Tuple{}); size != 12 {
		t.Fatalf("transport.Tuple is %d bytes, want 12", size)
	}
}

// TestShardIsWholeCacheLines pins the shard's padding: shards that
// different burst workers write share no cache line, and the table header
// after them starts on a line of its own.
func TestShardIsWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(shard[int]{}); size%64 != 0 {
		t.Fatalf("a shard is %d bytes, not whole 64-byte lines", size)
	}
}

func TestLookupInsertRoundTrip(t *testing.T) {
	tb := newTable[string]()
	k := key(1)
	if _, ok := tb.get(k); ok {
		t.Fatal("empty table hit")
	}
	tb.put(k, "allow")
	v, ok := tb.get(k)
	if !ok || v != "allow" {
		t.Fatalf("lookup = %q, %v", v, ok)
	}
	hits, misses, inserts, live := count(tb, "hits_total"), count(tb, "misses_total"), count(tb, "inserts_total"), count(tb, "live")
	if hits != 1 || misses != 1 || inserts != 1 || live != 1 {
		t.Fatalf("hits/misses/inserts/live = %d/%d/%d/%d", hits, misses, inserts, live)
	}
}

func TestGenerationMismatchInvalidates(t *testing.T) {
	tb := newTable[string]()
	g := &generations{now: 1}
	k := key(7)
	tb.Insert(k, 1, g.current, "allow")
	// A rule or database update bumped the generation: the entry must not
	// be served, and must be removed.
	g.now = 2
	if _, ok := tb.Lookup(k, 2, g.current, acceptAll); ok {
		t.Fatal("stale generation served")
	}
	if int(tb.live()) != 0 {
		t.Fatalf("stale entry retained, live=%d", int(tb.live()))
	}
	if n := count(tb, "stale_drops_total"); n != 1 {
		t.Fatalf("stale drops = %d, want 1", n)
	}
	// Re-inserting under the new generation works.
	tb.Insert(k, 2, g.current, "drop")
	if v, ok := tb.Lookup(k, 2, g.current, acceptAll); !ok || v != "drop" {
		t.Fatalf("re-inserted lookup = %q, %v", v, ok)
	}
}

// TestTTLExpiry: the TTL is an idle timeout. A flow touched every TTL/2 stays
// a hit for ten TTLs; left alone for longer than the TTL it is an expiry,
// counted once, and the next packet's insert starts a new idle period.
func TestTTLExpiry(t *testing.T) {
	const ttl = 10 * time.Millisecond
	clk := &tickClock{}
	tb := New[int](Config{TTL: ttl, Clock: clk})
	k := key(3)
	tb.put(k, 42)
	for i := 0; i < 20; i++ {
		clk.advance(ttl / 2)
		if _, ok := tb.get(k); !ok {
			t.Fatalf("flow in use expired %v after insertion", clk.Now())
		}
	}
	clk.advance(ttl)
	if _, ok := tb.get(k); !ok {
		t.Fatal("entry expired at exactly the TTL")
	}
	clk.advance(ttl + time.Nanosecond)
	if _, ok := tb.get(k); ok {
		t.Fatal("entry served after sitting idle past the TTL")
	}
	if _, ok := tb.get(k); ok {
		t.Fatal("expired entry still mapped")
	}
	expired, hits, misses, live := count(tb, "expired_drops_total"), count(tb, "hits_total"), count(tb, "misses_total"), count(tb, "live")
	if expired != 1 || hits != 21 || misses != 2 || live != 0 {
		t.Fatalf("expired/hits/misses/live = %d/%d/%d/%d, want 1 expiry, 21 hits, 2 misses, 0 live", expired, hits, misses, live)
	}
	tb.put(k, 43)
	clk.advance(ttl)
	if v, ok := tb.get(k); !ok || v != 43 {
		t.Fatalf("re-inserted flow = %d, %v", v, ok)
	}
}

// TestTTLDefaultsToOneMinute: a Config without a TTL, or with a negative
// one, expires a flow one minute after its last use; no value turns expiry
// off.
func TestTTLDefaultsToOneMinute(t *testing.T) {
	for _, ttl := range []time.Duration{0, -time.Second} {
		clk := &tickClock{}
		tb := New[int](Config{TTL: ttl, Clock: clk})
		tb.put(key(1), 1)
		clk.advance(time.Minute)
		if _, ok := tb.get(key(1)); !ok {
			t.Fatalf("TTL %v: flow expired at one minute", ttl)
		}
		clk.advance(time.Minute + time.Nanosecond)
		if _, ok := tb.get(key(1)); ok {
			t.Fatalf("TTL %v: flow served after sitting idle past one minute", ttl)
		}
	}
}

// TestNewRequiresClock: a table has one time source, its Clock; there is
// no clockless mode to fall back to.
func TestNewRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New built a table without a clock")
		}
	}()
	New[int](Config{TTL: time.Nanosecond})
}

// TestLRUEvictionUnderCapacity: a full shard of live flows evicts the
// least recently used flow of its sample, never one of the few flows that
// keep sending (a sample of evictSamples cells holds an idle one).
func TestLRUEvictionUnderCapacity(t *testing.T) {
	clk := &tickClock{}
	tb := New[int](Config{Clock: clk})
	keys := shardKeys(perShard + 100)
	fillShard(t, tb, keys)
	hot := keys[:evictSamples]
	clk.advance(time.Millisecond)
	for i, k := range hot {
		if _, ok := tb.get(k); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	// Each newcomer is refused once by the admission guard, then evicts.
	for _, k := range keys[perShard:] {
		tb.put(k, 0)
		tb.put(k, 0)
	}
	if n := int(tb.live()); n != perShard {
		t.Fatalf("live = %d, want %d", n, perShard)
	}
	if n := count(tb, "evictions_total"); n != 100 {
		t.Fatalf("evictions = %d, want 100", n)
	}
	for i, k := range append(hot, keys[perShard:]...) {
		if _, ok := tb.get(k); !ok {
			t.Fatalf("recently used flow %d evicted", i)
		}
	}
}

// TestEvictionPrefersExpired: a full shard whose flows went idle past the
// TTL, but for the few that kept sending, takes newcomers into the idle
// flows' cells at once: no eviction, no refusal, and the flows in use stay.
func TestEvictionPrefersExpired(t *testing.T) {
	clk := &tickClock{}
	tb := New[int](Config{TTL: 10 * time.Millisecond, Clock: clk})
	keys := shardKeys(perShard + 100)
	fillShard(t, tb, keys)
	hot := keys[:evictSamples]
	clk.advance(5 * time.Millisecond)
	for _, k := range hot {
		tb.get(k)
	}
	clk.advance(6 * time.Millisecond) // the rest are idle 11 ms
	for _, k := range keys[perShard:] {
		tb.put(k, 0)
	}
	for i, k := range append(hot, keys[perShard:]...) {
		if _, ok := tb.get(k); !ok {
			t.Fatalf("flow %d lost: an expired flow should have made room", i)
		}
	}
	ev, ex, ad := count(tb, "evictions_total"), count(tb, "expired_drops_total"), count(tb, "admission_drops_total")
	if ev != 0 || ex != 100 || ad != 0 {
		t.Fatalf("evictions/expired/admission drops = %d/%d/%d, want 0/100/0", ev, ex, ad)
	}
}

func TestDeleteAndPurge(t *testing.T) {
	tb := newTable[int]()
	tb.put(key(1), 1)
	tb.put(key(2), 2)
	if !tb.Delete(key(1)) {
		t.Fatal("delete missed")
	}
	if tb.Delete(key(1)) {
		t.Fatal("double delete reported present")
	}
	tb.Purge()
	if int(tb.live()) != 0 {
		t.Fatalf("live after purge = %d", int(tb.live()))
	}
}

func TestDigestDistinguishesTagBytes(t *testing.T) {
	a := Digest([]byte{1, 0, 2})
	b := Digest([]byte{1, 0, 3})
	c := Digest([]byte{0, 1, 2})
	if a == b || a == c || b == c {
		t.Fatalf("digest collisions: %x %x %x", a, b, c)
	}
	if Digest(nil) != Digest([]byte{}) {
		t.Fatal("nil and empty digests differ")
	}
}

// TestDigestCollisionCannotBorrowVerdict: two flows engineered to share a
// Key (same endpoints, same Digest) must never serve each other's value —
// the accept function's verbatim tag compare disambiguates. A crafted FNV
// collision is exactly the tag-forgery attack the exact hit defends
// against. (The enforcer's test of the same name crafts a real collision.)
func TestDigestCollisionCannotBorrowVerdict(t *testing.T) {
	type flow struct{ tag, verdict string }
	k := key(1)
	tagIs := func(tag string) func(*flow) bool { return func(f *flow) bool { return f.tag == tag } }

	tb := newTable[flow]()
	tb.put(k, flow{"benign", "allow"})
	if v, ok := tb.Lookup(k, 1, gen1, tagIs("forged")); ok {
		t.Fatalf("colliding flow served %q", v.verdict)
	}
	// The forged flow's own insert then serves only the forged flow.
	tb.put(k, flow{"forged", "drop"})
	if v, ok := tb.Lookup(k, 1, gen1, tagIs("forged")); !ok || v.verdict != "drop" {
		t.Fatalf("colliding flow after insert = %q, %v", v.verdict, ok)
	}
	if v, ok := tb.Lookup(k, 1, gen1, tagIs("benign")); ok {
		t.Fatalf("benign flow served the forged flow's %q", v.verdict)
	}
	if hits, misses, live := count(tb, "hits_total"), count(tb, "misses_total"), count(tb, "live"); hits != 1 || misses != 2 || live != 1 {
		t.Fatalf("hits/misses/live = %d/%d/%d, want 1/2/1", hits, misses, live)
	}
}

// TestSetTag digests payloads up to MaxTagBytes and rejects oversized ones.
func TestSetTag(t *testing.T) {
	var k Key
	payload := make([]byte, MaxTagBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	if !k.SetTag(payload) {
		t.Fatal("max-size tag rejected")
	}
	if k.Digest != Digest(payload) {
		t.Fatalf("key digest %x", k.Digest)
	}
	if k.SetTag(make([]byte, MaxTagBytes+1)) {
		t.Fatal("oversized tag accepted")
	}
	// A reused key equals a freshly built one for the same flow.
	if !k.SetTag(payload[:4]) {
		t.Fatal("short tag rejected")
	}
	var fresh Key
	fresh.SetTag(payload[:4])
	if k != fresh {
		t.Fatalf("reused key %v != fresh key %v", k, fresh)
	}
}

// TestConcurrentReadersAndInvalidation hammers one hot flow and a churn of
// cold flows through one full shard from many goroutines while the
// generation keeps moving, under -race: the striped locks and atomic
// recency must neither race nor serve a value under the wrong generation.
func TestConcurrentReadersAndInvalidation(t *testing.T) {
	tb := newTable[uint64]()
	hot := key(1000)

	var gen atomic.Uint64
	gen.Store(1)
	current := func(Key) uint64 { return gen.Load() }
	// The cold flows overflow one shard, so inserts evict and refuse
	// while the readers run.
	cold := shardKeys(2 * perShard)

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cur := gen.Load()
				if v, ok := tb.Lookup(hot, cur, current, acceptAll); ok && v != cur {
					t.Errorf("generation %d served value %d", cur, v)
					return
				} else if !ok {
					tb.Insert(hot, cur, current, cur)
				}
				cold := cold[(g*iters+i)%len(cold)]
				tb.Insert(cold, cur, current, cur)
				tb.Lookup(cold, cur, current, acceptAll)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			gen.Add(1)
		}
	}()
	wg.Wait()
	<-done
	if hits, inserts := count(tb, "hits_total"), count(tb, "inserts_total"); hits == 0 || inserts == 0 {
		t.Fatalf("no traffic recorded: hits=%d inserts=%d", hits, inserts)
	}
	if live := count(tb, "live"); live > capacity {
		t.Fatalf("capacity exceeded: live=%d", live)
	}
}
