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

// tickClock is a hand-cranked virtual clock for TTL tests.
type tickClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *tickClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
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

func TestLookupInsertRoundTrip(t *testing.T) {
	tb := New[string](Config{Capacity: 128, Shards: 4})
	k := key(1)
	if _, ok := tb.Lookup(k, 1, nil); ok {
		t.Fatal("empty table hit")
	}
	tb.Insert(k, 1, "allow")
	v, ok := tb.Lookup(k, 1, nil)
	if !ok || v != "allow" {
		t.Fatalf("lookup = %q, %v", v, ok)
	}
	hits, misses, inserts, live := count(tb, "hits_total"), count(tb, "misses_total"), count(tb, "inserts_total"), count(tb, "live")
	if hits != 1 || misses != 1 || inserts != 1 || live != 1 {
		t.Fatalf("hits/misses/inserts/live = %d/%d/%d/%d", hits, misses, inserts, live)
	}
}

func TestGenerationMismatchInvalidates(t *testing.T) {
	tb := New[string](Config{Capacity: 128})
	k := key(7)
	tb.Insert(k, 1, "allow")
	// A rule or database update bumped the generation: the entry must not
	// be served, and must be removed.
	if _, ok := tb.Lookup(k, 2, nil); ok {
		t.Fatal("stale generation served")
	}
	if tb.Len() != 0 {
		t.Fatalf("stale entry retained, live=%d", tb.Len())
	}
	if n := count(tb, "stale_drops_total"); n != 1 {
		t.Fatalf("stale drops = %d, want 1", n)
	}
	// Re-inserting under the new generation works.
	tb.Insert(k, 2, "drop")
	if v, ok := tb.Lookup(k, 2, nil); !ok || v != "drop" {
		t.Fatalf("re-inserted lookup = %q, %v", v, ok)
	}
}

// TestTTLExpiry: the TTL is an idle timeout. A flow touched every TTL/2 stays
// a hit for ten TTLs; left alone for longer than the TTL it is an expiry,
// counted once, and the next packet's insert starts a new idle period.
func TestTTLExpiry(t *testing.T) {
	const ttl = 10 * time.Millisecond
	clk := &tickClock{}
	tb := New[int](Config{Capacity: 128, TTL: ttl, Clock: clk})
	k := key(3)
	tb.Insert(k, 1, 42)
	for i := 0; i < 20; i++ {
		clk.advance(ttl / 2)
		if _, ok := tb.Lookup(k, 1, nil); !ok {
			t.Fatalf("flow in use expired %v after insertion", clk.Now())
		}
	}
	clk.advance(ttl)
	if _, ok := tb.Lookup(k, 1, nil); !ok {
		t.Fatal("entry expired at exactly the TTL")
	}
	clk.advance(ttl + time.Nanosecond)
	if _, ok := tb.Lookup(k, 1, nil); ok {
		t.Fatal("entry served after sitting idle past the TTL")
	}
	if _, ok := tb.Lookup(k, 1, nil); ok {
		t.Fatal("expired entry still mapped")
	}
	expired, hits, misses, live := count(tb, "expired_drops_total"), count(tb, "hits_total"), count(tb, "misses_total"), count(tb, "live")
	if expired != 1 || hits != 21 || misses != 2 || live != 0 {
		t.Fatalf("expired/hits/misses/live = %d/%d/%d/%d, want 1 expiry, 21 hits, 2 misses, 0 live", expired, hits, misses, live)
	}
	tb.Insert(k, 1, 43)
	clk.advance(ttl)
	if v, ok := tb.Lookup(k, 1, nil); !ok || v != 43 {
		t.Fatalf("re-inserted flow = %d, %v", v, ok)
	}
}

func TestTTLWithoutClockDisabled(t *testing.T) {
	tb := New[int](Config{Capacity: 8, TTL: time.Nanosecond})
	k := key(4)
	tb.Insert(k, 1, 1)
	if _, ok := tb.Lookup(k, 1, nil); !ok {
		t.Fatal("TTL applied without a clock")
	}
}

func TestLRUEvictionUnderCapacity(t *testing.T) {
	// One shard, capacity 4: inserting a 5th flow evicts the LRU.
	tb := New[int](Config{Capacity: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		tb.Insert(key(i), 1, i)
	}
	// Touch 0..2 so key(3) is least recently used.
	for i := 0; i < 3; i++ {
		if _, ok := tb.Lookup(key(i), 1, nil); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	tb.Insert(key(99), 1, 99)
	if tb.Len() != 4 {
		t.Fatalf("live = %d, want 4", tb.Len())
	}
	if _, ok := tb.Lookup(key(3), 1, nil); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, i := range []int{0, 1, 2, 99} {
		if _, ok := tb.Lookup(key(i), 1, nil); !ok {
			t.Fatalf("recently used flow %d evicted", i)
		}
	}
	if n := count(tb, "evictions_total"); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	clk := &tickClock{}
	tb := New[int](Config{Capacity: 4, Shards: 1, TTL: 10 * time.Millisecond, Clock: clk})
	tb.Insert(key(0), 1, 0) // will be expired
	clk.advance(11 * time.Millisecond)
	for i := 1; i < 4; i++ {
		tb.Insert(key(i), 1, i)
	}
	tb.Insert(key(5), 1, 5)
	// key(0) expired and must be the one reclaimed; the fresh flows stay.
	for i := 1; i < 4; i++ {
		if _, ok := tb.Lookup(key(i), 1, nil); !ok {
			t.Fatalf("fresh flow %d reclaimed instead of the expired one", i)
		}
	}
	if ev, ex := count(tb, "evictions_total"), count(tb, "expired_drops_total"); ev != 0 || ex == 0 {
		t.Fatalf("evictions/expired = %d/%d, want expired reclaim and no LRU eviction", ev, ex)
	}
}

func TestDeleteAndPurge(t *testing.T) {
	tb := New[int](Config{Capacity: 128})
	tb.Insert(key(1), 1, 1)
	tb.Insert(key(2), 1, 2)
	if !tb.Delete(key(1)) {
		t.Fatal("delete missed")
	}
	if tb.Delete(key(1)) {
		t.Fatal("double delete reported present")
	}
	tb.Purge()
	if tb.Len() != 0 {
		t.Fatalf("live after purge = %d", tb.Len())
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

	tb := New[flow](Config{Capacity: 128})
	tb.Insert(k, 1, flow{"benign", "allow"})
	if v, ok := tb.Lookup(k, 1, tagIs("forged")); ok {
		t.Fatalf("colliding flow served %q", v.verdict)
	}
	// The forged flow's own insert then serves only the forged flow.
	tb.Insert(k, 1, flow{"forged", "drop"})
	if v, ok := tb.Lookup(k, 1, tagIs("forged")); !ok || v.verdict != "drop" {
		t.Fatalf("colliding flow after insert = %q, %v", v.verdict, ok)
	}
	if v, ok := tb.Lookup(k, 1, tagIs("benign")); ok {
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
// cold flows from many goroutines while the generation keeps moving, under
// -race: the striped locks and atomic recency must neither race nor serve
// a value under the wrong generation.
func TestConcurrentReadersAndInvalidation(t *testing.T) {
	tb := New[uint64](Config{Capacity: 256, Shards: 8})
	hot := key(1000)

	var gen atomic.Uint64
	gen.Store(1)

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cur := gen.Load()
				if v, ok := tb.Lookup(hot, cur, nil); ok && v != cur {
					t.Errorf("generation %d served value %d", cur, v)
					return
				} else if !ok {
					tb.Insert(hot, cur, cur)
				}
				cold := key(g*iters + i)
				tb.Insert(cold, cur, cur)
				tb.Lookup(cold, cur, nil)
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
	if live := count(tb, "live"); live > 256 {
		t.Fatalf("capacity exceeded: live=%d", live)
	}
}
