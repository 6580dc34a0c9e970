package flowtable

import (
	"math/rand"
	"testing"

	"borderpatrol/internal/transport"
)

// BenchmarkFlowLookupHit measures the hit path: one shard probe plus an
// atomic recency refresh. This is the whole per-packet cost of a cached
// flow at the gateway.
func BenchmarkFlowLookupHit(b *testing.B) {
	tb := newTable[uint64]()
	k := key(1)
	tb.Insert(k, 1, gen1, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(k, 1, gen1, acceptAll); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFlowLookupFleet is the hit path on fleet's pattern: 32,768
// live flows, one per pooled device, probed in shuffled order, so each
// probe misses the CPU caches the way a burst of 1,024 devices does — the
// access BenchmarkFlowLookupHit's single hot flow never makes.
func BenchmarkFlowLookupFleet(b *testing.B) {
	const flows = 32768
	tb := newTable[uint64]()
	keys := make([]Key, flows)
	for i := range keys {
		k := Key{Tuple: transport.Tuple{Src: 0x0a800000 + uint32(i), Dst: 0x5db80001, SrcPort: 40000, DstPort: 443}, Proto: 6}
		k.SetTag([]byte("\x1f\x8b\x08\x00\x41\x42\x43\x44\x01\x02"))
		keys[i] = k
		tb.Insert(k, 1, gen1, uint64(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(flows, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(keys[i%flows], 1, gen1, acceptAll); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFlowLookupHitParallel drives the same hot flow from every core:
// readers share only the shard's RWMutex in read mode.
func BenchmarkFlowLookupHitParallel(b *testing.B) {
	tb := newTable[uint64]()
	k := key(1)
	tb.Insert(k, 1, gen1, 42)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := tb.Lookup(k, 1, gen1, acceptAll); !ok {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkFlowInsert measures the miss path's cache-fill cost under
// capacity pressure: a round of four times one shard's share of flows, all
// aimed at that shard, so a quarter of the inserts overwrite a held flow
// and the rest find the shard full and pay the eviction sample and the
// admission guard.
func BenchmarkFlowInsert(b *testing.B) {
	tb := newTable[uint64]()
	keys := shardKeys(4 * perShard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(keys[i%len(keys)], 1, gen1, uint64(i))
	}
}

// BenchmarkFlowDigest measures keying a maximum-size tag payload.
func BenchmarkFlowDigest(b *testing.B) {
	buf := make([]byte, 38)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Digest(buf) == 0 {
			b.Fatal("zero digest")
		}
	}
}

// BenchmarkFlowInsertStaleChurn is the invalidation-heavy fill: the table
// is full, the generation moves before every refill, and a refill is half
// flows cached under the old generation coming back (stale probe, delete,
// re-insert) and half flows never seen before (eviction). It must stay
// within 1.5x of BenchmarkFlowMissFlood: a deleted cell is empty at once,
// so invalidation leaves nothing behind for the eviction sample to step
// over.
func BenchmarkFlowInsertStaleChurn(b *testing.B) {
	tb := newTable[uint64]()
	keys := shardKeys(4 * perShard)
	old, fresh := keys[:perShard], keys[perShard:]
	gen := uint64(1)
	current := func(Key) uint64 { return gen }
	for i, k := range old {
		tb.Insert(k, gen, current, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(old) == 0 {
			gen++
		}
		k := old[i%len(old)]
		if i%2 == 1 {
			k = fresh[i/2%len(fresh)] // cached, if at all, generations ago
		}
		if _, ok := tb.Lookup(k, gen, current, acceptAll); ok {
			b.Fatal("verdict served across a generation move")
		}
		tb.Insert(k, gen, current, uint64(i))
	}
}

// BenchmarkFlowInsertChurn is churn's fill: rounds of new flows, the
// generation moving every round, so a round's flows are dead once the next
// one starts. Each shard reclaims them before its index would double, so in
// steady state the table holds about one round's cells and an insert
// allocates nothing.
func BenchmarkFlowInsertChurn(b *testing.B) {
	const round = 4096
	tb := newTable[uint64]()
	gen := uint64(0)
	current := func(Key) uint64 { return gen }
	insert := func(i int) {
		if i%round == 0 {
			gen++
		}
		tb.Insert(floodKey(uint64(i)), gen, current, uint64(i))
	}
	const warm = 16 * round // past the last doubling
	for i := 0; i < warm; i++ {
		insert(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := warm; i < warm+b.N; i++ {
		insert(i)
	}
}

// fullTable builds a table with every shard at its share of flows, and
// every shard's admission ring allocated.
func fullTable() *Table[uint64] {
	tb := newTable[uint64]()
	for i := uint64(0); tb.live() < capacity; i++ {
		tb.Insert(key(int(i)), 1, gen1, i)
	}
	for i := range tb.shards {
		tb.shards[i].missRing = make([]uint64, missRing)
	}
	return tb
}

// BenchmarkFlowMissFlood is a flood key's second arrival at a full table:
// the lookup misses, the admission guard finds the key in the ring and
// admits it, and the insert pays the eviction sample and the cell write
// (the table's share of the fill path BenchmarkProcessFlowMiss measures end
// to end). The key's first arrival is noted in its shard's ring off the
// insert, by one store, as a refusal would have noted it.
func BenchmarkFlowMissFlood(b *testing.B) {
	tb := fullTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := floodKey(uint64(1_000_000 + i)) // never repeats: pure flood
		h := k.hash()
		s := &tb.shards[k.Shard()]
		s.missRing[s.missPos] = h
		s.missPos = (s.missPos + 1) % missRing
		if _, ok := tb.Lookup(k, 1, gen1, acceptAll); ok {
			b.Fatal("flood key hit")
		}
		tb.Insert(k, 1, gen1, uint64(i))
	}
	if n := count(tb, "evictions_total"); n < uint64(b.N) {
		b.Fatalf("%d evictions for %d second arrivals", n, b.N)
	}
}

// BenchmarkFlowMissFloodNegCache is a flood key's first arrival at a full
// table, the shipped path of a SYN flood of unique crafted flows: the
// lookup misses, and the insert pays the eviction sample, finds the least
// recently used cell alive, and is refused at the ring, which notes the
// key.
func BenchmarkFlowMissFloodNegCache(b *testing.B) {
	tb := fullTable()
	drops := count(tb, "admission_drops_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := floodKey(uint64(1_000_000 + i))
		if _, ok := tb.Lookup(k, 1, gen1, acceptAll); ok {
			b.Fatal("flood key hit")
		}
		tb.Insert(k, 1, gen1, uint64(i))
	}
	if n := count(tb, "admission_drops_total") - drops; n != uint64(b.N) {
		b.Fatalf("%d refusals for %d first arrivals", n, b.N)
	}
}
