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
	tb := newTable[uint64](Config{Capacity: 65536})
	k := key(1)
	tb.Insert(k, 1, nil, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(k, 1, nil, nil); !ok {
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
	tb := newTable[uint64](Config{Capacity: 65536})
	keys := make([]Key, flows)
	for i := range keys {
		k := Key{Tuple: transport.Tuple{Src: 0x0a800000 + uint32(i), Dst: 0x5db80001, SrcPort: 40000, DstPort: 443}, Proto: 6}
		k.SetTag([]byte("\x1f\x8b\x08\x00\x41\x42\x43\x44\x01\x02"))
		keys[i] = k
		tb.Insert(k, 1, nil, uint64(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(flows, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(keys[i%flows], 1, nil, nil); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFlowLookupHitParallel drives the same hot flow from every core:
// readers share only the shard's RWMutex in read mode.
func BenchmarkFlowLookupHitParallel(b *testing.B) {
	tb := newTable[uint64](Config{Capacity: 65536})
	k := key(1)
	tb.Insert(k, 1, nil, 42)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := tb.Lookup(k, 1, nil, nil); !ok {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkFlowInsert measures the miss path's cache-fill cost with LRU
// eviction pressure (table deliberately smaller than the flow population).
func BenchmarkFlowInsert(b *testing.B) {
	tb := newTable[uint64](Config{Capacity: 1024})
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(keys[i%len(keys)], 1, nil, uint64(i))
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
	tb := newTable[uint64](Config{Capacity: 1024})
	old := make([]Key, 1024)
	for i := range old {
		old[i] = key(i)
		tb.Insert(old[i], 1, nil, uint64(i))
	}
	gen := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(old) == 0 {
			gen++
		}
		k := old[i%len(old)]
		if i%2 == 1 {
			k = floodKey(uint64(1_000_000 + i))
		}
		if _, ok := tb.Lookup(k, gen, nil, nil); ok {
			b.Fatal("verdict served across a generation move")
		}
		tb.Insert(k, gen, nil, uint64(i))
	}
}

// BenchmarkFlowInsertChurn is churn's fill: rounds of new flows, the
// generation moving every round, so a round's flows are dead once the next
// one starts. Each shard reclaims them before its index would double, so in
// steady state the table holds about one round's cells and an insert
// allocates nothing.
func BenchmarkFlowInsertChurn(b *testing.B) {
	const round = 4096
	tb := newTable[uint64](Config{Capacity: 65536})
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

// BenchmarkFlowMissFlood is the unique-flow-flood worst case WITHOUT the
// negative cache: every insert lands on a full shard and pays the
// eviction sample and the cell write (the table's share of the fill path
// BenchmarkProcessFlowMiss measures end to end).
func BenchmarkFlowMissFlood(b *testing.B) {
	tb := newTable[uint64](Config{Capacity: 1024})
	for i := 0; i < 1024; i++ {
		tb.Insert(key(i), 1, nil, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := floodKey(uint64(1_000_000 + i)) // never repeats: pure flood
		if _, ok := tb.Lookup(k, 1, nil, nil); ok {
			b.Fatal("flood key hit")
		}
		tb.Insert(k, 1, nil, uint64(i))
	}
}

// BenchmarkFlowMissFloodNegCache is the same flood with the admission
// guard on: the insert is a ring scan instead of an eviction, bounding
// the per-packet cost of a SYN flood of unique crafted flows.
func BenchmarkFlowMissFloodNegCache(b *testing.B) {
	tb := newTable[uint64](Config{Capacity: 1024, MissRing: 64})
	for i := 0; i < 1024; i++ {
		tb.Insert(key(i), 1, nil, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := floodKey(uint64(1_000_000 + i))
		if _, ok := tb.Lookup(k, 1, nil, nil); ok {
			b.Fatal("flood key hit")
		}
		tb.Insert(k, 1, nil, uint64(i))
	}
}
