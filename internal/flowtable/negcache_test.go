package flowtable

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

func floodKey(i uint64) Key {
	var tag [16]byte
	binary.LittleEndian.PutUint64(tag[:8], i)
	var k Key
	k.Src = 0x0a420002 // 10.66.0.2
	k.Dst = 0xcb007109 // 203.0.113.9
	k.SrcPort = uint16(40000 + i%20000)
	k.DstPort = 443
	k.Proto = 6
	k.SetTag(tag[:])
	return k
}

// TestAdmissionGuardBlocksUniqueFlowFlood: with the shard full, a stream
// of never-repeated keys (the SYN-flood shape) must be turned away at the
// ring instead of evicting live flows.
func TestAdmissionGuardBlocksUniqueFlowFlood(t *testing.T) {
	tab := newTable[int]()
	keys := shardKeys(perShard + 1000)
	fillShard(t, tab, keys)

	// Flood: 1000 unique keys against the full shard. Each is seen once,
	// so none may displace an established flow.
	for i, k := range keys[perShard:] {
		tab.put(k, i)
	}
	if n := count(tab, "admission_drops_total"); n != 1000 {
		t.Fatalf("admission drops = %d, want 1000", n)
	}
	if n := count(tab, "evictions_total"); n != 0 {
		t.Fatalf("flood evicted %d live flows", n)
	}
	// Every established flow still serves hits.
	for i, k := range keys[:perShard] {
		if v, ok := tab.get(k); !ok || v != i {
			t.Fatalf("established flow %d lost under flood (ok=%v v=%d)", i, ok, v)
		}
	}
}

// TestAdmissionGuardAdmitsSecondMiss: a real flow that keeps sending is
// admitted on its second insert attempt (doorkeeper semantics), paying
// one extra full-pipeline packet, never more.
func TestAdmissionGuardAdmitsSecondMiss(t *testing.T) {
	tab := newTable[int]()
	keys := shardKeys(perShard + 1)
	fillShard(t, tab, keys)
	newcomer := keys[perShard]
	tab.put(newcomer, 77) // first attempt: noted, rejected
	if _, ok := tab.get(newcomer); ok {
		t.Fatal("first-attempt insert was admitted")
	}
	tab.put(newcomer, 77) // second attempt: admitted, evicting LRU
	if v, ok := tab.get(newcomer); !ok || v != 77 {
		t.Fatal("second-attempt insert not admitted")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 1 {
		t.Fatalf("admission drops/evictions = %d/%d, want 1 admission drop + 1 eviction", ad, ev)
	}
}

// TestAdmissionGuardIdleBelowCapacity: shards under capacity admit
// immediately — the guard only engages under pressure.
func TestAdmissionGuardIdleBelowCapacity(t *testing.T) {
	tab := newTable[int]()
	for i, k := range shardKeys(perShard / 2) {
		tab.put(k, i)
		if _, ok := tab.get(k); !ok {
			t.Fatalf("insert %d not admitted below capacity", i)
		}
	}
	if n := count(tab, "admission_drops_total"); n != 0 {
		t.Fatalf("admission drops below capacity: %d", n)
	}
}

// TestAdmissionGuardReinsertAfterInvalidation: a generation bump must not
// lock live flows out. Lookup deletes the stale entry (shard drops below
// capacity), so the re-insert is admitted immediately.
func TestAdmissionGuardReinsertAfterInvalidation(t *testing.T) {
	tab := newTable[int]()
	g := &generations{now: 1}
	keys := shardKeys(perShard)
	for i, k := range keys {
		tab.Insert(k, 1, g.current, i)
	}
	// Generation moves (policy reload): the hot flow misses, is deleted,
	// and re-inserts under the new generation without tripping the guard.
	g.now = 2
	hot := keys[3]
	if _, ok := tab.Lookup(hot, 2, g.current, acceptAll); ok {
		t.Fatal("stale generation served")
	}
	tab.Insert(hot, 2, g.current, 3)
	if v, ok := tab.Lookup(hot, 2, g.current, acceptAll); !ok || v != 3 {
		t.Fatal("re-insert after invalidation rejected")
	}
	if n := count(tab, "admission_drops_total"); n != 0 {
		t.Fatalf("invalidation path tripped the guard: %d admission drops", n)
	}
}

// TestAdmissionGuardReclaimsExpiredFirst: a full shard whose eviction
// sample holds an idle-expired slot reclaims it for a first-seen key. No
// live flow is at stake, so the guard is not consulted: no admission drop,
// no eviction, and the ring is left as it was.
func TestAdmissionGuardReclaimsExpiredFirst(t *testing.T) {
	clock := &tickClock{}
	tab := New[int](Config{TTL: time.Second, Clock: clock})
	keys := shardKeys(perShard + 1)
	fillShard(t, tab, keys)
	// A few flows keep sending; the rest go idle past the TTL, so every
	// sample of evictSamples cells holds one of them.
	hot := keys[:evictSamples]
	clock.advance(500 * time.Millisecond)
	for i, k := range hot {
		if _, ok := tab.get(k); !ok {
			t.Fatalf("flow %d lost before the flood", i)
		}
	}
	clock.advance(700 * time.Millisecond)

	newcomer := keys[perShard]
	tab.put(newcomer, 77)
	if v, ok := tab.get(newcomer); !ok || v != 77 {
		t.Fatal("first-seen key refused although its sample held an expired slot")
	}
	ad, ev, ex := count(tab, "admission_drops_total"), count(tab, "evictions_total"), count(tab, "expired_drops_total")
	if ad != 0 || ev != 0 || ex != 1 {
		t.Fatalf("admission drops/evictions/expired = %d/%d/%d, want the expired slot reclaimed and nothing refused or evicted", ad, ev, ex)
	}
	if s := &tab.shards[floodShard]; s.missPos != 0 || slices.ContainsFunc(s.missRing, func(h uint64) bool { return h != 0 }) {
		t.Fatalf("admission ring touched: pos %d, ring %v", s.missPos, s.missRing)
	}
	for i, k := range hot {
		if _, ok := tab.get(k); !ok {
			t.Fatalf("live flow %d lost to the newcomer", i)
		}
	}
}

// TestAdmissionGuardWithTTLRefusesWhenAllLive: with a TTL, a full shard of
// live flows still refuses a first-seen key — evicting nothing — and
// admits it on its second attempt.
func TestAdmissionGuardWithTTLRefusesWhenAllLive(t *testing.T) {
	clock := &tickClock{}
	tab := New[int](Config{TTL: time.Minute, Clock: clock})
	keys := shardKeys(perShard + 1)
	fillShard(t, tab, keys)
	clock.advance(time.Second)
	newcomer := keys[perShard]
	tab.put(newcomer, 77)
	if _, ok := tab.get(newcomer); ok {
		t.Fatal("first-seen key admitted into a full shard of live flows")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 0 || int(tab.live()) != perShard {
		t.Fatalf("after the refusal: %d drops, %d evictions, live %d; want 1 drop, 0 evictions, %d live", ad, ev, int(tab.live()), perShard)
	}
	tab.put(newcomer, 77)
	if v, ok := tab.get(newcomer); !ok || v != 77 {
		t.Fatal("second-attempt insert not admitted")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 1 {
		t.Fatalf("after the admission: %d drops, %d evictions, want 1 drop + 1 eviction", ad, ev)
	}
}
