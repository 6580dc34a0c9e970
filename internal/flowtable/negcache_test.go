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

// TestAdmissionGuardBlocksUniqueFlowFlood: with the table full, a stream
// of never-repeated keys (the SYN-flood shape) must be turned away at the
// ring instead of evicting live flows.
func TestAdmissionGuardBlocksUniqueFlowFlood(t *testing.T) {
	tab := New[int](Config{Capacity: 64, Shards: 1, MissRing: 128})
	for i := uint64(0); i < 64; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	if live := tab.Len(); live != 64 {
		t.Fatalf("live = %d, want 64", live)
	}

	// Flood: 1000 unique keys against the full shard. Each is seen once,
	// so none may displace an established flow.
	for i := uint64(1000); i < 2000; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	if n := count(tab, "admission_drops_total"); n != 1000 {
		t.Fatalf("admission drops = %d, want 1000", n)
	}
	if n := count(tab, "evictions_total"); n != 0 {
		t.Fatalf("flood evicted %d live flows", n)
	}
	// Every established flow still serves hits.
	for i := uint64(0); i < 64; i++ {
		if v, ok := tab.Lookup(floodKey(i), 1, nil); !ok || v != int(i) {
			t.Fatalf("established flow %d lost under flood (ok=%v v=%d)", i, ok, v)
		}
	}
}

// TestAdmissionGuardAdmitsSecondMiss: a real flow that keeps sending is
// admitted on its second insert attempt (doorkeeper semantics), paying
// one extra full-pipeline packet, never more.
func TestAdmissionGuardAdmitsSecondMiss(t *testing.T) {
	tab := New[int](Config{Capacity: 8, Shards: 1, MissRing: 32})
	for i := uint64(0); i < 8; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	newcomer := floodKey(77)
	tab.Insert(newcomer, 1, 77) // first attempt: noted, rejected
	if _, ok := tab.Lookup(newcomer, 1, nil); ok {
		t.Fatal("first-attempt insert was admitted")
	}
	tab.Insert(newcomer, 1, 77) // second attempt: admitted, evicting LRU
	if v, ok := tab.Lookup(newcomer, 1, nil); !ok || v != 77 {
		t.Fatal("second-attempt insert not admitted")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 1 {
		t.Fatalf("admission drops/evictions = %d/%d, want 1 admission drop + 1 eviction", ad, ev)
	}
}

// TestAdmissionGuardIdleBelowCapacity: shards under capacity admit
// immediately — the guard only engages under pressure.
func TestAdmissionGuardIdleBelowCapacity(t *testing.T) {
	tab := New[int](Config{Capacity: 64, Shards: 1, MissRing: 32})
	for i := uint64(0); i < 32; i++ {
		tab.Insert(floodKey(i), 1, int(i))
		if _, ok := tab.Lookup(floodKey(i), 1, nil); !ok {
			t.Fatalf("insert %d not admitted below capacity", i)
		}
	}
	if n := count(tab, "admission_drops_total"); n != 0 {
		t.Fatalf("admission drops below capacity: %d", n)
	}
}

// TestAdmissionGuardDisabledByDefault: MissRing 0 keeps the PR 2 eviction
// behaviour byte for byte.
func TestAdmissionGuardDisabledByDefault(t *testing.T) {
	tab := New[int](Config{Capacity: 8, Shards: 1})
	for i := uint64(0); i < 16; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	if n := count(tab, "admission_drops_total"); n != 0 {
		t.Fatalf("guard engaged while disabled: %d admission drops", n)
	}
	if n := count(tab, "evictions_total"); n != 8 {
		t.Fatalf("evictions = %d, want 8", n)
	}
}

// TestAdmissionGuardReinsertAfterInvalidation: a generation bump must not
// lock live flows out. Lookup deletes the stale entry (shard drops below
// capacity), so the re-insert is admitted immediately.
func TestAdmissionGuardReinsertAfterInvalidation(t *testing.T) {
	tab := New[int](Config{Capacity: 8, Shards: 1, MissRing: 32})
	for i := uint64(0); i < 8; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	// Generation moves (policy reload): the hot flow misses, is deleted,
	// and re-inserts under the new generation without tripping the guard.
	hot := floodKey(3)
	if _, ok := tab.Lookup(hot, 2, nil); ok {
		t.Fatal("stale generation served")
	}
	tab.Insert(hot, 2, 3)
	if v, ok := tab.Lookup(hot, 2, nil); !ok || v != 3 {
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
	tab := New[int](Config{Capacity: 8, Shards: 1, MissRing: 32, TTL: time.Second, Clock: clock})
	for i := uint64(0); i < 8; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	// Every flow but 0 keeps sending; flow 0 goes idle past the TTL.
	clock.advance(500 * time.Millisecond)
	for i := uint64(1); i < 8; i++ {
		if _, ok := tab.Lookup(floodKey(i), 1, nil); !ok {
			t.Fatalf("flow %d lost before the flood", i)
		}
	}
	clock.advance(700 * time.Millisecond)

	newcomer := floodKey(77)
	tab.Insert(newcomer, 1, 77)
	if v, ok := tab.Lookup(newcomer, 1, nil); !ok || v != 77 {
		t.Fatal("first-seen key refused although its sample held an expired slot")
	}
	ad, ev, ex := count(tab, "admission_drops_total"), count(tab, "evictions_total"), count(tab, "expired_drops_total")
	if ad != 0 || ev != 0 || ex != 1 {
		t.Fatalf("admission drops/evictions/expired = %d/%d/%d, want the expired slot reclaimed and nothing refused or evicted", ad, ev, ex)
	}
	if s := &tab.shards[0]; s.missPos != 0 || slices.ContainsFunc(s.missRing, func(h uint64) bool { return h != 0 }) {
		t.Fatalf("admission ring touched: pos %d, ring %v", s.missPos, s.missRing)
	}
	for i := uint64(1); i < 8; i++ {
		if _, ok := tab.Lookup(floodKey(i), 1, nil); !ok {
			t.Fatalf("live flow %d lost to the newcomer", i)
		}
	}
}

// TestAdmissionGuardWithTTLRefusesWhenAllLive: with a TTL, a full shard of
// live flows still refuses a first-seen key — evicting nothing — and
// admits it on its second attempt.
func TestAdmissionGuardWithTTLRefusesWhenAllLive(t *testing.T) {
	clock := &tickClock{}
	tab := New[int](Config{Capacity: 8, Shards: 1, MissRing: 32, TTL: time.Minute, Clock: clock})
	for i := uint64(0); i < 8; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	clock.advance(time.Second)
	newcomer := floodKey(77)
	tab.Insert(newcomer, 1, 77)
	if _, ok := tab.Lookup(newcomer, 1, nil); ok {
		t.Fatal("first-seen key admitted into a full shard of live flows")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 0 || tab.Len() != 8 {
		t.Fatalf("after the refusal: %d drops, %d evictions, live %d; want 1 drop, 0 evictions, 8 live", ad, ev, tab.Len())
	}
	tab.Insert(newcomer, 1, 77)
	if v, ok := tab.Lookup(newcomer, 1, nil); !ok || v != 77 {
		t.Fatal("second-attempt insert not admitted")
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 1 {
		t.Fatalf("after the admission: %d drops, %d evictions, want 1 drop + 1 eviction", ad, ev)
	}
}

// TestAdmissionGuardWithoutTTLAsksRingFirst: a table without a TTL has
// nothing to reclaim, so the guard decides before the eviction sample:
// a refusal leaves the eviction hand where it was.
func TestAdmissionGuardWithoutTTLAsksRingFirst(t *testing.T) {
	tab := New[int](Config{Capacity: 16, Shards: 1, MissRing: 32})
	for i := uint64(0); i < 16; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	newcomer := floodKey(77)
	tab.Insert(newcomer, 1, 77)
	if hand := tab.shards[0].flows.hand; hand != 0 {
		t.Fatalf("refused insert sampled the cells: hand moved to %d", hand)
	}
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 0 {
		t.Fatalf("admission drops/evictions = %d/%d, want 1 admission drop, no eviction", ad, ev)
	}
	tab.Insert(newcomer, 1, 77)
	if ad, ev := count(tab, "admission_drops_total"), count(tab, "evictions_total"); ad != 1 || ev != 1 || tab.shards[0].flows.hand == 0 {
		t.Fatalf("second attempt: %d drops, %d evictions, hand %d; want it admitted over the sample's LRU", ad, ev, tab.shards[0].flows.hand)
	}
}
