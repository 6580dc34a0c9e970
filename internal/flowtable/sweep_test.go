package flowtable

import (
	"testing"
	"time"
)

// idleScript inserts 8 flows, keeps 3 of them sending, and 90 s later
// inserts 4 fresh ones: 5 flows then sit idle past the one-minute TTL.
func idleScript(t *testing.T, shards int) *Table[string] {
	clk := &tickClock{}
	tb := New[string](Config{Capacity: 128, Shards: shards, TTL: time.Minute, Clock: clk})
	for i := 0; i < 8; i++ {
		tb.Insert(key(i), 1, nil, "allow")
	}
	clk.advance(45 * time.Second)
	for i := 0; i < 3; i++ { // three old flows still sending
		if _, ok := tb.Lookup(key(i), 1, nil, nil); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	clk.advance(45 * time.Second)
	for i := 8; i < 12; i++ {
		tb.Insert(key(i), 1, nil, "allow") // fresh at sweep time
	}
	return tb
}

// TestSweepReclaimsExpired: the GC sweep removes exactly the entries that
// sat idle past the TTL and counts them as expirations; entries inserted or
// hit since survive, however long ago they were inserted. One shard of 12
// flows crosses no growth point after the flows go idle, so no insert
// reclaims them first (TestReclaimAndSweepShareTheIdle has one that does).
func TestSweepReclaimsExpired(t *testing.T) {
	tb := idleScript(t, 1)
	if got := tb.Sweep(nil); got != 5 {
		t.Fatalf("sweep reclaimed %d, want the 5 idle flows", got)
	}
	if n := count(tb, "live"); n != 7 {
		t.Fatalf("live = %d, want 7", n)
	}
	if n := count(tb, "expired_drops_total"); n != 5 {
		t.Fatalf("expired drops = %d, want 5", n)
	}
	for _, i := range []int{0, 1, 2, 8, 9, 10, 11} {
		if _, ok := tb.Lookup(key(i), 1, nil, nil); !ok {
			t.Fatalf("entry %d in use was swept", i)
		}
	}
	// Second sweep finds nothing.
	if got := tb.Sweep(nil); got != 0 {
		t.Fatalf("second sweep reclaimed %d", got)
	}
}

// TestReclaimAndSweepShareTheIdle: across two shards the fresh inserts
// cross a growth point, and the reclaim pass before it takes the idle flows
// of its shard. The sweep frees the rest: each idle flow is freed once, by
// one of them, and counted as expired; the flows in use survive both.
func TestReclaimAndSweepShareTheIdle(t *testing.T) {
	tb := idleScript(t, 2)
	reclaimed := int(count(tb, "expired_drops_total"))
	if reclaimed == 0 {
		t.Fatal("no insert reclaimed an idle flow: the script crossed no growth point")
	}
	if swept := tb.Sweep(nil); reclaimed+swept != 5 {
		t.Fatalf("reclaimed %d + swept %d, want the 5 idle flows", reclaimed, swept)
	}
	if n, exp := count(tb, "live"), count(tb, "expired_drops_total"); n != 7 || exp != 5 {
		t.Fatalf("live = %d, expired drops = %d; want 7 and 5", n, exp)
	}
	for _, i := range []int{0, 1, 2, 8, 9, 10, 11} {
		if _, ok := tb.Lookup(key(i), 1, nil, nil); !ok {
			t.Fatalf("entry %d in use was reclaimed", i)
		}
	}
}

// TestSweepNoTTLNoOp: without a TTL the sweep has nothing to expire.
func TestSweepNoTTLNoOp(t *testing.T) {
	tb := newTable[string](Config{Capacity: 128})
	tb.Insert(key(1), 1, nil, "allow")
	if got := tb.Sweep(nil); got != 0 {
		t.Fatalf("TTL-less sweep reclaimed %d", got)
	}
	if n := count(tb, "live"); n != 1 {
		t.Fatalf("live = %d", n)
	}
}
