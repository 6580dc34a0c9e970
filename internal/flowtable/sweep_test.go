package flowtable

import (
	"testing"
	"time"
)

// idleScript inserts keys[:8], keeps 3 of them sending, and 90 s later
// inserts keys[8:12]: 5 flows then sit idle past the one-minute TTL.
func idleScript(t *testing.T, keys []Key) *Table[string] {
	clk := &tickClock{}
	tb := New[string](Config{TTL: time.Minute, Clock: clk})
	for _, k := range keys[:8] {
		tb.put(k, "allow")
	}
	clk.advance(45 * time.Second)
	for i, k := range keys[:3] { // three old flows still sending
		if _, ok := tb.get(k); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	clk.advance(45 * time.Second)
	for _, k := range keys[8:12] {
		tb.put(k, "allow") // fresh at sweep time
	}
	return tb
}

// inUse are the flows of idleScript that are not idle at its end.
var inUse = []int{0, 1, 2, 8, 9, 10, 11}

// TestSweepReclaimsExpired: the GC sweep removes exactly the entries that
// sat idle past the TTL and counts them as expirations; entries inserted or
// hit since survive, however long ago they were inserted. One shard of 12
// flows crosses no growth point after the flows go idle, so no insert
// reclaims them first (TestReclaimAndSweepShareTheIdle has one that does).
func TestSweepReclaimsExpired(t *testing.T) {
	keys := shardKeys(12)
	tb := idleScript(t, keys)
	if got := tb.Sweep(gen1); got != 5 {
		t.Fatalf("sweep reclaimed %d, want the 5 idle flows", got)
	}
	if n := count(tb, "live"); n != 7 {
		t.Fatalf("live = %d, want 7", n)
	}
	if n := count(tb, "expired_drops_total"); n != 5 {
		t.Fatalf("expired drops = %d, want 5", n)
	}
	for _, i := range inUse {
		if _, ok := tb.get(keys[i]); !ok {
			t.Fatalf("entry %d in use was swept", i)
		}
	}
	// Second sweep finds nothing.
	if got := tb.Sweep(gen1); got != 0 {
		t.Fatalf("second sweep reclaimed %d", got)
	}
}

// TestReclaimAndSweepShareTheIdle: six of the first flows share a shard
// with the fresh ones, whose inserts cross its growth point, and the
// reclaim pass before it takes the idle flows of that shard. The sweep
// frees the other shard's: each idle flow is freed once, by one of them,
// and counted as expired; the flows in use survive both.
func TestReclaimAndSweepShareTheIdle(t *testing.T) {
	first := shardKeys(10)
	var other []Key // two keys of the shard after floodShard
	for i := uint64(0); len(other) < 2; i++ {
		if k := floodKey(i); k.Shard() == floodShard+1 {
			other = append(other, k)
		}
	}
	keys := append(append(first[:6:6], other...), first[6:]...)
	tb := idleScript(t, keys)
	reclaimed := int(count(tb, "expired_drops_total"))
	if reclaimed == 0 {
		t.Fatal("no insert reclaimed an idle flow: the script crossed no growth point")
	}
	if swept := tb.Sweep(gen1); reclaimed+swept != 5 {
		t.Fatalf("reclaimed %d + swept %d, want the 5 idle flows", reclaimed, swept)
	}
	if n, exp := count(tb, "live"), count(tb, "expired_drops_total"); n != 7 || exp != 5 {
		t.Fatalf("live = %d, expired drops = %d; want 7 and 5", n, exp)
	}
	for _, i := range inUse {
		if _, ok := tb.get(keys[i]); !ok {
			t.Fatalf("entry %d in use was reclaimed", i)
		}
	}
}
