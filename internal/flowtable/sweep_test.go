package flowtable

import (
	"testing"
	"time"
)

// TestSweepReclaimsExpired: the GC sweep removes exactly the entries that
// sat idle past the TTL and counts them as expirations; entries inserted or
// hit since survive, however long ago they were inserted.
func TestSweepReclaimsExpired(t *testing.T) {
	clk := &tickClock{}
	tb := New[string](Config{Capacity: 128, Shards: 2, TTL: time.Minute, Clock: clk})
	for i := 0; i < 8; i++ {
		tb.Insert(key(i), 1, "allow")
	}
	clk.advance(45 * time.Second)
	for i := 0; i < 3; i++ { // three old flows still sending
		if _, ok := tb.Lookup(key(i), 1, nil); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	clk.advance(45 * time.Second)
	for i := 8; i < 12; i++ {
		tb.Insert(key(i), 1, "allow") // fresh at sweep time
	}

	if got := tb.Sweep(); got != 5 {
		t.Fatalf("sweep reclaimed %d, want the 5 idle flows", got)
	}
	if n := count(tb, "live"); n != 7 {
		t.Fatalf("live = %d, want 7", n)
	}
	if n := count(tb, "expired_drops_total"); n != 5 {
		t.Fatalf("expired drops = %d, want 5", n)
	}
	for _, i := range []int{0, 1, 2, 8, 9, 10, 11} {
		if _, ok := tb.Lookup(key(i), 1, nil); !ok {
			t.Fatalf("entry %d in use was swept", i)
		}
	}
	// Second sweep finds nothing.
	if got := tb.Sweep(); got != 0 {
		t.Fatalf("second sweep reclaimed %d", got)
	}
}

// TestSweepNoTTLNoOp: without a TTL the sweep has nothing to expire.
func TestSweepNoTTLNoOp(t *testing.T) {
	tb := New[string](Config{Capacity: 128})
	tb.Insert(key(1), 1, "allow")
	if got := tb.Sweep(); got != 0 {
		t.Fatalf("TTL-less sweep reclaimed %d", got)
	}
	if n := count(tb, "live"); n != 1 {
		t.Fatalf("live = %d", n)
	}
}
