package dns

import (
	"errors"
	"net/netip"
	"testing"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestZoneResolve(t *testing.T) {
	z := NewZone()
	if err := z.AddRecord("api.dropbox.com", addr("162.125.4.1")); err != nil {
		t.Fatal(err)
	}
	if err := z.AddRecord("api.dropbox.com", addr("162.125.4.2")); err != nil {
		t.Fatal(err)
	}
	addrs, err := z.Resolve("API.Dropbox.Com.") // case + trailing dot
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 {
		t.Fatalf("addrs = %v", addrs)
	}
	if _, err := z.Resolve("nope.example"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
	if z.Queries() != 2 {
		t.Fatalf("queries = %d", z.Queries())
	}
}

func TestZoneDuplicateRecordIdempotent(t *testing.T) {
	z := NewZone()
	for i := 0; i < 3; i++ {
		if err := z.AddRecord("x.example", addr("10.0.0.1")); err != nil {
			t.Fatal(err)
		}
	}
	addrs, _ := z.Resolve("x.example")
	if len(addrs) != 1 {
		t.Fatalf("duplicates accumulated: %v", addrs)
	}
}

func TestZoneErrors(t *testing.T) {
	z := NewZone()
	if err := z.AddRecord("", addr("10.0.0.1")); err == nil {
		t.Error("empty name accepted")
	}
	if err := z.AddRecord("x.example", netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Error("IPv6 accepted in v4 zone")
	}
}

func TestReverseLookup(t *testing.T) {
	z := NewZone()
	shared := addr("31.13.66.19")
	_ = z.AddRecord("graph.facebook.com", shared)
	_ = z.AddRecord("login.facebook.com", shared)
	names := z.NamesFor(shared)
	if len(names) != 2 || names[0] != "graph.facebook.com" {
		t.Fatalf("names = %v", names)
	}
	if got := z.NamesFor(addr("1.2.3.4")); len(got) != 0 {
		t.Fatalf("phantom names %v", got)
	}
}

func TestNameBlocklistExactAndSuffix(t *testing.T) {
	z := NewZone()
	b := NewNameBlocklist(z)
	b.Block("data.flurry.com")
	b.Block(".doubleclick.net")
	if !b.NameBlocked("data.flurry.com") {
		t.Error("exact name not blocked")
	}
	if !b.NameBlocked("ads.g.DoubleClick.net") {
		t.Error("suffix not blocked")
	}
	if b.NameBlocked("flurry.com") {
		t.Error("parent name wrongly blocked")
	}
}

func TestSharedHostingCollateral(t *testing.T) {
	// The baseline's failure mode: graph and login share one IP. Blocking
	// the analytics name at packet level takes the login down with it.
	z := NewZone()
	shared := addr("31.13.66.19")
	_ = z.AddRecord("graph.facebook.com", shared)
	_ = z.AddRecord("login.facebook.com", shared)
	b := NewNameBlocklist(z)
	b.Block("graph.facebook.com")

	blocked, collateral := b.AddrBlocked(shared)
	if !blocked {
		t.Fatal("address not blocked")
	}
	if len(collateral) != 1 || collateral[0] != "login.facebook.com" {
		t.Fatalf("collateral = %v", collateral)
	}
	// Unrelated addresses stay open.
	if blocked, _ := b.AddrBlocked(addr("8.8.8.8")); blocked {
		t.Fatal("unrelated address blocked")
	}
}

func TestUnlistedNameEscapes(t *testing.T) {
	// A tracker endpoint absent from the zone at rule time is invisible to
	// name-based blocking — BorderPatrol's stack context has no such gap.
	z := NewZone()
	b := NewNameBlocklist(z)
	b.Block("data.flurry.com")
	if blocked, _ := b.AddrBlocked(addr("203.0.113.77")); blocked {
		t.Fatal("unknown address blocked without any record")
	}
}

// TestZoneAddressSetLimit: a name holds at most the 255 addresses one
// answer can carry. The 256th is refused, so every name the zone holds is
// answered.
func TestZoneAddressSetLimit(t *testing.T) {
	z := NewZone()
	nth := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}) }
	for i := 0; i < maxAnswers; i++ {
		if err := z.AddRecord("big.example", nth(i)); err != nil {
			t.Fatalf("address %d: %v", i+1, err)
		}
	}
	if err := z.AddRecord("big.example", nth(0)); err != nil {
		t.Fatalf("re-adding a held address at the limit: %v", err)
	}
	if err := z.AddRecord("big.example", nth(maxAnswers)); err == nil {
		t.Fatal("address 256 accepted")
	}
	q, err := (&Query{ID: 9, Name: "big.example"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ParseAnswer(ZoneHandler(z)(q))
	if err != nil {
		t.Fatal(err)
	}
	if ans.RCode != RCodeOK || len(ans.Addrs) != maxAnswers || ans.Addrs[maxAnswers-1] != nth(maxAnswers-1) {
		t.Fatalf("answer has rcode %d and %d addresses", ans.RCode, len(ans.Addrs))
	}
}
