package dns

import (
	"net/netip"
	"slices"
	"testing"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// resolve reads a zone's address set for a name as ZoneHandler does — the
// canonical name, one counted query — and copies it; nil for a name the
// zone lacks.
func resolve(z *Zone, name string) []netip.Addr {
	return slices.Clone(z.lookup([]byte(canonical(name))))
}

func TestZoneResolve(t *testing.T) {
	z := NewZone()
	if err := z.AddRecord("api.dropbox.com", addr("162.125.4.1")); err != nil {
		t.Fatal(err)
	}
	if err := z.AddRecord("api.dropbox.com", addr("162.125.4.2")); err != nil {
		t.Fatal(err)
	}
	if addrs := resolve(z, "API.Dropbox.Com."); len(addrs) != 2 { // case + trailing dot
		t.Fatalf("addrs = %v", addrs)
	}
	if addrs := resolve(z, "nope.example"); addrs != nil {
		t.Fatalf("unknown name resolved to %v", addrs)
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
	addrs := resolve(z, "x.example")
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
