package dns

import (
	"errors"
	"net/netip"
	"testing"
)

func TestQueryRoundTrip(t *testing.T) {
	q := &Query{ID: 0xbeef, Name: "Files.Corp.Example."}
	wire, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseQuery(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 0xbeef || back.Name != "files.corp.example" {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestQueryErrors(t *testing.T) {
	if _, err := (&Query{ID: 1}).Marshal(); !errors.Is(err, ErrWireMalformed) {
		t.Fatalf("empty name: %v", err)
	}
	for _, raw := range [][]byte{nil, {1}, {0, 1, 0x80, 1, 'x'}, {0, 1, 0, 5, 'x'}, {0, 1, 0, 1, 'X'}, {0, 1, 0, 2, 'x', '.'}} {
		if _, err := ParseQuery(raw); !errors.Is(err, ErrWireMalformed) {
			t.Fatalf("ParseQuery(%v): %v", raw, err)
		}
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	a := &Answer{ID: 7, Addrs: []netip.Addr{
		netip.MustParseAddr("10.80.0.10"),
		netip.MustParseAddr("10.80.0.11"),
	}}
	wire, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseAnswer(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 7 || back.RCode != RCodeOK || len(back.Addrs) != 2 || back.Addrs[1] != a.Addrs[1] {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestAnswerErrors(t *testing.T) {
	if _, err := ParseAnswer([]byte{0, 1, 0, 0}); !errors.Is(err, ErrWireMalformed) {
		t.Fatalf("QR clear: %v", err)
	}
	if _, err := ParseAnswer([]byte{0, 1, 0x80, 2, 1, 2, 3, 4}); !errors.Is(err, ErrWireMalformed) {
		t.Fatalf("count mismatch: %v", err)
	}
}

func TestZoneHandler(t *testing.T) {
	z := NewZone()
	if err := z.AddRecord("files.corp.example", netip.MustParseAddr("10.80.0.10")); err != nil {
		t.Fatal(err)
	}
	h := ZoneHandler(z)

	q, _ := (&Query{ID: 42, Name: "files.corp.example"}).Marshal()
	ans, err := ParseAnswer(h(q))
	if err != nil {
		t.Fatal(err)
	}
	if ans.ID != 42 || ans.RCode != RCodeOK || len(ans.Addrs) != 1 || ans.Addrs[0] != netip.MustParseAddr("10.80.0.10") {
		t.Fatalf("answer = %+v", ans)
	}

	nx, _ := (&Query{ID: 43, Name: "nope.example"}).Marshal()
	ans, err = ParseAnswer(h(nx))
	if err != nil {
		t.Fatal(err)
	}
	if ans.ID != 43 || ans.RCode != RCodeNXDomain || len(ans.Addrs) != 0 {
		t.Fatalf("nxdomain answer = %+v", ans)
	}

	if h([]byte("junk")) != nil {
		t.Fatal("undecodable query answered")
	}
	if z.Queries() != 2 {
		t.Fatalf("zone queries = %d, want 2", z.Queries())
	}
}
