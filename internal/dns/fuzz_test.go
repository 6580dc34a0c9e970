package dns

import (
	"net/netip"
	"slices"
	"testing"
)

// seedQueries are well-formed queries plus the damage a device could send.
func seedQueries(f *testing.F) {
	for _, name := range []string{"files.corp.example", "c2.tracker.example", "a"} {
		q, err := (&Query{ID: 7, Name: name}).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q)
		f.Add(q[:len(q)-1]) // name cut short
	}
	f.Add([]byte{0, 1, 0x80, 1, 'x'}) // QR set
	f.Add([]byte{0, 1, 0, 1, 'X'})    // upper case
	f.Add([]byte{0, 1, 0, 2, 'x', '.'})
}

// FuzzParseQuery: no input panics the parser, and a query it accepts
// marshals back to a message that parses to the same query.
func FuzzParseQuery(f *testing.F) {
	seedQueries(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := ParseQuery(b)
		if err != nil {
			return
		}
		wire, err := q.Marshal()
		if err != nil {
			t.Fatalf("accepted query %+v does not marshal: %v", q, err)
		}
		back, err := ParseQuery(wire)
		if err != nil || *back != *q {
			t.Fatalf("query %+v came back as %+v, %v", q, back, err)
		}
	})
}

// FuzzZoneHandler: the handler a DNS server runs on device-supplied bytes
// never panics, answers exactly the queries ParseQuery accepts, echoes
// their ID, and answers what the zone resolves.
func FuzzZoneHandler(f *testing.F) {
	seedQueries(f)
	z := NewZone()
	for _, r := range []struct{ name, addr string }{
		{"files.corp.example", "10.80.0.10"}, {"files.corp.example", "10.80.0.11"}, {"a", "10.80.0.12"},
	} {
		if err := z.AddRecord(r.name, netip.MustParseAddr(r.addr)); err != nil {
			f.Fatal(err)
		}
	}
	h := ZoneHandler(z)
	f.Fuzz(func(t *testing.T, b []byte) {
		out := h(b)
		q, err := ParseQuery(b)
		if err != nil {
			if out != nil {
				t.Fatalf("answered a malformed query: %x", out)
			}
			return
		}
		ans, err := ParseAnswer(out)
		if err != nil {
			t.Fatalf("answer to %+v does not parse: %v", q, err)
		}
		want, _ := z.Resolve(q.Name)
		if ans.ID != q.ID || !slices.Equal(ans.Addrs, want) || (ans.RCode == RCodeNXDomain) != (want == nil) {
			t.Fatalf("query %+v answered %+v, zone resolves %v", q, ans, want)
		}
	})
}
