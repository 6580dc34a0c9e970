package dns

import (
	"bytes"
	"net/netip"
	"reflect"
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
	f.Add([]byte{0, 1, 0, 2, 0xc3, 0x89}) // É: upper case, not ASCII
	f.Add([]byte{0, 1, 0, 1, 0xff})       // invalid UTF-8
	f.Add([]byte{0, 1, 0, 3, 0xc3, 0xa9, '.'})
}

// FuzzParseQuery: no input panics the parser, the byte-level canonical
// check agrees with the string expression it stands for, and a query the
// parser accepts marshals back to a message that parses to the same query.
func FuzzParseQuery(f *testing.F) {
	seedQueries(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4 {
			name := b[4:]
			s := string(name)
			if got, ref := isCanonical(name), canonical(s) == s; got != ref {
				t.Fatalf("isCanonical(%q) = %v, canonical(s) == s is %v", s, got, ref)
			}
		}
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
// never panics, answers exactly the queries ParseQuery accepts, and its
// answer is byte for byte the Answer that Marshal renders from the query's
// ID and the zone's address set for the name.
func FuzzZoneHandler(f *testing.F) {
	seedQueries(f)
	z := NewZone()
	for _, r := range []struct{ name, addr string }{
		{"files.corp.example", "10.80.0.10"}, {"files.corp.example", "10.80.0.11"}, {"a", "10.80.0.12"},
		{"é.corp.example", "10.80.0.13"},
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
		ans := &Answer{ID: q.ID, Addrs: resolve(z, q.Name)}
		if ans.Addrs == nil {
			ans.RCode = RCodeNXDomain
		}
		want, err := ans.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("query %+v answered %x, want %x", q, out, want)
		}
	})
}

// FuzzParseAnswer: no input panics the answer parser, and an answer it
// accepts marshals back to a message that parses to the same answer.
func FuzzParseAnswer(f *testing.F) {
	for _, a := range []*Answer{
		{ID: 7},
		{ID: 9, RCode: RCodeNXDomain},
		{ID: 0xbeef, Addrs: []netip.Addr{netip.MustParseAddr("10.80.0.10"), netip.MustParseAddr("10.80.0.11")}},
	} {
		b, err := a.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1]) // cut short
	}
	f.Add([]byte{0, 1, 0, 0})                   // QR clear
	f.Add([]byte{0, 1, 0xff, 1, 10, 80, 0, 10}) // every flag bit set
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := ParseAnswer(b)
		if err != nil {
			return
		}
		wire, err := a.Marshal()
		if err != nil {
			t.Fatalf("accepted answer %+v does not marshal: %v", a, err)
		}
		back, err := ParseAnswer(wire)
		if err != nil || !reflect.DeepEqual(back, a) {
			t.Fatalf("answer %+v came back as %+v, %v", a, back, err)
		}
	})
}
