package httpsim

import (
	"bytes"
	"strings"
	"testing"
	"unicode"
)

// marshalSeeds are the requests every producer in this repository builds,
// plus the edges of the rendering: no Host, an empty body, a long body.
var marshalSeeds = []*Request{
	{Method: "GET", Path: "/static/page.html", Host: "files.corp.example", KeepAlive: true},
	{Method: "GET", Path: "/"},
	{Method: "PUT", Path: "/up", Host: "h", Body: bytes.Repeat([]byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), 40)},
	{Method: "POST", Path: "/aap.do", Host: "data.flurry.com", Body: []byte("0123456789")},
}

// roundTrips reports whether ParseRequest can read r's fields back: the
// method and path are single non-empty fields and the host a value the
// header scan neither trims nor splits.
func roundTrips(r *Request) bool {
	field := func(s string) bool { return s != "" && strings.IndexFunc(s, unicode.IsSpace) < 0 }
	return field(r.Method) && field(r.Path) && !strings.Contains(r.Host, "\n") && strings.TrimSpace(r.Host) == r.Host
}

func checkMarshal(t *testing.T, r *Request) {
	t.Helper()
	got := r.Marshal()
	if want := refMarshalRequest(r); !bytes.Equal(got, want) {
		t.Fatalf("Marshal(%+v) = %q, reference %q", r, got, want)
	}
	if len(got) != cap(got) {
		t.Fatalf("Marshal(%+v): %d bytes in a buffer of %d", r, len(got), cap(got))
	}
	if !roundTrips(r) {
		return
	}
	back, err := ParseRequest(got)
	if err != nil {
		t.Fatalf("ParseRequest(Marshal(%+v)): %v", r, err)
	}
	if back.Method != r.Method || back.Path != r.Path || back.Host != r.Host || back.KeepAlive != r.KeepAlive || !bytes.Equal(back.Body, r.Body) {
		t.Fatalf("ParseRequest(Marshal(%+v)) = %+v", r, back)
	}
}

func TestMarshalMatchesReference(t *testing.T) {
	for _, r := range marshalSeeds {
		checkMarshal(t, r)
	}
	if n := testing.AllocsPerRun(100, func() { marshalSeeds[0].Marshal() }); n != 1 {
		t.Fatalf("Marshal: %.0f allocs, want 1", n)
	}
}

// FuzzRequestMarshal: Marshal renders every request byte for byte as the
// fmt-based reference did, into a buffer of exactly its size, and
// ParseRequest reads back every request whose fields it can represent.
func FuzzRequestMarshal(f *testing.F) {
	for _, r := range marshalSeeds {
		f.Add(r.Method, r.Path, r.Host, r.KeepAlive, r.Body)
	}
	f.Fuzz(func(t *testing.T, method, path, host string, keepAlive bool, body []byte) {
		checkMarshal(t, &Request{Method: method, Path: path, Host: host, KeepAlive: keepAlive, Body: body})
	})
}

var sinkBytes []byte

// BenchmarkRequestMarshal renders the benchmark devices' keep-alive GET.
func BenchmarkRequestMarshal(b *testing.B) {
	r := marshalSeeds[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBytes = r.Marshal()
	}
}
