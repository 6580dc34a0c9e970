package httpsim

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"
	"unsafe"
)

// wellFramed matches a message whose start line and headers are what every
// producer in this repository emits: printable-ASCII lines ending in CRLF,
// header keys free of whitespace, an empty line to finish.
//
// Host is the one field the forward scan reads by a different rule than
// the reference did. The reference found it in a second pass with its own
// line discipline — it split the whole message on CRLF only (so bare-LF
// lines ran together), did not stop at a whitespace-only terminator (so it
// could read a "host:" line out of the body), wanted "host:" at the very
// start of a line and looked at the request line too. The forward scan
// reads Host like the other two headers. On well-framed messages whose
// request line does not itself begin with "host:" the two rules coincide,
// and the differential pins Host on exactly those; accept/reject and every
// other field are compared on every input.
var wellFramed = regexp.MustCompile(`^[!-~][ -~]*\r\n([!-9;-~]+:[ -~]*\r\n)*\r\n`)

func hostComparable(data []byte) bool {
	return wellFramed.Match(data) && !(len(data) >= 5 && strings.EqualFold(string(data[:5]), "host:"))
}

func diffRequest(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refParseRequest(data)
	got, err := ParseRequest(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseRequest(%q): err %v, reference err %v", data, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseRequest(%q): %v is not ErrMalformed", data, err)
		}
		return
	}
	if got.Method != want.Method || got.Path != want.Path || got.KeepAlive != want.KeepAlive ||
		!bytes.Equal(got.Body, want.Body) {
		t.Fatalf("ParseRequest(%q) = %+v, reference %+v", data, got, want)
	}
	if hostComparable(data) && got.Host != want.Host {
		t.Fatalf("ParseRequest(%q): Host %q, reference %q", data, got.Host, want.Host)
	}
}

func diffResponse(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refParseResponse(data)
	got, err := ParseResponse(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseResponse(%q): err %v, reference err %v", data, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseResponse(%q): %v is not ErrMalformed", data, err)
		}
		return
	}
	if got.Status != want.Status || got.KeepAlive != want.KeepAlive || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("ParseResponse(%q) = %+v, reference %+v", data, got, want)
	}
}

// errorTable is TestParseErrors' inputs, shared with the differential and
// the fuzz seeds.
var errorTable = []string{
	"",
	"GARBAGE",
	"GET /\r\n\r\n",
	"GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
	"GET / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n",
	"HTTP/1.1\r\n\r\n",
	"HTTP/1.1 abc OK\r\n\r\n",
	"NOTHTTP 200 OK\r\n\r\n",
}

// corpus generates messages around every rule the parsers apply: both line
// endings, padded and Unicode-space terminators, mixed-case and non-ASCII
// keys that lower to ASCII, duplicate Host, every Content-Length shape,
// trailing bytes after the body.
func corpus() [][]byte {
	starts := []string{
		"GET /index.html HTTP/1.1", "PUT  /up\tHTTP/1.0 ", "HTTP/1.1 200 OK", "HTTP/1.1 404",
		"host: x HTTP/1.1", "GET / HTTP/1.1 extra", "GET / HTTP/1.1", " GET / HTTP/2", "GET / http/1.1",
	}
	hosts := []string{"", "Host: a.example", "hOsT:b.example", "Host: a\nHost: b", " Host: padded", "Host : spaced", "Host:"}
	lengths := []string{"", "Content-Length: 0", "content-length: 4", "CONTENT-LENGTH:4\nContent-Length: 2",
		"Content-Length: -1", "Content-Length: +3", "Content-Length: 007", "Content-Length: 99999",
		"Content-Length: 99999999999999999999", "Content-Length: 4 4", "Content-Length:", "Content-Length: 2\nContent-Length: x"}
	conns := []string{"", "Connection: keep-alive", "connection: Keep-Alive", "Connection: close",
		"Connection: keep-alive\nConnection: close", "Connectİon: keep-alive", "Connection: Keep-alive", "Connection keep-alive"}
	framings := []struct{ end, term, body string }{
		{"\r\n", "", ""},
		{"\r\n", "", "body, then trailing bytes"},
		{"\n", "", "body"},
		{"\r\n", " ", "host: from-body\r\n\r\n"},
		{"\n", "\t\v", ""},
	}
	var out [][]byte
	for _, start := range starts {
		for _, host := range hosts {
			for _, length := range lengths {
				for _, conn := range conns {
					// Rotate the framing against the other axes instead of
					// multiplying by it: five is coprime to every axis length,
					// so each value of each axis meets each framing.
					f := framings[len(out)%len(framings)]
					var b strings.Builder
					b.WriteString(start + f.end)
					for _, h := range []string{host, length, conn} {
						if h != "" {
							b.WriteString(strings.ReplaceAll(h, "\n", f.end) + f.end)
						}
					}
					b.WriteString(f.term + f.end + f.body)
					out = append(out, []byte(b.String()))
				}
			}
		}
	}
	for _, raw := range errorTable {
		out = append(out, []byte(raw))
	}
	out = append(out,
		(&Request{Method: "POST", Path: "/p", Host: "h.example", KeepAlive: true, Body: []byte("0123456789")}).Marshal(),
		(&Response{Status: 200, KeepAlive: true, Body: StaticPage()}).Marshal(),
		[]byte("GET / HTTP/1.1\r\nHost: a\r\n \r\nHost: b\r\n\r\n"),
		[]byte("\r\nGET / HTTP/1.1\r\n\r\n"),
		[]byte("GET / HTTP/1.1\n\n"),
		[]byte("GET / HTTP/1.1\r\n\r"),
	)
	return append(out, unicodeSpaceSeeds...)
}

// unicodeSpaceSeeds put non-ASCII whitespace everywhere the parse trims or
// splits, so the fuzzer starts from the Unicode-aware rules the ASCII fast
// path hands over to: NBSP and EM SPACE in the request line, NBSP padding a
// header key and value, a NEL-only line as the terminator, and a non-space
// multi-byte rune and an invalid byte at a trimmed edge.
var unicodeSpaceSeeds = [][]byte{
	[]byte("GET\u00a0/x\u2003HTTP/1.1\r\nHost: a\r\n\r\n"),
	[]byte("GET /x HTTP/1.1\u00a0\r\n\u00a0Connection\u00a0:\u00a0keep-alive\u00a0\r\nContent-Length:\u20032\u2003\r\n\r\nhi"),
	[]byte("GET /x HTTP/1.1\r\nHost: a\r\n\u0085\r\nbody"),
	[]byte("GET /\u00e9 HTTP/1.1\r\nHost: \u00e9.example\u00e9\r\n\xff\r\n\r\n"),
}

func TestParseMatchesReference(t *testing.T) {
	msgs := corpus()
	hostsCompared := 0
	for _, data := range msgs {
		diffRequest(t, data)
		diffResponse(t, data)
		if req, err := ParseRequest(data); err == nil && req.Host != "" && hostComparable(data) {
			hostsCompared++
		}
	}
	if hostsCompared < 20 {
		t.Fatalf("a non-empty Host was compared on %d of %d messages: the corpus no longer exercises it", hostsCompared, len(msgs))
	}
}

// TestParseHostForwardScan pins Host where the forward scan's rule and the
// reference's second pass part ways (see wellFramed).
func TestParseHostForwardScan(t *testing.T) {
	for raw, want := range map[string]string{
		"GET / HTTP/1.1\nHost: lf.example\n\n":                       "lf.example", // reference: "" (no CRLF to split on)
		"GET / HTTP/1.1\r\n \r\nhost: body\r\n\r\n":                  "",           // reference: "body", read past the terminator
		"host: x HTTP/1.1\r\n\r\n":                                   "",           // reference: "x HTTP/1.1", the request line
		"GET / HTTP/1.1\r\n Host : padded\r\n\r\n":                   "padded",     // reference: "" (key not at line start)
		"GET / HTTP/1.1\r\nHost: first\r\nHost: second\r\n\r\n":      "first",
		"GET / HTTP/1.1\r\nHost:\r\nHost: after-empty\r\n\r\n":       "",
		"GET / HTTP/1.1\r\nX-Host: no\r\nHOST:\tyes.example\r\n\r\n": "yes.example",
	} {
		req, err := ParseRequest([]byte(raw))
		if err != nil {
			t.Fatalf("ParseRequest(%q): %v", raw, err)
		}
		if req.Host != want {
			t.Errorf("ParseRequest(%q).Host = %q, want %q", raw, req.Host, want)
		}
	}
}

func FuzzParseRequest(f *testing.F) {
	for _, data := range corpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffRequest(t, data) })
}

func FuzzParseResponse(f *testing.F) {
	for _, data := range corpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffResponse(t, data) })
}

// benchRequest is the keep-alive GET the benchmark's devices send.
func benchRequest() []byte {
	return (&Request{Method: "GET", Path: "/static/page.html", Host: "files.corp.example", KeepAlive: true}).Marshal()
}

// TestParseAllocs pins the copy-free contract: ParseRequest and
// ParseResponse allocate their struct and nothing else, and the in-place
// parse allocates nothing on every form Request.Marshal emits — with and
// without Host, keep-alive or close, empty or long body.
func TestParseAllocs(t *testing.T) {
	get := benchRequest()
	put := (&Request{Method: "PUT", Path: "/up", Host: "h", Body: bytes.Repeat([]byte{7}, 64<<10)}).Marshal()
	resp := (&Response{Status: 200, KeepAlive: true, Body: StaticPage()}).Marshal()
	for name, parse := range map[string]func(){
		"GET":      func() { _, _ = ParseRequest(get) },
		"PUT 64K":  func() { _, _ = ParseRequest(put) },
		"response": func() { _, _ = ParseResponse(resp) },
	} {
		if n := testing.AllocsPerRun(200, parse); n > 1 {
			t.Errorf("%s: %.0f allocs per parse, want <= 1", name, n)
		}
	}
	var req Request
	for _, seed := range marshalSeeds {
		for _, keepAlive := range []bool{false, true} {
			r := *seed
			r.KeepAlive = keepAlive
			data := r.Marshal()
			if n := testing.AllocsPerRun(200, func() {
				if err := req.Parse(data); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Parse(%q): %.0f allocs, want 0", data, n)
			}
		}
	}
}

// TestParseBodyAliasesInput pins the other half of the contract: every
// field is a view of the caller's bytes, not a copy, and the body cannot be
// grown into what follows.
func TestParseBodyAliasesInput(t *testing.T) {
	data := append((&Request{Method: "PUT", Path: "/up", Host: "h.example", Body: []byte("payload")}).Marshal(), "trailing"...)
	req, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("payload"))
	if unsafe.SliceData(req.Body) != &data[at] {
		t.Fatal("Body is a copy of the input, not a view of it")
	}
	if cap(req.Body) != len(req.Body) {
		t.Fatalf("Body has cap %d past its len %d: an append would write into the caller's trailing bytes", cap(req.Body), len(req.Body))
	}
	for name, field := range map[string]string{"Method": req.Method, "Path": req.Path, "Host": req.Host} {
		if at := bytes.Index(data, []byte(field)); unsafe.StringData(field) != &data[at] {
			t.Errorf("%s is a copy of the input, not a view of it", name)
		}
	}
}

// TestParseOverwritesRequest pins the reuse contract of the in-place parse:
// a request parsed into a used Request keeps nothing of its predecessor,
// and a failed parse leaves it zeroed.
func TestParseOverwritesRequest(t *testing.T) {
	req := Request{Method: "PUT", Path: "/old", Host: "old.example", KeepAlive: true, Body: []byte("old")}
	if err := req.Parse([]byte("GET /new HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if want := (Request{Method: "GET", Path: "/new", Body: []byte{}}); req.Method != want.Method || req.Path != want.Path ||
		req.Host != "" || req.KeepAlive || len(req.Body) != 0 {
		t.Fatalf("reused request = %+v, want %+v", req, want)
	}
	if err := req.Parse([]byte("GARBAGE")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Parse(GARBAGE) err = %v", err)
	}
	if req.Method != "" || req.Path != "" || req.Body != nil {
		t.Fatalf("failed parse left %+v", req)
	}
}

var sinkRequest *Request

func BenchmarkParseRequest(b *testing.B) {
	data := benchRequest()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := ParseRequest(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkRequest = req
	}
}
