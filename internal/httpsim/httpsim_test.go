package httpsim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method:    "GET",
		Path:      "/index.html",
		Host:      "files.corp.example",
		KeepAlive: true,
		Body:      nil,
	}
	got, err := ParseRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Path != "/index.html" || !got.KeepAlive || got.Host != "files.corp.example" {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.Body) != 0 {
		t.Fatalf("phantom body: %q", got.Body)
	}
}

func TestRequestWithBody(t *testing.T) {
	body := bytes.Repeat([]byte{0x42}, 1000)
	req := &Request{Method: "PUT", Path: "/upload/doc.pdf", Body: body}
	got, err := ParseRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "PUT" || !bytes.Equal(got.Body, body) {
		t.Fatal("body lost in round trip")
	}
	if got.KeepAlive {
		t.Fatal("keep-alive default must be false")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{Status: 200, KeepAlive: true, Body: StaticPage()}
	got, err := ParseResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != 200 || !got.KeepAlive || !bytes.Equal(got.Body, StaticPage()) {
		t.Fatal("response round trip failed")
	}
	for _, code := range []int{201, 403, 404, 599} {
		r := &Response{Status: code}
		back, err := ParseResponse(r.Marshal())
		if err != nil || back.Status != code {
			t.Fatalf("status %d round trip: %v", code, err)
		}
	}
}

func TestStaticPageExactly297Bytes(t *testing.T) {
	page := StaticPage()
	if len(page) != StaticPageSize || StaticPageSize != 297 {
		t.Fatalf("static page is %d bytes, want 297", len(page))
	}
	if !bytes.Equal(page, StaticPage()) {
		t.Fatal("static page not deterministic")
	}
}

func TestParseErrors(t *testing.T) {
	badReqs := [][]byte{
		nil,
		[]byte("GARBAGE"),
		[]byte("GET /\r\n\r\n"), // missing HTTP version
		[]byte("GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n"),           // bad header
		[]byte("GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),      // negative length
		[]byte("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"), // truncated body
		[]byte("GET / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n"),     // non-numeric length
	}
	for _, raw := range badReqs {
		if _, err := ParseRequest(raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseRequest(%q) err = %v, want ErrMalformed", raw, err)
		}
	}
	badResps := [][]byte{
		nil,
		[]byte("HTTP/1.1\r\n\r\n"),        // no status
		[]byte("HTTP/1.1 abc OK\r\n\r\n"), // non-numeric status
		[]byte("NOTHTTP 200 OK\r\n\r\n"),  // bad prefix
	}
	for _, raw := range badResps {
		if _, err := ParseResponse(raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseResponse(%q) err = %v, want ErrMalformed", raw, err)
		}
	}
}

func TestStaticHandler(t *testing.T) {
	h := StaticHandler([]byte("hello"))
	resp := h(&Request{Method: "GET", Path: "/", KeepAlive: true})
	if resp.Status != 200 || string(resp.Body) != "hello" || !resp.KeepAlive {
		t.Fatalf("resp = %+v", resp)
	}
	resp = h(&Request{Method: "GET", Path: "/"})
	if resp.KeepAlive {
		t.Fatal("handler must mirror keep-alive=false")
	}
	// The two responses are built once and shared: serving allocates nothing.
	req := &Request{Method: "GET", Path: "/", KeepAlive: true}
	if h(req) != h(&Request{KeepAlive: true}) || h(&Request{}) != resp {
		t.Fatal("StaticHandler built a fresh response per call")
	}
	if n := testing.AllocsPerRun(100, func() { h(req) }); n != 0 {
		t.Fatalf("StaticHandler: %.0f allocs per call, want 0", n)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(pathSeed uint16, keep bool, body []byte) bool {
		req := &Request{
			Method:    "POST",
			Path:      "/p" + itoa(int(pathSeed)),
			Host:      "h.example",
			KeepAlive: keep,
			Body:      body,
		}
		got, err := ParseRequest(req.Marshal())
		if err != nil {
			return false
		}
		return got.Path == req.Path && got.KeepAlive == keep && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = ParseRequest(data)
		_, _ = ParseResponse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
