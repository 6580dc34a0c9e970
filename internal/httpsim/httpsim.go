// Package httpsim implements a minimal HTTP/1.1-style request/response
// wire format over simulated socket payloads. It supports exactly what the
// paper's workloads need: GET for downloads and the 297-byte static page of
// the stress test (§VI-D), PUT/POST for uploads, keep-alive connections for
// the amortization argument, and content sizing for the flow-size analysis
// (§VII).
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Request is a parsed HTTP request.
type Request struct {
	Method    string
	Path      string
	Host      string
	KeepAlive bool
	Body      []byte
}

// Response is a parsed HTTP response.
type Response struct {
	Status    int
	KeepAlive bool
	Body      []byte
}

// Errors produced by parsing.
var (
	ErrMalformed = errors.New("httpsim: malformed message")
)

// Marshal renders the request in HTTP/1.1 wire form, into one buffer of
// exactly its size.
func (r *Request) Marshal() []byte {
	const proto, host, clenKey, end = " HTTP/1.1\r\n", "Host: ", "Content-Length: ", "\r\n\r\n"
	conn := "Connection: close\r\n"
	if r.KeepAlive {
		conn = "Connection: keep-alive\r\n"
	}
	var digits [20]byte
	clen := strconv.AppendInt(digits[:0], int64(len(r.Body)), 10)
	size := len(r.Method) + 1 + len(r.Path) + len(proto) + len(conn) + len(clenKey) + len(clen) + len(end) + len(r.Body)
	if r.Host != "" {
		size += len(host) + len(r.Host) + 2
	}
	b := append(make([]byte, 0, size), r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, proto...)
	if r.Host != "" {
		b = append(b, host...)
		b = append(b, r.Host...)
		b = append(b, "\r\n"...)
	}
	b = append(b, conn...)
	b = append(b, clenKey...)
	b = append(b, clen...)
	b = append(b, end...)
	return append(b, r.Body...)
}

// ParseRequest parses a request from wire form. Method, Path and Host are
// cut from one copy of the start line and headers, and Body aliases data —
// two allocations per request, whatever the body size. Callers must
// therefore leave data unmodified for as long as they hold the request,
// which the network guarantees by never writing an emitted payload (see
// ipv4.Packet).
func ParseRequest(data []byte) (*Request, error) {
	h, err := parseHead(data)
	if err != nil {
		return nil, err
	}
	method, rest := cutField(h.start)
	path, rest := cutField(rest)
	proto, rest := cutField(rest)
	if extra, _ := cutField(rest); extra != "" || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, h.start)
	}
	return &Request{Method: method, Path: path, Host: h.host, KeepAlive: h.keepAlive, Body: h.body}, nil
}

// Marshal renders the response in HTTP/1.1 wire form.
func (r *Response) Marshal() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", r.Status, statusText(r.Status))
	if r.KeepAlive {
		b.WriteString("Connection: keep-alive\r\n")
	} else {
		b.WriteString("Connection: close\r\n")
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	b.WriteString("\r\n")
	b.Write(r.Body)
	return b.Bytes()
}

// ParseResponse parses a response from wire form; Body aliases data as in
// ParseRequest.
func ParseResponse(data []byte) (*Response, error) {
	h, err := parseHead(data)
	if err != nil {
		return nil, err
	}
	proto, rest := cutField(h.start)
	code, _ := cutField(rest)
	if code == "" || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, h.start)
	}
	status, err := strconv.Atoi(code)
	if err != nil {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, code)
	}
	return &Response{Status: status, KeepAlive: h.keepAlive, Body: h.body}, nil
}

// head is what a message's start line and header block yield: the start
// line for the caller to pick apart, the three headers this wire format
// reads, and the body they frame.
type head struct {
	start     string
	host      string
	keepAlive bool
	body      []byte
}

// parseHead scans a message front to back: lines end at '\n' (a preceding
// '\r' is trimmed with the rest of the surrounding whitespace), the first
// blank line after the start line ends the headers, the last
// Content-Length and Connection win, the first Host wins, and bytes past
// the declared body are ignored.
func parseHead(data []byte) (head, error) {
	block, err := headerBlock(data)
	if err != nil {
		return head{}, err
	}
	body := data[len(block):]
	var h head
	h.start, block, _ = strings.Cut(block, "\n")
	contentLen, haveHost := 0, false
	for {
		var line string
		line, block, _ = strings.Cut(block, "\n")
		if line = strings.TrimSpace(line); line == "" {
			break // the terminator headerBlock stopped on
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return head{}, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case keyIs(key, "content-length"):
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return head{}, fmt.Errorf("%w: content-length %q", ErrMalformed, val)
			}
			contentLen = n
		case keyIs(key, "connection"):
			h.keepAlive = strings.EqualFold(val, "keep-alive")
		case !haveHost && keyIs(key, "host"):
			h.host, haveHost = val, true
		}
	}
	if contentLen > len(body) {
		return head{}, fmt.Errorf("%w: body: %d of %d bytes", ErrMalformed, len(body), contentLen)
	}
	h.body = body[:contentLen:contentLen]
	return h, nil
}

// headerBlock returns the start line and header lines of a message, blank
// terminator included, as one string — the only copy parsing makes.
func headerBlock(data []byte) (string, error) {
	end := 0
	for {
		nl := bytes.IndexByte(data[end:], '\n')
		if nl < 0 {
			return "", fmt.Errorf("%w: headers end at byte %d without a blank line", ErrMalformed, len(data))
		}
		blank := end > 0 && len(bytes.TrimSpace(data[end:end+nl])) == 0
		end += nl + 1
		if blank {
			return string(data[:end]), nil
		}
	}
}

// cutField returns the first whitespace-delimited field of s and what
// follows it: strings.Fields one field at a time, without the slice.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// keyIs reports whether strings.ToLower(key) == lower, lowering ASCII in
// place so that the headers every producer emits cost no allocation.
func keyIs(key, lower string) bool {
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= utf8.RuneSelf {
			// A few non-ASCII runes lower to ASCII letters (U+0130, U+212A).
			return strings.ToLower(key) == lower
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if i >= len(lower) || c != lower[i] {
			return false
		}
	}
	return len(key) == len(lower)
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	default:
		return "Status"
	}
}

// StaticPageSize is the size of the stress-test page: the paper serves a
// static 297-byte HTML page from a local server (§VI-D).
const StaticPageSize = 297

// StaticPage returns the deterministic 297-byte HTML document used by the
// Fig. 4 stress test.
func StaticPage() []byte {
	const prefix = "<!DOCTYPE html><html><head><title>bp-stress</title></head><body><p>"
	const suffix = "</p></body></html>"
	fill := StaticPageSize - len(prefix) - len(suffix)
	var b bytes.Buffer
	b.Grow(StaticPageSize)
	b.WriteString(prefix)
	for i := 0; i < fill; i++ {
		b.WriteByte(byte('a' + i%26))
	}
	b.WriteString(suffix)
	return b.Bytes()
}

// Handler produces a response for a request (server-side application
// logic).
type Handler func(req *Request) *Response

// StaticHandler always serves the given body with 200 OK, honouring the
// request's keep-alive preference.
func StaticHandler(body []byte) Handler {
	return func(req *Request) *Response {
		return &Response{Status: 200, KeepAlive: req.KeepAlive, Body: body}
	}
}
