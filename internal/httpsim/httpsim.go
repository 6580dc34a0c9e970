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
	"unsafe"
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

// ParseRequest parses a request from wire form into a new Request (see
// Request.Parse): one allocation, the struct, whatever the message size.
func ParseRequest(data []byte) (*Request, error) {
	req := new(Request)
	if err := req.Parse(data); err != nil {
		return nil, err
	}
	return req, nil
}

// Parse parses a request from wire form into r, overwriting every field,
// and allocates nothing: Method, Path and Host are views of data's start
// line and headers, and Body a view of its body. Callers must therefore
// leave data unmodified for as long as they hold r's fields, which the
// network guarantees by never writing an emitted payload (see ipv4.Packet).
// On error r is left zeroed.
func (r *Request) Parse(data []byte) error {
	*r = Request{}
	h, err := parseHead(data)
	if err != nil {
		return err
	}
	method, rest := cutField(h.start)
	path, rest := cutField(rest)
	proto, rest := cutField(rest)
	if extra, _ := cutField(rest); extra != "" || !strings.HasPrefix(proto, "HTTP/") {
		return fmt.Errorf("%w: request line %q", ErrMalformed, h.start)
	}
	*r = Request{Method: method, Path: path, Host: h.host, KeepAlive: h.keepAlive, Body: h.body}
	return nil
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

// parseHead scans a message front to back, once: lines end at '\n' (a
// preceding '\r' is trimmed with the rest of the surrounding whitespace),
// the first blank line after the start line ends the headers, the last
// Content-Length and Connection win, the first Host wins, and bytes past
// the declared body are ignored. Every string it returns is a view of
// data, not a copy.
func parseHead(data []byte) (head, error) {
	s := unsafe.String(unsafe.SliceData(data), len(data))
	var h head
	var rest string
	var ok bool
	if h.start, rest, ok = strings.Cut(s, "\n"); !ok {
		return head{}, errUnterminated(len(data))
	}
	contentLen, haveHost := 0, false
	for {
		var line string
		if line, rest, ok = strings.Cut(rest, "\n"); !ok {
			return head{}, errUnterminated(len(data))
		}
		if line = trimSpace(line); line == "" {
			break
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return head{}, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		key, val = trimSpace(key), trimSpace(val)
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
	body := data[len(data)-len(rest):]
	if contentLen > len(body) {
		return head{}, fmt.Errorf("%w: body: %d of %d bytes", ErrMalformed, len(body), contentLen)
	}
	h.body = body[:contentLen:contentLen]
	return h, nil
}

// errUnterminated reports n bytes of message with no blank line ending
// its headers.
func errUnterminated(n int) error {
	return fmt.Errorf("%w: headers end at byte %d without a blank line", ErrMalformed, n)
}

// isSpace is unicode.IsSpace for an ASCII byte.
func isSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// trimSpace is strings.TrimSpace with the ASCII case inline: ASCII
// whitespace is trimmed byte by byte, and a string with a non-ASCII byte at
// either trimmed edge goes to strings.TrimSpace, whose Unicode rules then
// decide. The two agree on every input: a Unicode space is never ASCII, and
// an ASCII byte is always a rune of its own.
func trimSpace(s string) string {
	i, j := 0, len(s)
	for i < j && isSpace(s[i]) {
		i++
	}
	for i < j && isSpace(s[j-1]) {
		j--
	}
	if i < j && (s[i] >= utf8.RuneSelf || s[j-1] >= utf8.RuneSelf) {
		return strings.TrimSpace(s[i:j])
	}
	return s[i:j]
}

// cutField returns the first whitespace-delimited field of s and what
// follows it: strings.Fields one field at a time, without the slice. ASCII
// is scanned byte by byte; from the first non-ASCII byte on, unicode.IsSpace
// decides, as trimSpace does.
func cutField(s string) (field, rest string) {
	i := 0
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	if s = s[i:]; s != "" && s[0] >= utf8.RuneSelf {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
	}
	for i = 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			if j := strings.IndexFunc(s[i:], unicode.IsSpace); j >= 0 {
				return s[:i+j], s[i+j:]
			}
			return s, ""
		}
		if isSpace(c) {
			return s[:i], s[i:]
		}
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
// logic). The request is the server's to reuse once the handler returns,
// and its fields alias the request packet's payload, so a handler must not
// retain req. The returned Response may be shared between calls and
// callers: every reader treats it as read-only.
type Handler func(req *Request) *Response

// StaticHandler always serves the given body with 200 OK, honouring the
// request's keep-alive preference. Its two responses are built once and
// shared by every call.
func StaticHandler(body []byte) Handler {
	keepAlive := &Response{Status: 200, KeepAlive: true, Body: body}
	closing := &Response{Status: 200, Body: body}
	return func(req *Request) *Response {
		if req.KeepAlive {
			return keepAlive
		}
		return closing
	}
}
