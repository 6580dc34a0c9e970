package httpsim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// refMarshalRequest is Request.Marshal as it stood before the exact-size
// append replaced it, kept verbatim as the reference FuzzRequestMarshal
// compares against.
func refMarshalRequest(r *Request) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", r.Method, r.Path)
	if r.Host != "" {
		fmt.Fprintf(&b, "Host: %s\r\n", r.Host)
	}
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

// The parsers as they stood before the forward scan replaced them, kept
// verbatim as the reference the differential and fuzz tests compare
// against: a bufio.Reader over the message, headers read line by line, the
// body copied out, and Host found by a second pass over the whole message.
// One edit: refReadBody refuses a declared length no test input can reach
// before allocating it — the original allocated first, so a fuzzer-supplied
// Content-Length would exhaust memory instead of failing the short read.

func refParseRequest(data []byte) (*Request, error) {
	rd := bufio.NewReader(bytes.NewReader(data))
	line, err := rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: request line: %v", ErrMalformed, err)
	}
	parts := strings.Fields(strings.TrimSpace(line))
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := &Request{Method: parts[0], Path: parts[1]}
	clen, keep, err := refParseHeaders(rd)
	if err != nil {
		return nil, err
	}
	req.KeepAlive = keep
	req.Body, err = refReadBody(rd, clen)
	if err != nil {
		return nil, err
	}
	req.Host = refHostFromHeaders(data)
	return req, nil
}

func refHostFromHeaders(data []byte) string {
	for _, line := range strings.Split(string(data), "\r\n") {
		if strings.HasPrefix(strings.ToLower(line), "host:") {
			return strings.TrimSpace(line[len("host:"):])
		}
		if line == "" {
			break
		}
	}
	return ""
}

func refParseResponse(data []byte) (*Response, error) {
	rd := bufio.NewReader(bytes.NewReader(data))
	line, err := rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: status line: %v", ErrMalformed, err)
	}
	parts := strings.Fields(strings.TrimSpace(line))
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	resp := &Response{Status: status}
	clen, keep, err := refParseHeaders(rd)
	if err != nil {
		return nil, err
	}
	resp.KeepAlive = keep
	resp.Body, err = refReadBody(rd, clen)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func refParseHeaders(rd *bufio.Reader) (contentLen int, keepAlive bool, err error) {
	contentLen = -1
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return 0, false, fmt.Errorf("%w: headers: %v", ErrMalformed, err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return 0, false, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:colon]))
		val := strings.TrimSpace(line[colon+1:])
		switch key {
		case "content-length":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, false, fmt.Errorf("%w: content-length %q", ErrMalformed, val)
			}
			contentLen = n
		case "connection":
			keepAlive = strings.EqualFold(val, "keep-alive")
		}
	}
	if contentLen < 0 {
		contentLen = 0
	}
	return contentLen, keepAlive, nil
}

func refReadBody(rd *bufio.Reader, n int) ([]byte, error) {
	if n > 1<<24 {
		return nil, fmt.Errorf("%w: body: %v", ErrMalformed, io.ErrUnexpectedEOF)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(rd, body); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrMalformed, err)
	}
	return body, nil
}
