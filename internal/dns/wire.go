package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"unicode/utf8"

	"borderpatrol/internal/block"
)

// Wire format for DNS-over-UDP through the simulated gateway: a compact
// A-record query/answer encoding riding in transport.UDPDatagram
// payloads. It keeps DNS's shape — 16-bit transaction ID, a QR bit, an
// RCODE, a name, an address set — without the label-compression machinery
// the simulator does not need. The point of the workload is not protocol
// fidelity but the path: a provisioned app's resolver opens a UDP socket,
// the Context Manager tags it like any other socket, the gateway policy-
// checks every query datagram, and the zone answers — the first
// non-HTTP traffic through the full stack.
//
// Layout (big-endian):
//
//	query:  id(2) | flags(1, QR=0) | nameLen(1) | name
//	answer: id(2) | flags(1, QR=1 | rcode in low nibble) | count(1) | count × 4-byte IPv4
const (
	// flagResponse is the QR bit in the flags octet.
	flagResponse = 0x80

	// RCodeOK is a successful resolution.
	RCodeOK = 0
	// RCodeNXDomain reports an unknown name (mirrors DNS RCODE 3).
	RCodeNXDomain = 3

	// MaxName bounds query names (DNS's own limit is 255 octets).
	MaxName = 255
	// maxAnswers bounds an answer's address set (the count octet).
	maxAnswers = 255
)

// Wire-format errors.
var (
	ErrWireMalformed = errors.New("dns: malformed message")
)

// Query is one A-record question.
type Query struct {
	// ID is the transaction identifier echoed in the answer.
	ID uint16
	// Name is the fully-qualified name being resolved.
	Name string
}

// Marshal renders the query.
func (q *Query) Marshal() ([]byte, error) {
	name := canonical(q.Name)
	if name == "" || len(name) > MaxName {
		return nil, fmt.Errorf("%w: name %q", ErrWireMalformed, q.Name)
	}
	buf := make([]byte, 0, 4+len(name))
	buf = append(buf, byte(q.ID>>8), byte(q.ID), 0, byte(len(name)))
	return append(buf, name...), nil
}

// ParseQuery parses a query payload. The name must be in the canonical
// form Marshal writes (lower case, no trailing dot), so a parsed query
// marshals back to itself.
func ParseQuery(b []byte) (*Query, error) {
	id, name, err := viewQuery(b)
	if err != nil {
		return nil, err
	}
	return &Query{ID: id, Name: string(name)}, nil
}

// viewQuery validates a query payload in place, exactly as ParseQuery
// does, and returns its ID and its name as a slice of b.
func viewQuery(b []byte) (id uint16, name []byte, err error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrWireMalformed, len(b))
	}
	if b[2]&flagResponse != 0 {
		return 0, nil, fmt.Errorf("%w: QR set on query", ErrWireMalformed)
	}
	n := int(b[3])
	if n == 0 || len(b) != 4+n {
		return 0, nil, fmt.Errorf("%w: name length %d in %d bytes", ErrWireMalformed, n, len(b))
	}
	name = b[4:]
	if !isCanonical(name) {
		return 0, nil, fmt.Errorf("%w: name %q not canonical", ErrWireMalformed, name)
	}
	return uint16(b[0])<<8 | uint16(b[1]), name, nil
}

// isCanonical reports whether canonical(s) == s for s = string(name),
// byte by byte while the name is ASCII: no upper-case letter and no
// trailing dot. A name with a byte of 0x80 or more is checked by that
// expression itself, so non-ASCII and invalid UTF-8 names are judged as
// strings.ToLower judges them.
func isCanonical(name []byte) bool {
	for _, c := range name {
		if c >= utf8.RuneSelf {
			s := string(name)
			return canonical(s) == s
		}
		if 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return len(name) == 0 || name[len(name)-1] != '.'
}

// Answer is the response to a Query.
type Answer struct {
	// ID echoes the query's transaction identifier.
	ID uint16
	// RCode is RCodeOK or RCodeNXDomain.
	RCode byte
	// Addrs is the resolved address set (round-robin order), empty on
	// NXDOMAIN.
	Addrs []netip.Addr
}

// Marshal renders the answer.
func (a *Answer) Marshal() ([]byte, error) {
	return a.AppendTo(make([]byte, 0, a.wireLen()))
}

// wireLen is the length of the rendered answer.
func (a *Answer) wireLen() int { return 4 + 4*len(a.Addrs) }

// AppendTo appends the rendered answer to dst and returns the extended
// slice. It refuses more than 255 addresses and any that is not IPv4; dst
// may have been written to then.
func (a *Answer) AppendTo(dst []byte) ([]byte, error) {
	if len(a.Addrs) > maxAnswers {
		return nil, fmt.Errorf("%w: %d answers", ErrWireMalformed, len(a.Addrs))
	}
	dst = append(dst, byte(a.ID>>8), byte(a.ID), flagResponse|a.RCode&0x0f, byte(len(a.Addrs)))
	for _, addr := range a.Addrs {
		if !addr.Is4() {
			return nil, fmt.Errorf("%w: %v is not IPv4", ErrWireMalformed, addr)
		}
		a4 := addr.As4()
		dst = append(dst, a4[:]...)
	}
	return dst, nil
}

// ParseAnswer parses an answer payload.
func ParseAnswer(b []byte) (*Answer, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrWireMalformed, len(b))
	}
	if b[2]&flagResponse == 0 {
		return nil, fmt.Errorf("%w: QR clear on answer", ErrWireMalformed)
	}
	count := int(b[3])
	if len(b) != 4+4*count {
		return nil, fmt.Errorf("%w: %d answers in %d bytes", ErrWireMalformed, count, len(b))
	}
	out := &Answer{ID: uint16(b[0])<<8 | uint16(b[1]), RCode: b[2] & 0x0f}
	for i := 0; i < count; i++ {
		out.Addrs = append(out.Addrs, netip.AddrFrom4([4]byte(b[4+4*i:8+4*i])))
	}
	return out, nil
}

// Answer block sizes, in bytes: the first block holds 32 one-address
// answers, and each replacement doubles up to 4,096 of them, so a busy
// server allocates once per a few thousand answers. The largest answer
// (255 addresses, 1,024 bytes) is a thirty-second of the cap.
const answerBlockFirst, answerBlockCap = 256, 32 << 10

// ZoneHandler serves a zone over UDP: it validates each query datagram in
// place, resolves it against the zone, and renders the answer (NXDOMAIN
// for unknown names, nil for a query it refuses as ParseQuery would). Plug
// it into netsim.Server.UDPHandler to stand up a DNS server behind the
// gateway.
//
// A query costs no allocation of its own and takes only the zone's read
// lock. Each answer is a capacity-capped cut of a block the handler shares
// across all its calls, guarded by its own mutex (see package block): an
// append by its holder reallocates instead of writing into the next
// answer, and holding an answer pins its block.
func ZoneHandler(z *Zone) func(payload []byte) []byte {
	var (
		mu  sync.Mutex
		blk []byte
	)
	return func(payload []byte) []byte {
		id, name, err := viewQuery(payload)
		if err != nil {
			return nil
		}
		a := Answer{ID: id, Addrs: z.lookup(name)}
		if len(a.Addrs) == 0 {
			a.RCode = RCodeNXDomain
		}
		mu.Lock()
		dst := block.Take(&blk, a.wireLen(), answerBlockFirst, answerBlockCap)
		mu.Unlock()
		out, err := a.AppendTo(dst[:0])
		if err != nil {
			return nil
		}
		return out
	}
}
