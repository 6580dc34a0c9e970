// Package transport implements the wire-format transport layer riding in
// ipv4.Packet.Payload: a TCP segment model (real ports, sequence numbers
// and SYN/ACK/FIN/RST control flags) and a UDP datagram model. It is the
// layer Poise ("Programmable In-Network Security for Context-aware BYOD
// Policies") keys per-flow context state on in the switch dataplane, and
// the layer that lets this simulator's gateway key its flow table on full
// 5-tuples and drive flow lifecycle from connection state instead of
// peeking at application headers.
//
// Two access paths are provided, matching the two places the gateway
// touches transport headers:
//
//   - ViewTCP/ViewUDP fully validate a header (lengths, checksum) and
//     return the segment by value with its payload aliasing the input —
//     the server side of the simulator uses these before handing the
//     application payload up the stack. ParseTCP/ParseUDP are the same
//     validators for callers that keep the segment past the input's
//     lifetime: they copy the payload out.
//   - PeekPacket is the one structural check, the zero-allocation
//     per-packet path: header length, data offset, reserved bits, flag
//     mask, UDP length consistency and nonzero ports, extracting ports
//     and TCP flags without a checksum walk over the payload. The
//     enforcer's flow key and each burst worker peek a packet once each.
//
// A flow's identity is its Tuple: the flow-table key embeds it, and the
// conntrack and the server's sequence table are keyed and sharded on it.
//
// Checksums are the Internet checksum (RFC 1071) over the whole segment
// or datagram with the checksum field zeroed. The IPv4 pseudo-header is
// deliberately left out of the sum: the simulator's packets never cross a
// NAT that would rewrite addresses under the transport layer, and keeping
// the checksum self-contained lets a segment be validated without its
// enclosing packet.
//
// Fragmentation interplay: only the first IPv4 fragment (FragOff == 0)
// carries the transport header; non-first fragments hold a payload slice
// starting mid-stream. PeekPacket refuses non-first fragments so flow
// keying can never read garbage ports out of fragment data.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"borderpatrol/internal/ipv4"
)

// TCP control flags (the low bits of header byte 13).
const (
	// FlagFIN signals the sender is done: the gateway's conntrack tears
	// the flow down when it sees one.
	FlagFIN = 0x01
	// FlagSYN opens a connection.
	FlagSYN = 0x02
	// FlagRST aborts a connection (tears down like FIN).
	FlagRST = 0x04
	// FlagPSH marks data segments.
	FlagPSH = 0x08
	// FlagACK acknowledges; set on every segment after the initial SYN.
	FlagACK = 0x10

	// flagMask is every flag this model emits. PeekPacket rejects anything
	// outside it, which is also what keeps bare application bytes (ASCII
	// ≥ 0x20 in the flag position) from masquerading as segments.
	flagMask = FlagFIN | FlagSYN | FlagRST | FlagPSH | FlagACK
)

// Header lengths. The TCP model always emits a 20-byte option-free header
// (data offset 5), which is also what PeekPacket requires.
const (
	TCPHeaderLen = 20
	UDPHeaderLen = 8

	// MaxUDPPayload is the largest payload a UDP datagram can carry: the
	// 16-bit length field covers header + payload. Marshal on a larger
	// payload would wrap the field into a datagram its own parser
	// rejects. Inside an IPv4 packet the bound is lower still, since the
	// packet's own 16-bit length covers the IPv4 header too: kernel.Send
	// refuses any payload over that, the EMSGSIZE a real sendto(2)
	// returns.
	MaxUDPPayload = 0xffff - UDPHeaderLen
)

// Errors produced by parsing.
var (
	ErrShortSegment = errors.New("transport: segment shorter than its header")
	ErrBadOffset    = errors.New("transport: unsupported TCP data offset")
	ErrBadFlags     = errors.New("transport: reserved or unknown TCP flags set")
	ErrBadChecksum  = errors.New("transport: checksum mismatch")
	ErrBadLength    = errors.New("transport: UDP length field inconsistent")
)

// checksumIgnoring computes the Internet checksum over b with the 16-bit
// field at off treated as zero. Parsers compare the result to the stored
// field for exact equality — unlike the "whole buffer sums to zero" trick,
// this cannot alias 0x0000 and 0xffff stored values, so marshal ∘ parse
// is byte-identical on every accepted input (the fuzz invariant).
//
// off must be even and off+2 <= len(b), which every header length above
// guarantees. The 16-bit words either side of the field are summed eight
// bytes at a time: 2^16 ≡ 1 (mod 0xffff), so the end-around-carry fold of
// the sum of 32-bit halves equals the fold of the sum of 16-bit words.
func checksumIgnoring(b []byte, off int) uint16 {
	sum := sumWords(b[:off]) + sumWords(b[off+2:])
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// sumWords adds up b's big-endian 16-bit words (an odd last byte padded
// with zero) without folding; a 64 KiB segment stays below 2^46.
func sumWords(b []byte) uint64 {
	var sum uint64
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&0xffffffff
		b = b[8:]
	}
	for len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// TCPSegment is a parsed TCP segment. Ack is carried for wire fidelity;
// the simulator models the outbound half of each connection, so it stays
// zero on generated traffic.
type TCPSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Payload          []byte
}

// Marshal renders the segment in wire form with a correct checksum.
func (s *TCPSegment) Marshal() []byte {
	return s.AppendTo(make([]byte, 0, TCPHeaderLen+len(s.Payload)))
}

// AppendTo appends the segment's wire form to dst and returns the extended
// slice, so a caller that builds many segments can reuse one buffer.
func (s *TCPSegment) AppendTo(dst []byte) []byte {
	var hdr [TCPHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], s.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], s.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], s.Ack)
	hdr[12] = (TCPHeaderLen / 4) << 4
	hdr[13] = s.Flags & flagMask
	binary.BigEndian.PutUint16(hdr[14:16], s.Window)
	// hdr[18:20] (urgent pointer) stays zero; we never emit URG.
	at := len(dst)
	dst = append(append(dst, hdr[:]...), s.Payload...)
	binary.BigEndian.PutUint16(dst[at+16:], checksumIgnoring(dst[at:], 16))
	return dst
}

// ViewTCP fully validates a wire-form TCP segment and returns it by value
// with Payload aliasing b: no allocation, and valid only while the caller
// leaves b unmodified.
func ViewTCP(b []byte) (TCPSegment, error) {
	if len(b) < TCPHeaderLen {
		return TCPSegment{}, fmt.Errorf("%w: %d bytes", ErrShortSegment, len(b))
	}
	if off := int(b[12]>>4) * 4; off != TCPHeaderLen {
		return TCPSegment{}, fmt.Errorf("%w: %d", ErrBadOffset, off)
	}
	if b[12]&0x0f != 0 || b[13]&^flagMask != 0 {
		return TCPSegment{}, fmt.Errorf("%w: offset byte %#02x flags %#02x", ErrBadFlags, b[12], b[13])
	}
	if b[18] != 0 || b[19] != 0 {
		return TCPSegment{}, fmt.Errorf("%w: urgent pointer set", ErrBadFlags)
	}
	if got := binary.BigEndian.Uint16(b[16:18]); got != checksumIgnoring(b, 16) {
		return TCPSegment{}, ErrBadChecksum
	}
	return TCPSegment{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
		Payload: b[TCPHeaderLen:len(b):len(b)],
	}, nil
}

// ParseTCP is ViewTCP with the payload copied out of b.
func ParseTCP(b []byte) (*TCPSegment, error) {
	seg, err := ViewTCP(b)
	if err != nil {
		return nil, err
	}
	seg.Payload = append([]byte(nil), seg.Payload...)
	return &seg, nil
}

// UDPDatagram is a parsed UDP datagram.
type UDPDatagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// Marshal renders the datagram in wire form with a correct length field
// and checksum.
func (d *UDPDatagram) Marshal() []byte {
	return d.AppendTo(make([]byte, 0, UDPHeaderLen+len(d.Payload)))
}

// AppendTo appends the datagram's wire form to dst and returns the extended
// slice, as TCPSegment.AppendTo does.
func (d *UDPDatagram) AppendTo(dst []byte) []byte {
	var hdr [UDPHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], d.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], d.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(UDPHeaderLen+len(d.Payload)))
	at := len(dst)
	dst = append(append(dst, hdr[:]...), d.Payload...)
	binary.BigEndian.PutUint16(dst[at+6:], checksumIgnoring(dst[at:], 6))
	return dst
}

// ViewUDP fully validates a wire-form UDP datagram and returns it by value
// with Payload aliasing b, as ViewTCP does.
func ViewUDP(b []byte) (UDPDatagram, error) {
	if len(b) < UDPHeaderLen {
		return UDPDatagram{}, fmt.Errorf("%w: %d bytes", ErrShortSegment, len(b))
	}
	if int(binary.BigEndian.Uint16(b[4:6])) != len(b) {
		return UDPDatagram{}, fmt.Errorf("%w: field %d, datagram %d",
			ErrBadLength, binary.BigEndian.Uint16(b[4:6]), len(b))
	}
	if got := binary.BigEndian.Uint16(b[6:8]); got != checksumIgnoring(b, 6) {
		return UDPDatagram{}, ErrBadChecksum
	}
	return UDPDatagram{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[UDPHeaderLen:len(b):len(b)],
	}, nil
}

// ParseUDP is ViewUDP with the payload copied out of b.
func ParseUDP(b []byte) (*UDPDatagram, error) {
	dg, err := ViewUDP(b)
	if err != nil {
		return nil, err
	}
	dg.Payload = append([]byte(nil), dg.Payload...)
	return &dg, nil
}

// Info is the zero-allocation transport summary handed down the gateway's
// per-packet paths: enough for flow keying (ports) and connection
// lifecycle tracking (TCP flags) without materializing the segment.
type Info struct {
	// Proto is ipv4.ProtoTCP or ipv4.ProtoUDP.
	Proto byte
	// SrcPort and DstPort complete the flow 5-tuple.
	SrcPort, DstPort uint16
	// Flags are the TCP control flags (zero for UDP).
	Flags byte
	// Seq is the TCP sequence number (zero for UDP) — the field the
	// gateway's directional conntrack state runs continuity checks on.
	Seq uint32
	// DataOff is where the application payload starts within the IPv4
	// payload.
	DataOff int
}

// PeekPacket extracts a packet's transport Info using structural checks
// only — no checksum walk, no allocation. It reports false for anything
// that does not look like a header this model emits, which in particular
// covers bare plain-HTTP bytes: they fail the data-offset/reserved-bits
// check (TCP) or the length-field check (UDP), so callers treat the payload
// as opaque — never as ports, never as a request. Ports must be nonzero —
// the kernel never binds port 0, and requiring it rejects further junk.
// It refuses non-first fragments: a fragment with FragOff > 0 carries
// mid-stream payload bytes where the header would be, and flow keying must
// not read ports out of them. The first fragment (FragOff == 0, MF set)
// does carry the real header and peeks normally. It fills info in place, zero when it reports false: the
// packet path calls it, and an Info returned by value is written in parts
// and then copied whole, which stalls store forwarding on every packet.
func PeekPacket(pkt *ipv4.Packet, info *Info) bool {
	if pkt.Header.FragOff != 0 {
		*info = Info{}
		return false
	}
	return info.peek(pkt.Header.Protocol, pkt.Payload)
}

// peek is PeekPacket's structural check of an IPv4 payload: it fills i
// from b's header and reports true, or zeroes i and reports false.
func (i *Info) peek(proto byte, b []byte) bool {
	*i = Info{}
	var off int
	switch {
	case proto == ipv4.ProtoTCP && len(b) >= TCPHeaderLen && b[12] == (TCPHeaderLen/4)<<4 &&
		b[13] != 0 && b[13]&^flagMask == 0:
		off = TCPHeaderLen
	case proto == ipv4.ProtoUDP && len(b) >= UDPHeaderLen && int(binary.BigEndian.Uint16(b[4:6])) == len(b):
		off = UDPHeaderLen
	default:
		return false
	}
	sp, dp := binary.BigEndian.Uint16(b[0:2]), binary.BigEndian.Uint16(b[2:4])
	if sp == 0 || dp == 0 {
		return false
	}
	i.Proto, i.SrcPort, i.DstPort, i.DataOff = proto, sp, dp, off
	if proto == ipv4.ProtoTCP {
		i.Flags, i.Seq = b[13], binary.BigEndian.Uint32(b[4:8])
	}
	return true
}

// Tuple is a flow's identity at the gateway: IPv4 endpoints and transport
// ports (zero when the packet carries no header PeekPacket accepts); the holder
// keeps the protocol. Twelve bytes and no pointers. The addresses are
// big-endian values, not byte arrays, so a Tuple travels in registers: a
// copied array is written in parts and read whole, a store-forwarding
// stall on every packet.
type Tuple struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
}

// TupleOf builds the tuple of a packet with header h and ports sp, dp. It
// reports false when either endpoint is not IPv4: such a flow has no
// tuple, and every per-flow table passes it by.
func TupleOf(h *ipv4.Header, sp, dp uint16) (Tuple, bool) {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return Tuple{}, false
	}
	s, d := h.Src.As4(), h.Dst.As4()
	return Tuple{Src: binary.BigEndian.Uint32(s[:]), Dst: binary.BigEndian.Uint32(d[:]), SrcPort: sp, DstPort: dp}, true
}

// Reverse is the tuple of the other direction: a response's reverse is
// the forward connection's tuple.
func (t Tuple) Reverse() Tuple {
	return Tuple{Src: t.Dst, Dst: t.Src, SrcPort: t.DstPort, DstPort: t.SrcPort}
}

// Hash mixes the whole tuple into 64 bits; its top bits pick a shard.
func (t Tuple) Hash() uint64 {
	h := uint64(t.Src)<<32 | uint64(t.Dst)
	h ^= (uint64(t.SrcPort)<<16 | uint64(t.DstPort)) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// PairHash hashes the tuple's endpoint pair alone, its ports left out, so
// every connection between one device and one server shares it. The
// gateway splits a burst over its workers by its top bits, and the flow
// table takes a flow's shard group from the same bits: at a power-of-two
// worker count up to the group count, a worker's flows live in shards no
// other worker touches.
func (t Tuple) PairHash() uint64 { return Tuple{Src: t.Src, Dst: t.Dst}.Hash() }
