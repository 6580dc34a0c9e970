package transport

import (
	"testing"

	"borderpatrol/internal/ipv4"
)

// benchSegment is a representative data segment: a keep-alive HTTP GET
// riding a 20-byte TCP header, the common shape on the gateway hot path.
func benchSegment() []byte {
	seg := &TCPSegment{
		SrcPort: 40001, DstPort: 443, Seq: 4096,
		Flags: FlagPSH | FlagACK, Window: 65535,
		Payload: []byte("GET /index.html HTTP/1.1\r\nHost: localhost\r\n" +
			"Connection: keep-alive\r\nContent-Length: 0\r\n\r\n"),
	}
	return seg.Marshal()
}

// BenchmarkPeekTCP is the acceptance benchmark for the per-packet path:
// flow keying and conntrack peek every packet, so the structural header
// sniff must stay in the low nanoseconds with zero allocations.
func BenchmarkPeekTCP(b *testing.B) {
	wire := benchSegment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := peek(ipv4.ProtoTCP, wire); !ok {
			b.Fatal("peek failed")
		}
	}
}

// BenchmarkParseTCP is the server-side full validation (checksum walk
// over the payload included).
func BenchmarkParseTCP(b *testing.B) {
	wire := benchSegment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseTCP(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalTCP is the device-side segment build cost added to
// every kernel Send.
func BenchmarkMarshalTCP(b *testing.B) {
	seg := &TCPSegment{
		SrcPort: 40001, DstPort: 443, Seq: 4096,
		Flags: FlagPSH | FlagACK, Window: 65535,
		Payload: make([]byte, 297),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := seg.Marshal(); len(buf) != TCPHeaderLen+297 {
			b.Fatal("bad marshal")
		}
	}
}
