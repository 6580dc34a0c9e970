package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"unsafe"

	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
)

// peek is PeekPacket's structural check on a bare IPv4 payload.
func peek(proto byte, b []byte) (info Info, ok bool) {
	ok = info.peek(proto, b)
	return info, ok
}

func TestTCPRoundTrip(t *testing.T) {
	seg := &TCPSegment{
		SrcPort: 40001, DstPort: 443,
		Seq: 0x01020304, Ack: 0,
		Flags:  FlagPSH | FlagACK,
		Window: 65535,
		Payload: []byte("GET / HTTP/1.1\r\nHost: example\r\n" +
			"Connection: close\r\nContent-Length: 0\r\n\r\n"),
	}
	wire := seg.Marshal()
	back, err := ParseTCP(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.SrcPort != seg.SrcPort || back.DstPort != seg.DstPort ||
		back.Seq != seg.Seq || back.Flags != seg.Flags || back.Window != seg.Window {
		t.Fatalf("header round trip: %+v vs %+v", back, seg)
	}
	if !bytes.Equal(back.Payload, seg.Payload) {
		t.Fatal("payload round trip lost bytes")
	}
	// marshal ∘ parse is byte-identical.
	if !bytes.Equal(back.Marshal(), wire) {
		t.Fatal("re-marshal differs from original wire form")
	}
}

func TestTCPControlSegments(t *testing.T) {
	for _, flags := range []byte{FlagSYN, FlagFIN | FlagACK, FlagRST} {
		seg := &TCPSegment{SrcPort: 40000, DstPort: 80, Seq: 7, Flags: flags, Window: 65535}
		back, err := ParseTCP(seg.Marshal())
		if err != nil {
			t.Fatalf("flags %#02x: %v", flags, err)
		}
		if back.Flags != flags || len(back.Payload) != 0 {
			t.Fatalf("flags %#02x: parsed %+v", flags, back)
		}
	}
}

func TestTCPParseErrors(t *testing.T) {
	seg := &TCPSegment{SrcPort: 1, DstPort: 2, Flags: FlagSYN}
	wire := seg.Marshal()

	if _, err := ParseTCP(wire[:10]); !errors.Is(err, ErrShortSegment) {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), wire...)
	bad[12] = 0x60 // data offset 6: options we never emit
	if _, err := ParseTCP(bad); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("offset: %v", err)
	}
	bad = append([]byte(nil), wire...)
	bad[13] |= 0x40 // reserved flag bit
	if _, err := ParseTCP(bad); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("flags: %v", err)
	}
	bad = append([]byte(nil), wire...)
	bad[4] ^= 0xff // corrupt seq without fixing the checksum
	if _, err := ParseTCP(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("checksum: %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	d := &UDPDatagram{SrcPort: 40002, DstPort: 53, Payload: []byte("query-bytes")}
	wire := d.Marshal()
	back, err := ParseUDP(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.SrcPort != d.SrcPort || back.DstPort != d.DstPort || !bytes.Equal(back.Payload, d.Payload) {
		t.Fatalf("round trip: %+v", back)
	}
	if !bytes.Equal(back.Marshal(), wire) {
		t.Fatal("re-marshal differs")
	}
}

func TestUDPParseErrors(t *testing.T) {
	d := &UDPDatagram{SrcPort: 9, DstPort: 53, Payload: []byte("x")}
	wire := d.Marshal()
	if _, err := ParseUDP(wire[:4]); !errors.Is(err, ErrShortSegment) {
		t.Fatalf("short: %v", err)
	}
	if _, err := ParseUDP(wire[:UDPHeaderLen]); !errors.Is(err, ErrBadLength) {
		t.Fatalf("truncated: %v", err)
	}
	bad := append([]byte(nil), wire...)
	bad[UDPHeaderLen] ^= 0xff
	if _, err := ParseUDP(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("checksum: %v", err)
	}
}

func TestPeekExtractsPortsAndFlags(t *testing.T) {
	seg := &TCPSegment{SrcPort: 41000, DstPort: 8000, Seq: 3, Flags: FlagFIN | FlagACK, Window: 100}
	info, ok := peek(ipv4.ProtoTCP, seg.Marshal())
	if !ok || info.SrcPort != 41000 || info.DstPort != 8000 ||
		info.Flags != FlagFIN|FlagACK || info.DataOff != TCPHeaderLen {
		t.Fatalf("tcp peek: %+v ok=%v", info, ok)
	}
	d := &UDPDatagram{SrcPort: 41001, DstPort: 53, Payload: []byte("q")}
	info, ok = peek(ipv4.ProtoUDP, d.Marshal())
	if !ok || info.SrcPort != 41001 || info.DstPort != 53 || info.DataOff != UDPHeaderLen {
		t.Fatalf("udp peek: %+v ok=%v", info, ok)
	}
}

// TestPeekRejectsBareHTTP: plain HTTP riding directly in the IPv4 payload
// (no transport header) must never be mistaken for a TCP segment — flow
// keys would pick up garbage ports.
func TestPeekRejectsBareHTTP(t *testing.T) {
	bare := [][]byte{
		(&httpsim.Request{Method: "GET", Path: "/", Host: "example"}).Marshal(),
		(&httpsim.Request{Method: "POST", Path: "/api/2.0/files/content", KeepAlive: true, Body: make([]byte, 512)}).Marshal(),
		(&httpsim.Request{Method: "PUT", Path: "/2/files/upload", Body: make([]byte, 64)}).Marshal(),
		[]byte("POST /x HTTP/1.1\r\n\r\n"),
		[]byte("short"),
		nil,
	}
	for i, payload := range bare {
		if info, ok := peek(ipv4.ProtoTCP, payload); ok {
			t.Fatalf("bare payload %d peeked as TCP: %+v", i, info)
		}
		if info, ok := peek(ipv4.ProtoUDP, payload); ok {
			t.Fatalf("bare payload %d peeked as UDP: %+v", i, info)
		}
	}
}

func TestPeekRejectsZeroPorts(t *testing.T) {
	seg := &TCPSegment{SrcPort: 0, DstPort: 80, Flags: FlagSYN}
	if _, ok := peek(ipv4.ProtoTCP, seg.Marshal()); ok {
		t.Fatal("zero source port accepted")
	}
	d := &UDPDatagram{SrcPort: 4000, DstPort: 0}
	if _, ok := peek(ipv4.ProtoUDP, d.Marshal()); ok {
		t.Fatal("zero destination port accepted")
	}
}

// TestFragmentationInterplay covers the ipv4 interaction end to end: a
// packet carrying a TCP segment is fragmented and reassembled with a
// byte-identical transport payload; only the first fragment peeks as
// transport (real header), and non-first fragments must not be flow-keyed
// off garbage bytes.
func TestFragmentationInterplay(t *testing.T) {
	seg := &TCPSegment{
		SrcPort: 40123, DstPort: 443,
		Seq: 1, Flags: FlagPSH | FlagACK, Window: 65535,
		Payload: bytes.Repeat([]byte("0123456789abcdef"), 256), // 4 KiB
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			ID: 7, TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr("10.66.0.2"),
			Dst: netip.MustParseAddr("93.184.216.34"),
		},
		Payload: seg.Marshal(),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{0xbe, 0xef}})

	frags, err := ipv4.Fragment(pkt, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("got %d fragments, want >= 3", len(frags))
	}

	// Only the first fragment carries the transport header.
	var info Info
	if !PeekPacket(frags[0], &info) || info.SrcPort != 40123 || info.DstPort != 443 {
		t.Fatalf("first fragment peek: %+v", info)
	}
	for i, f := range frags[1:] {
		if PeekPacket(f, &info) || info != (Info{}) {
			t.Fatalf("non-first fragment %d peeked garbage ports: %+v", i+1, info)
		}
	}

	// Reassembly restores the byte-identical transport payload.
	back, err := ipv4.Reassemble(frags)
	if err != nil {
		t.Fatal(err)
	}
	reseg, err := ParseTCP(back.Payload)
	if err != nil {
		t.Fatalf("reassembled segment: %v", err)
	}
	if !bytes.Equal(reseg.Payload, seg.Payload) {
		t.Fatal("transport payload not byte-identical after reassembly")
	}
	if reseg.SrcPort != seg.SrcPort || reseg.DstPort != seg.DstPort || reseg.Seq != seg.Seq {
		t.Fatalf("reassembled header: %+v", reseg)
	}
}

func TestPeekAllocFree(t *testing.T) {
	seg := (&TCPSegment{SrcPort: 40001, DstPort: 443, Flags: FlagPSH | FlagACK, Payload: []byte("data")}).Marshal()
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := peek(ipv4.ProtoTCP, seg); !ok {
			t.Fatal("peek failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Peek allocates %.1f/op, want 0", allocs)
	}
}

// TestTupleOf pins the flow identity: twelve pointer-free bytes, IPv4
// endpoints only, and a reverse that lands a response on its forward
// connection's tuple and hash.
func TestTupleOf(t *testing.T) {
	if size := unsafe.Sizeof(Tuple{}); size != 12 {
		t.Fatalf("Tuple is %d bytes, want 12", size)
	}
	fwd := ipv4.Header{Src: netip.MustParseAddr("10.66.0.2"), Dst: netip.MustParseAddr("93.184.216.34")}
	tup, ok := TupleOf(&fwd, 40001, 443)
	want := Tuple{Src: 0x0a420002, Dst: 0x5db8d822, SrcPort: 40001, DstPort: 443}
	if !ok || tup != want {
		t.Fatalf("TupleOf = %+v, %v; want %+v", tup, ok, want)
	}
	resp := ipv4.Header{Src: fwd.Dst, Dst: fwd.Src}
	back, ok := TupleOf(&resp, 443, 40001)
	if !ok || back.Reverse() != tup || back.Reverse().Hash() != tup.Hash() {
		t.Fatalf("response tuple %+v does not reverse onto %+v", back, tup)
	}
	if other, _ := TupleOf(&fwd, 40002, 443); other.Hash() == tup.Hash() {
		t.Fatal("ports do not reach the hash")
	}
	v6 := ipv4.Header{Src: netip.MustParseAddr("2001:db8::2"), Dst: fwd.Dst}
	if _, ok := TupleOf(&v6, 40001, 443); ok {
		t.Fatal("non-IPv4 endpoint got a tuple")
	}
}

// refChecksumIgnoring is the 16-bit-at-a-time loop checksumIgnoring
// replaced, kept as the reference for the word-at-a-time sum.
func refChecksumIgnoring(b []byte, off int) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		if i == off {
			continue
		}
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for n := UDPHeaderLen; n < 600; n++ {
		b := make([]byte, n)
		for _, fill := range []func(){
			func() { rng.Read(b) },
			func() { clear(b) },
			func() {
				for i := range b {
					b[i] = 0xff
				}
			},
		} {
			fill()
			for _, off := range []int{6, 16} {
				if off+2 > n {
					continue
				}
				if got, want := checksumIgnoring(b, off), refChecksumIgnoring(b, off); got != want {
					t.Fatalf("len %d off %d: checksum %#04x, reference %#04x", n, off, got, want)
				}
			}
		}
	}
	big := make([]byte, 0xffff)
	for i := range big {
		big[i] = 0xff
	}
	if got, want := checksumIgnoring(big, 16), refChecksumIgnoring(big, 16); got != want {
		t.Fatalf("64 KiB of 0xff: checksum %#04x, reference %#04x", got, want)
	}
}

// TestViewAliasesInputAllocFree pins the view contract: full validation,
// no allocation, the payload a capped window onto the caller's bytes — and
// the Parse wrappers still hand out a copy.
func TestViewAliasesInputAllocFree(t *testing.T) {
	tcp := (&TCPSegment{SrcPort: 40001, DstPort: 443, Seq: 9, Flags: FlagPSH | FlagACK, Payload: []byte("data")}).Marshal()
	udp := (&UDPDatagram{SrcPort: 40001, DstPort: 53, Payload: []byte("data")}).Marshal()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ViewTCP(tcp); err != nil {
			t.Fatal(err)
		}
		if _, err := ViewUDP(udp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("views allocate %.1f/op, want 0", n)
	}
	seg, _ := ViewTCP(tcp)
	dg, _ := ViewUDP(udp)
	if &seg.Payload[0] != &tcp[TCPHeaderLen] || &dg.Payload[0] != &udp[UDPHeaderLen] {
		t.Fatal("view payload is a copy, not a window onto the input")
	}
	if cap(seg.Payload) != len(seg.Payload) || cap(dg.Payload) != len(dg.Payload) {
		t.Fatal("view payload can be appended into the caller's buffer")
	}
	parsed, err := ParseTCP(tcp)
	if err != nil || &parsed.Payload[0] == &tcp[TCPHeaderLen] || !bytes.Equal(parsed.Payload, seg.Payload) {
		t.Fatalf("ParseTCP must copy the payload out (err %v)", err)
	}
	tcp[len(tcp)-1] ^= 0xff
	if _, err := ViewTCP(tcp); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupted payload: err %v, want ErrBadChecksum", err)
	}
}

func TestAppendToReusesBuffer(t *testing.T) {
	seg := &TCPSegment{SrcPort: 443, DstPort: 40001, Seq: 77, Flags: FlagPSH | FlagACK, Payload: []byte("response body")}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = seg.AppendTo(buf[:0]) }); n != 0 {
		t.Fatalf("AppendTo into a large enough buffer allocates %.1f/op, want 0", n)
	}
	if !bytes.Equal(buf, seg.Marshal()) {
		t.Fatal("AppendTo and Marshal disagree")
	}
	if wire := seg.AppendTo([]byte("prefix")); !bytes.Equal(wire[6:], seg.Marshal()) {
		t.Fatal("AppendTo after a prefix checksums the prefix too")
	}
}
