package transport

import (
	"bytes"
	"testing"

	"borderpatrol/internal/ipv4"
)

// Native Go fuzz targets for the transport parsers. The gateway parses a
// transport header out of every packet a BYOD device emits, and the
// device is the untrusted side of the link (a native-socket app can hand
// the kernel arbitrary payload bytes), so both parsers are
// attacker-reachable. Two invariants hold on every input:
//
//  1. No panics: arbitrary bytes either parse or return a typed error.
//  2. Round-trip: any accepted segment re-marshals to the exact input
//     bytes (marshal ∘ parse is the identity on wire form), and parsing
//     the re-marshalled form yields the same header fields. Peek must
//     agree with the full parser on ports and flags whenever both accept.
//  3. AppendTo onto a non-empty prefix keeps the prefix and writes after
//     it exactly what Marshal writes.
//
// Seeds cover each control-flag shape, data segments, and truncations;
// the committed corpus lives in testdata/fuzz/.

func fuzzSeedSegments() [][]byte {
	segs := []*TCPSegment{
		{SrcPort: 40000, DstPort: 443, Seq: 1, Flags: FlagSYN, Window: 65535},
		{SrcPort: 40000, DstPort: 443, Seq: 2, Flags: FlagPSH | FlagACK, Window: 65535,
			Payload: []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")},
		{SrcPort: 40000, DstPort: 443, Seq: 30, Flags: FlagFIN | FlagACK, Window: 65535},
		{SrcPort: 1, DstPort: 1, Flags: FlagRST},
	}
	out := make([][]byte, 0, len(segs)+2)
	for _, s := range segs {
		out = append(out, s.Marshal())
	}
	out = append(out, out[1][:TCPHeaderLen-1]) // truncated header
	out = append(out, []byte("POST /x HTTP/1.1\r\n\r\n"))
	return out
}

func FuzzParseTCP(f *testing.F) {
	for _, seed := range fuzzSeedSegments() {
		f.Add(seed)
		// Fault-layer damage shapes: one corrupted byte in the header, one
		// in the payload, and a mid-header truncation, so the corpus starts
		// from the same surface the netsim chaos plan exercises.
		if len(seed) >= TCPHeaderLen {
			dam := append([]byte(nil), seed...)
			dam[2] ^= 0xff // dst-port byte
			f.Add(dam)
			f.Add(seed[:TCPHeaderLen/2])
		}
		if len(seed) > TCPHeaderLen {
			dam := append([]byte(nil), seed...)
			dam[len(dam)-1] ^= 0x01
			f.Add(dam)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		seg, err := ParseTCP(raw)
		if err != nil {
			return
		}
		wire := seg.Marshal()
		if !bytes.Equal(wire, raw) {
			t.Fatalf("marshal∘parse not identity:\n in  %x\n out %x", raw, wire)
		}
		checkAppendTo(t, raw, wire, seg.AppendTo)
		again, err := ParseTCP(wire)
		if err != nil {
			t.Fatalf("re-parse of accepted segment failed: %v", err)
		}
		if again.SrcPort != seg.SrcPort || again.DstPort != seg.DstPort ||
			again.Seq != seg.Seq || again.Ack != seg.Ack ||
			again.Flags != seg.Flags || again.Window != seg.Window ||
			!bytes.Equal(again.Payload, seg.Payload) {
			t.Fatalf("re-parse diverged: %+v vs %+v", again, seg)
		}
		// Peek agrees with the full parser whenever it accepts (it may
		// reject segments with zero ports or flags; it must never invent
		// different ports).
		if info, ok := peek(ipv4.ProtoTCP, raw); ok {
			if info.SrcPort != seg.SrcPort || info.DstPort != seg.DstPort || info.Flags != seg.Flags {
				t.Fatalf("peek %+v disagrees with parse %+v", info, seg)
			}
		}
	})
}

func FuzzParseUDP(f *testing.F) {
	seeds := []*UDPDatagram{
		{SrcPort: 40002, DstPort: 53, Payload: []byte("dns-query")},
		{SrcPort: 1, DstPort: 1},
		{SrcPort: 40002, DstPort: 53, Payload: bytes.Repeat([]byte{0}, 512)},
	}
	for _, d := range seeds {
		raw := d.Marshal()
		f.Add(raw)
		// Fault-layer damage shapes (see FuzzParseTCP).
		dam := append([]byte(nil), raw...)
		dam[1] ^= 0xff
		f.Add(dam)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte{0, 53, 0, 80, 0, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := ParseUDP(raw)
		if err != nil {
			return
		}
		wire := d.Marshal()
		if !bytes.Equal(wire, raw) {
			t.Fatalf("marshal∘parse not identity:\n in  %x\n out %x", raw, wire)
		}
		checkAppendTo(t, raw, wire, d.AppendTo)
		again, err := ParseUDP(wire)
		if err != nil {
			t.Fatalf("re-parse of accepted datagram failed: %v", err)
		}
		if again.SrcPort != d.SrcPort || again.DstPort != d.DstPort || !bytes.Equal(again.Payload, d.Payload) {
			t.Fatalf("re-parse diverged: %+v vs %+v", again, d)
		}
		if info, ok := peek(ipv4.ProtoUDP, raw); ok {
			if info.SrcPort != d.SrcPort || info.DstPort != d.DstPort {
				t.Fatalf("peek %+v disagrees with parse %+v", info, d)
			}
		}
	})
}

// checkAppendTo renders through appendTo onto a prefix of 1 to 7 bytes cut
// from raw (odd lengths shift the checksum's word alignment) and checks
// the prefix survives and the rest equals wire, Marshal's output.
func checkAppendTo(t *testing.T, raw, wire []byte, appendTo func([]byte) []byte) {
	t.Helper()
	prefix := append([]byte{0xa5}, raw[:len(raw)%7]...)
	out := appendTo(bytes.Clone(prefix))
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], wire) {
		t.Fatalf("AppendTo onto %d-byte prefix:\n got  %x\n want %x%x", len(prefix), out, prefix, wire)
	}
}
