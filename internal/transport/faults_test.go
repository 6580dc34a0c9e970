package transport

import (
	"bytes"
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
)

// These tests sweep the transport parsers with the exact damage shapes the
// netsim fault layer injects — single-byte XOR corruption and payload
// truncation at every cut point — exhaustively rather than randomly. The
// invariants are the fuzz targets': no panics, typed errors or identity
// round-trips, Peek never inventing different ports than the full parser.

// faultShapes derives every truncation prefix and a single-byte corruption
// at every position (XOR 0xff, the worst-case bit damage) from a wire form.
func faultShapes(raw []byte) [][]byte {
	out := make([][]byte, 0, 2*len(raw))
	for cut := 0; cut < len(raw); cut++ {
		out = append(out, raw[:cut])
	}
	for pos := range raw {
		dam := append([]byte(nil), raw...)
		dam[pos] ^= 0xff
		out = append(out, dam)
	}
	return out
}

func TestParseTCPUnderFaultShapes(t *testing.T) {
	for _, seed := range fuzzSeedSegments() {
		for _, raw := range faultShapes(seed) {
			seg, err := ParseTCP(raw)
			if err != nil {
				continue // typed rejection is a valid outcome
			}
			if wire := seg.Marshal(); !bytes.Equal(wire, raw) {
				t.Fatalf("accepted damaged segment broke identity:\n in  %x\n out %x", raw, wire)
			}
			if info, ok := peek(ipv4.ProtoTCP, raw); ok {
				if info.SrcPort != seg.SrcPort || info.DstPort != seg.DstPort {
					t.Fatalf("peek %+v disagrees with parse %+v", info, seg)
				}
			}
		}
	}
}

func TestParseUDPUnderFaultShapes(t *testing.T) {
	seeds := [][]byte{
		(&UDPDatagram{SrcPort: 40002, DstPort: 53, Payload: []byte("dns-query")}).Marshal(),
		(&UDPDatagram{SrcPort: 1, DstPort: 1}).Marshal(),
	}
	for _, seed := range seeds {
		for _, raw := range faultShapes(seed) {
			d, err := ParseUDP(raw)
			if err != nil {
				continue
			}
			if wire := d.Marshal(); !bytes.Equal(wire, raw) {
				t.Fatalf("accepted damaged datagram broke identity:\n in  %x\n out %x", raw, wire)
			}
		}
	}
}

// TestPeekPacketFragmentsStayPortless: a non-first fragment has no
// transport header, so PeekPacket must refuse it — before and after any
// payload damage. The enforcer then keys the fragment's flow port-less,
// sharing the verdict of the first fragment's full 5-tuple ancestor
// instead of hallucinating ports from mid-stream bytes.
func TestPeekPacketFragmentsStayPortless(t *testing.T) {
	seg := TCPSegment{SrcPort: 40000, DstPort: 443, Seq: 9, Flags: FlagPSH | FlagACK, Window: 65535,
		Payload: []byte("GET / HTTP/1.1\r\n\r\n")}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
			FragOff:  1, // any non-zero offset: not the first fragment
		},
		Payload: seg.Marshal(),
	}
	var info Info
	if PeekPacket(pkt, &info) {
		t.Fatal("PeekPacket accepted a non-first fragment")
	}
	for _, raw := range faultShapes(pkt.Payload) {
		dam := pkt.Clone()
		dam.Payload = raw
		if PeekPacket(dam, &info) {
			t.Fatal("PeekPacket accepted a damaged non-first fragment")
		}
	}
	// The same payload with FragOff 0 parses fine — the refusal above is
	// the fragment flag, not the bytes.
	whole := pkt.Clone()
	whole.Header.FragOff = 0
	if !PeekPacket(whole, &info) || info.SrcPort != 40000 {
		t.Fatalf("unfragmented peek = %+v", info)
	}
}
