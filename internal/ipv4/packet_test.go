package ipv4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Header: Header{
			TOS:      0,
			ID:       42,
			TTL:      64,
			Protocol: ProtoTCP,
			Src:      netip.AddrFrom4([4]byte{10, 0, 0, 5}),
			Dst:      netip.AddrFrom4([4]byte{93, 184, 216, 34}),
		},
		Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
	}
}

func TestMarshalUnmarshalNoOptions(t *testing.T) {
	p := samplePacket()
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(buf) != MinHeaderLen+len(p.Payload) {
		t.Fatalf("wire length %d, want %d", len(buf), MinHeaderLen+len(p.Payload))
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Header.Src != p.Header.Src || got.Header.Dst != p.Header.Dst {
		t.Error("addresses mismatch")
	}
	if got.Header.ID != 42 || got.Header.TTL != 64 || got.Header.Protocol != ProtoTCP {
		t.Error("scalar fields mismatch")
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("payload mismatch")
	}
	if got.Header.HasOptions() {
		t.Error("phantom options appeared")
	}
}

func TestMarshalUnmarshalWithOptions(t *testing.T) {
	p := samplePacket()
	optData := []byte{0x10, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x01, 0x02, 0x03, 0x04}
	p.Header.SetOption(Option{Type: OptSecurity, Data: optData})
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// Header must be padded to a 4-byte boundary.
	hlen := int(buf[0]&0x0f) * 4
	if hlen%4 != 0 || hlen <= MinHeaderLen {
		t.Fatalf("bad header length %d", hlen)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	opt, ok := got.Header.FindOption(OptSecurity)
	if !ok {
		t.Fatal("security option lost")
	}
	if !bytes.Equal(opt.Data, optData) {
		t.Fatalf("option data %x, want %x", opt.Data, optData)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("payload corrupted by options")
	}
}

func TestOptionsTooLong(t *testing.T) {
	p := samplePacket()
	p.Header.SetOption(Option{Type: OptSecurity, Data: make([]byte, 39)})
	if _, err := p.Marshal(); !errors.Is(err, ErrOptionsTooLong) {
		t.Fatalf("err = %v, want ErrOptionsTooLong", err)
	}
}

func TestMaxBudgetOptionFits(t *testing.T) {
	// 38 data bytes + type + len = 40 bytes exactly.
	p := samplePacket()
	p.Header.SetOption(Option{Type: OptSecurity, Data: make([]byte, 38)})
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("40-byte option should fit: %v", err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if opt, ok := got.Header.FindOption(OptSecurity); !ok || len(opt.Data) != 38 {
		t.Fatal("max-size option did not round trip")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Marshal()
	buf[8] ^= 0xff // corrupt TTL
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); !errors.Is(err, ErrShortPacket) {
		t.Errorf("nil: %v", err)
	}
	if _, err := Unmarshal(make([]byte, 10)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short: %v", err)
	}
	p := samplePacket()
	buf, _ := p.Marshal()
	v6 := append([]byte(nil), buf...)
	v6[0] = 6<<4 | v6[0]&0x0f
	if _, err := Unmarshal(v6); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	// Truncated total length.
	trunc := append([]byte(nil), buf...)
	trunc = trunc[:MinHeaderLen-4]
	if _, err := Unmarshal(trunc); !errors.Is(err, ErrShortPacket) {
		t.Errorf("truncated: %v", err)
	}
}

func TestMalformedOptionRejected(t *testing.T) {
	p := samplePacket()
	p.Header.SetOption(Option{Type: OptSecurity, Data: []byte{1, 2, 3, 4, 5, 6}})
	buf, _ := p.Marshal()
	// Corrupt the option length byte to run past the header, then fix the
	// checksum so the option parser (not the checksum) rejects it.
	buf[MinHeaderLen+1] = 200
	fixChecksum(buf)
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadOption) {
		t.Fatalf("err = %v, want ErrBadOption", err)
	}
	// Option length < 2 is also malformed.
	buf2, _ := p.Marshal()
	buf2[MinHeaderLen+1] = 1
	fixChecksum(buf2)
	if _, err := Unmarshal(buf2); !errors.Is(err, ErrBadOption) {
		t.Fatalf("err = %v, want ErrBadOption", err)
	}
}

func fixChecksum(buf []byte) {
	hlen := int(buf[0]&0x0f) * 4
	buf[10], buf[11] = 0, 0
	ck := Checksum(buf[:hlen])
	buf[10] = byte(ck >> 8)
	buf[11] = byte(ck)
}

func TestSetRemoveOption(t *testing.T) {
	var h Header
	h.SetOption(Option{Type: OptSecurity, Data: []byte{1}})
	h.SetOption(Option{Type: OptTimestamp, Data: []byte{2}})
	h.SetOption(Option{Type: OptSecurity, Data: []byte{3}}) // replaces
	if len(h.Options) != 2 {
		t.Fatalf("got %d options, want 2", len(h.Options))
	}
	opt, _ := h.FindOption(OptSecurity)
	if opt.Data[0] != 3 {
		t.Fatal("SetOption did not replace")
	}
	if !h.RemoveOption(OptSecurity) {
		t.Fatal("RemoveOption found nothing")
	}
	if h.RemoveOption(OptSecurity) {
		t.Fatal("RemoveOption removed twice")
	}
	if _, ok := h.FindOption(OptSecurity); ok {
		t.Fatal("option still present after removal")
	}
}

func TestCopiedFlag(t *testing.T) {
	if !(Option{Type: OptSecurity}).Copied() {
		t.Error("security option must have the copied flag (0x82)")
	}
	if (Option{Type: OptTimestamp}).Copied() {
		t.Error("timestamp option is not copied")
	}
}

func TestBorderFilter(t *testing.T) {
	p := samplePacket()
	if got := BorderFilter(p); got != BorderForward {
		t.Fatalf("clean packet: %v", got)
	}
	p.Header.SetOption(Option{Type: OptSecurity, Data: []byte{1, 2}})
	if got := BorderFilter(p); got != BorderDrop {
		t.Fatalf("optioned packet: %v", got)
	}
	if BorderDrop.String() != "drop" || BorderForward.String() != "forward" {
		t.Error("action names wrong")
	}
	if BorderFilterAction(99).String() != "unknown" {
		t.Error("unknown action name wrong")
	}
}

func TestClone(t *testing.T) {
	p := samplePacket()
	p.Header.SetOption(Option{Type: OptSecurity, Data: []byte{9, 9}})
	c := p.Clone()
	c.Payload[0] = 'X'
	c.Header.Options[0].Data[0] = 0
	if p.Payload[0] == 'X' || p.Header.Options[0].Data[0] == 0 {
		t.Fatal("Clone aliases the original")
	}
}

func TestMarshalRejectsNonIPv4(t *testing.T) {
	p := samplePacket()
	p.Header.Dst = netip.MustParseAddr("2001:db8::1")
	if _, err := p.Marshal(); !errors.Is(err, ErrNotIPv4Addr) {
		t.Fatalf("err = %v, want ErrNotIPv4Addr", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := &Packet{
			Header: Header{
				TOS:      byte(r.Intn(256)),
				ID:       uint16(r.Intn(1 << 16)),
				Flags:    byte(r.Intn(3)) << 1, // DF/MF-ish without reserved bit
				FragOff:  uint16(r.Intn(1 << 13)),
				TTL:      byte(1 + r.Intn(255)),
				Protocol: byte(r.Intn(256)),
				Src:      netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}),
				Dst:      netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}),
			},
			Payload: make([]byte, r.Intn(512)),
		}
		r.Read(p.Payload)
		if r.Intn(2) == 1 {
			data := make([]byte, r.Intn(30))
			r.Read(data)
			p.Header.SetOption(Option{Type: OptSecurity, Data: data})
		}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		if got.Header.Src != p.Header.Src || got.Header.Dst != p.Header.Dst ||
			got.Header.ID != p.Header.ID || got.Header.TTL != p.Header.TTL ||
			got.Header.Protocol != p.Header.Protocol || got.Header.TOS != p.Header.TOS ||
			got.Header.Flags != p.Header.Flags || got.Header.FragOff != p.Header.FragOff {
			return false
		}
		if !bytes.Equal(got.Payload, p.Payload) {
			return false
		}
		if len(got.Header.Options) != len(p.Header.Options) {
			return false
		}
		for i := range got.Header.Options {
			if got.Header.Options[i].Type != p.Header.Options[i].Type ||
				!bytes.Equal(got.Header.Options[i].Data, p.Header.Options[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Worked example adapted from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	ck := Checksum(data)
	// Verify the invariant: appending the checksum makes the sum zero.
	withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
	if Checksum(withCk) != 0 {
		t.Fatalf("checksum invariant violated: %x", Checksum(withCk))
	}
	// Odd-length buffers pad with a zero byte.
	odd := []byte{0xab, 0xcd, 0xef}
	_ = Checksum(odd) // must not panic
}

// TestUnmarshalKeepsWhatMarshalWrites pins the parser to the encodings
// Marshal writes back unchanged: a NOP stays an option, padding after the
// End of Option List is zeros up to the next 32-bit boundary, and the
// checksum is never the negative zero 0xffff.
func TestUnmarshalKeepsWhatMarshalWrites(t *testing.T) {
	p := samplePacket()
	p.Header.Options = []Option{{Type: OptNOP}, {Type: OptSecurity, Data: []byte{1, 2}}}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header.Options) != 2 || got.Header.Options[0].Type != OptNOP {
		t.Fatalf("options = %+v, want the NOP kept before the tag", got.Header.Options)
	}

	p.Header.Options = p.Header.Options[1:] // 4 option bytes, no padding
	for name, pad := range map[string][]byte{
		"nonzero padding":    {OptEnd, 0, 7, 0},
		"extra padding word": {OptEnd, 0, 0, 0},
	} {
		bad, _ := p.Marshal()
		hdr := append(append(append([]byte(nil), bad[:24]...), pad...), bad[24:]...)
		hdr[0] = 4<<4 | 7
		hdr[3] += 4
		fixChecksum(hdr)
		if _, err := Unmarshal(hdr); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", name, err)
		}
	}

	// A header whose computed checksum is 0x0000 also sums to zero with
	// 0xffff in the field; only the computed form is accepted.
	h := make([]byte, MinHeaderLen)
	h[0] = 0x45
	h[3] = MinHeaderLen
	binary.BigEndian.PutUint16(h[12:14], 0xffff-0x4500-MinHeaderLen)
	if c := Checksum(h); c != 0 {
		t.Fatalf("test header checksums to %#x, want 0", c)
	}
	if _, err := Unmarshal(h); err != nil {
		t.Fatalf("computed checksum rejected: %v", err)
	}
	h[10], h[11] = 0xff, 0xff
	if _, err := Unmarshal(h); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("negative-zero checksum: err = %v, want ErrBadChecksum", err)
	}
}
