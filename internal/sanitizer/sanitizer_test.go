package sanitizer

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
)

func taggedPacket() *ipv4.Packet {
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.0.0.5"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3, 4}})
	return pkt
}

func TestStripsBorderPatrolOption(t *testing.T) {
	s := New()
	pkt := s.Process(taggedPacket())
	if pkt.Header.HasOptions() {
		t.Fatalf("options survived: %+v", pkt.Header.Options)
	}
	// The cleansed packet now passes RFC 7126 border filtering.
	if ipv4.BorderFilter(pkt) != ipv4.BorderForward {
		t.Fatal("cleansed packet still dropped at border")
	}
	if n := cleansed(s); n != 1 {
		t.Fatalf("cleansed = %d, want 1", n)
	}
}

func TestCleanPacketUntouched(t *testing.T) {
	s := New()
	pkt := taggedPacket()
	pkt.Header.Options = nil
	payloadBefore := string(pkt.Payload)
	out := s.Process(pkt)
	if string(out.Payload) != payloadBefore {
		t.Fatal("payload modified")
	}
	if n := cleansed(s); n != 0 {
		t.Fatalf("cleansed = %d, want 0 (the packet was already clean)", n)
	}
}

func TestSelectiveStripKeepsOtherOptions(t *testing.T) {
	// Only the BorderPatrol option goes; a timestamp option survives (and
	// would then be dropped at the border).
	s := New()
	pkt := taggedPacket()
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptTimestamp, Data: []byte{9}})
	out := s.Process(pkt)
	if _, ok := out.Header.FindOption(ipv4.OptSecurity); ok {
		t.Fatal("security option survived selective strip")
	}
	if _, ok := out.Header.FindOption(ipv4.OptTimestamp); !ok {
		t.Fatal("timestamp option removed by selective strip")
	}
	if ipv4.BorderFilter(out) != ipv4.BorderDrop {
		t.Fatal("expected border drop with surviving option")
	}
}

func TestSanitizedPacketStillMarshals(t *testing.T) {
	s := New()
	out := s.Process(taggedPacket())
	buf, err := out.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ipv4.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.HasOptions() {
		t.Fatal("options reappeared after marshal round trip")
	}
	if len(back.Payload) != len(out.Payload) {
		t.Fatal("payload length changed")
	}
}

func TestIdempotent(t *testing.T) {
	s := New()
	pkt := s.Process(taggedPacket())
	again := s.Process(pkt)
	if again.Header.HasOptions() {
		t.Fatal("second pass found options")
	}
	if n := cleansed(s); n != 1 {
		t.Fatalf("cleansed = %d, want 1 (the second pass found nothing)", n)
	}
}

// cleansed reads bp_sanitizer_cleansed_total.
func cleansed(s *Sanitizer) uint64 {
	r := metrics.NewRegistry()
	s.RegisterMetrics(r)
	v, _ := r.Value("bp_sanitizer_cleansed_total")
	return uint64(v)
}
