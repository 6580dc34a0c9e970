package gateway

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/transport"
)

// fwdPkt is a device→server segment on the canonical test tuple;
// respPkt is the server's reply on the reversed tuple.
func fwdPkt(flags byte, seq uint32, payload []byte) *ipv4.Packet {
	seg := transport.TCPSegment{
		SrcPort: 40900, DstPort: 443, Seq: seq,
		Flags: flags, Window: 65535, Payload: payload,
	}
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr("10.66.0.2"),
			Dst: netip.MustParseAddr("93.184.216.34"),
		},
		Payload: seg.Marshal(),
	}
}

func respPkt(flags byte, seq uint32, payload []byte) *ipv4.Packet {
	seg := transport.TCPSegment{
		SrcPort: 443, DstPort: 40900, Seq: seq,
		Flags: flags, Window: 65535, Payload: payload,
	}
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr("93.184.216.34"),
			Dst: netip.MustParseAddr("10.66.0.2"),
		},
		Payload: seg.Marshal(),
	}
}

// TestResponseSeqInjectionDropped: the response direction carries no tag,
// so what it gets is continuity — the first observed response primes the
// expected sequence number and a mid-stream segment that breaks it is
// dropped under its own counted cause (ResponseSeqDrops, exported as
// bp_conntrack_responses_total{outcome="seq_drop"}). Retransmissions of
// the next expected segment keep passing.
func TestResponseSeqInjectionDropped(t *testing.T) {
	ct := NewConntrack(newClock())
	ct.Observe(fwdPkt(transport.FlagSYN, 1, nil))

	body := []byte("HTTP/1.1 200 OK\r\n\r\n")
	if ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, 5000, body)) {
		t.Fatal("priming response dropped")
	}
	next := 5000 + uint32(len(body))
	if ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, next, body)) {
		t.Fatal("continuous response dropped")
	}
	// Mid-stream injection: a crafted segment whose seq does not continue
	// the stream. Must be dropped, and counted as a seq drop — not as a
	// generic policy drop.
	if !ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, 99999, []byte("evil"))) {
		t.Fatal("injected discontinuous response accepted")
	}
	st := conntrack(ct)
	if st["seq_drop"] != 1 {
		t.Fatalf("seq drops = %d, want 1 (stats %+v)", st["seq_drop"], st)
	}
	if st["checked"] != 3 {
		t.Fatalf("responses checked = %d, want 3", st["checked"])
	}
	// The legitimate stream is not poisoned by the drop: the real next
	// segment still passes.
	if ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, next+uint32(len(body)), body)) {
		t.Fatal("legitimate continuation dropped after injection")
	}
}

// TestResponseUnknownConnAdopted: a response for a connection the tracker
// never saw open (gateway restart, SYN predates it) is adopted, not
// dropped — fail-open here is on continuity only, never on policy, and
// adoption re-primes the check so the NEXT discontinuity is caught.
func TestResponseUnknownConnAdopted(t *testing.T) {
	ct := NewConntrack(newClock())
	body := []byte("data")
	if ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, 700, body)) {
		t.Fatal("mid-stream adoption dropped the response")
	}
	st := conntrack(ct)
	if st["adopted"] != 1 || st["open"] != 1 {
		t.Fatalf("adoption stats: %+v", st)
	}
	if !ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, 42, body)) {
		t.Fatal("post-adoption discontinuity accepted")
	}
	if st := conntrack(ct); st["seq_drop"] != 1 {
		t.Fatalf("seq drops after adoption = %d, want 1", st["seq_drop"])
	}
}

// TestResponseInTimeWaitAccepted: a reply racing the close lands on a
// TIME_WAIT tuple and is accepted uncounted as a check — the teardown
// already fired, so there is no stream left to protect.
func TestResponseInTimeWaitAccepted(t *testing.T) {
	ct := NewConntrack(newClock())
	ct.Observe(fwdPkt(transport.FlagSYN, 1, nil))
	ct.Observe(fwdPkt(transport.FlagFIN|transport.FlagACK, 2, nil))
	if ct.ObserveResponse(respPkt(transport.FlagPSH|transport.FlagACK, 1234, []byte("bye"))) {
		t.Fatal("late response dropped")
	}
	st := conntrack(ct)
	if st["late"] != 1 || st["seq_drop"] != 0 {
		t.Fatalf("late-response stats: %+v", st)
	}
}

// TestGatewayProcessResponseDropsInjection exercises the gateway-level
// wrapper: ProcessResponse reports false for the injected segment and the
// drop shows up on the gateway's conntrack stats and, in the registry, as
// the seq_drop outcome of the conntrack's response family.
func TestGatewayProcessResponseDropsInjection(t *testing.T) {
	enf, _, _ := buildEnforcerAndDB(t)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Clock: newClock()})
	gw.ct.Observe(fwdPkt(transport.FlagSYN, 1, nil))

	body := []byte("HTTP/1.1 200 OK\r\n\r\n")
	if !gw.ProcessResponse(respPkt(transport.FlagPSH|transport.FlagACK, 9000, body)) {
		t.Fatal("priming response dropped")
	}
	if gw.ProcessResponse(respPkt(transport.FlagPSH|transport.FlagACK, 31337, []byte("evil"))) {
		t.Fatal("injected response delivered")
	}
	if ct := conntrack(gw.ct); ct["seq_drop"] != 1 {
		t.Fatalf("gateway seq drops = %d, want 1", ct["seq_drop"])
	}
	reg := metrics.NewRegistry()
	gw.RegisterMetrics(reg)
	if got := sumMetric(reg, "bp_conntrack_responses_total", metrics.L("outcome", "seq_drop")); got != 1 {
		t.Fatalf(`bp_conntrack_responses_total{outcome="seq_drop"} = %v, want 1`, got)
	}
}
