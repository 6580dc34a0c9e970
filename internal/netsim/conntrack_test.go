package netsim

import (
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/transport"
)

// tcpConn builds the packet train of one TCP connection out of a tagged
// test packet: SYN, n data segments carrying base's HTTP request, FIN.
// Every packet keeps the tag (same socket, same options).
func tcpConn(t testing.TB, base *ipv4.Packet, srcPort uint16, n int) (syn *ipv4.Packet, data []*ipv4.Packet, fin *ipv4.Packet) {
	t.Helper()
	baseSeg, err := transport.ParseTCP(base.Payload)
	if err != nil {
		t.Fatalf("base packet is not a TCP segment: %v", err)
	}
	request := baseSeg.Payload
	mk := func(flags byte, seq uint32, payload []byte) *ipv4.Packet {
		out := base.Clone()
		seg := transport.TCPSegment{
			SrcPort: srcPort, DstPort: 443, Seq: seq,
			Flags: flags, Window: 65535, Payload: payload,
		}
		out.Payload = seg.Marshal()
		return out
	}
	syn = mk(transport.FlagSYN, 1, nil)
	seq := uint32(2)
	for i := 0; i < n; i++ {
		data = append(data, mk(transport.FlagPSH|transport.FlagACK, seq, request))
		seq += uint32(len(request))
	}
	fin = mk(transport.FlagFIN|transport.FlagACK, seq, nil)
	return syn, data, fin
}

// TestConntrackLifecycleTearsDownFlow: SYN establishes, data hits the
// cache, and the FIN deletes the flow's cached verdict.
func TestConntrackLifecycleTearsDownFlow(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	base := taggedPacket(t, apk, db, "sync")
	syn, data, fin := tcpConn(t, base, 40700, 3)

	if d := n.Deliver(syn); !d.Delivered {
		t.Fatalf("SYN dropped: %+v", d)
	}
	ct := conntrack(gw)
	if ct["established"] != 1 || ct["open"] != 1 {
		t.Fatalf("conntrack after SYN: %+v", ct)
	}
	for i, pkt := range data {
		d := n.Deliver(pkt)
		if !d.Delivered || d.Response == nil || d.Response.Status != 200 {
			t.Fatalf("data %d: %+v", i, d)
		}
	}
	st := flowCounts(enf)
	if st["live"] != 1 || st["misses"] != 1 || st["hits"] != 3 {
		t.Fatalf("mid-connection flow stats: %+v", st)
	}

	if d := n.Deliver(fin); !d.Delivered {
		t.Fatalf("FIN dropped: %+v", d)
	}
	ct = conntrack(gw)
	if ct["closed"] != 1 || ct["open"] != 0 {
		t.Fatalf("conntrack after FIN: %+v", ct)
	}
	if st := flowCounts(enf); st["live"] != 0 {
		t.Fatalf("FIN did not tear the flow down: %+v", st)
	}

	// A fresh connection on the same tuple re-resolves: the SYN missed
	// once, data and FIN hit (teardown runs after enforcement), and the
	// second SYN misses again.
	syn2, _, _ := tcpConn(t, base, 40700, 0)
	if d := n.Deliver(syn2); !d.Delivered {
		t.Fatalf("second SYN dropped: %+v", d)
	}
	st = flowCounts(enf)
	if st["misses"] != 2 || st["hits"] != 4 {
		t.Fatalf("re-resolve stats = %+v, want 2 misses / 4 hits", st)
	}
}

// TestRSTAbortsConnection: RST tears down like FIN.
func TestRSTAbortsConnection(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	base := taggedPacket(t, apk, db, "sync")
	syn, data, _ := tcpConn(t, base, 40800, 1)
	rstPkt := base.Clone()
	seg := transport.TCPSegment{SrcPort: 40800, DstPort: 443, Seq: 99, Flags: transport.FlagRST, Window: 0}
	rstPkt.Payload = seg.Marshal()

	n.Deliver(syn)
	n.Deliver(data[0])
	if st := flowCounts(enf); st["live"] != 1 {
		t.Fatalf("flow not cached: %+v", st)
	}
	if d := n.Deliver(rstPkt); !d.Delivered {
		t.Fatalf("RST dropped: %+v", d)
	}
	if st := flowCounts(enf); st["live"] != 0 {
		t.Fatalf("RST did not tear the flow down: %+v", st)
	}
	if ct := conntrack(gw); ct["closed"] != 1 {
		t.Fatalf("conntrack: %+v", ct)
	}
}

// TestDeniedFlowKeepsCachedDropAcrossFIN: the conntrack only observes
// accepted packets, so a denied flow's FIN is dropped like the rest of it
// and the cached drop verdict survives — repeat offenders stay cheap.
func TestDeniedFlowKeepsCachedDropAcrossFIN(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	base := taggedPacket(t, apk, db, "beacon") // denied by the flurry rule
	syn, data, fin := tcpConn(t, base, 40900, 1)
	for _, pkt := range []*ipv4.Packet{syn, data[0], fin} {
		if d := n.Deliver(pkt); d.Delivered {
			t.Fatalf("denied flow packet delivered: %+v", d)
		}
	}
	st := flowCounts(enf)
	if st["live"] != 1 {
		t.Fatalf("cached drop verdict evicted by its own FIN: %+v", st)
	}
	if st["hits"] != 2 { // data + FIN answered from the cached drop
		t.Fatalf("hits = %d, want 2", st["hits"])
	}
	if ct := conntrack(gw); ct["established"] != 0 || ct["closed"] != 0 {
		t.Fatalf("conntrack observed dropped packets: %+v", ct)
	}
}

// TestBatchConntrackTeardown: the batched drain observes lifecycle in
// burst order — the FIN at the end of a train tears down after the data
// hit the cache.
func TestBatchConntrackTeardown(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: 2, Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	base := taggedPacket(t, apk, db, "sync")
	syn, data, fin := tcpConn(t, base, 41000, 4)
	burst := append([]*ipv4.Packet{syn}, data...)
	burst = append(burst, fin)

	for i, d := range n.DeliverBatch(burst) {
		if !d.Delivered {
			t.Fatalf("burst pkt %d dropped: %+v", i, d)
		}
		if d.Enforcement == nil || d.Enforcement.Verdict != policy.VerdictAllow {
			t.Fatalf("burst pkt %d enforcement: %+v", i, d.Enforcement)
		}
	}
	st := flowCounts(enf)
	if st["live"] != 0 {
		t.Fatalf("batched FIN did not tear down: %+v", st)
	}
	if memo := count(enf, "bp_enforcer_batch_memo_hits_total"); st["misses"] != 1 || st["hits"]+memo != 5 {
		t.Fatalf("train not amortized: %v memo=%d", st, memo)
	}
	ct := conntrack(gw)
	if ct["established"] != 1 || ct["closed"] != 1 || ct["open"] != 0 {
		t.Fatalf("conntrack: %+v", ct)
	}
}
