package netsim

import (
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// TestKeepAliveFlowSurvivesDelivery: the teardown must key on the
// connection actually ending — data segments stay cached, whatever their
// HTTP Connection header says, and later packets hit.
func TestKeepAliveFlowSurvivesDelivery(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	pkt := taggedPacket(t, apk, db, "sync") // "Connection: close" in a data segment
	if d := n.Deliver(pkt); !d.Delivered {
		t.Fatalf("first delivery failed: %+v", d)
	}
	if st := flowCounts(enf); st["live"] != 1 {
		t.Fatalf("keep-alive flow not cached: %+v", st)
	}
	if d := n.Deliver(pkt); !d.Delivered {
		t.Fatalf("second delivery failed: %+v", d)
	}
	st := flowCounts(enf)
	if st["hits"] != 1 || st["misses"] != 1 {
		t.Fatalf("keep-alive second packet must hit: %+v", st)
	}
}

// TestBatchDeliveryTearsDownClosedFlows: a burst holding one whole
// single-request connection (SYN, request, FIN) leaves no live flow, and
// a fresh connection on the same tuple re-resolves.
func TestBatchDeliveryTearsDownClosedFlows(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: 2, Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	syn, data, fin := tcpConn(t, taggedPacket(t, apk, db, "sync"), 40900, 1)
	burst := []*ipv4.Packet{syn, data[0], fin}
	for i, d := range n.DeliverBatch(burst) {
		if !d.Delivered {
			t.Fatalf("burst pkt %d dropped: %+v", i, d)
		}
	}
	if st := flowCounts(enf); st["live"] != 0 {
		t.Fatalf("closed flow survived the batch drain: %+v", st)
	}
	for i, d := range n.DeliverBatch(burst) {
		if !d.Delivered || d.Enforcement.Verdict != policy.VerdictAllow {
			t.Fatalf("re-resolved burst pkt %d: %+v", i, d)
		}
	}
	if st := flowCounts(enf); st["misses"] != 2 {
		t.Fatalf("each burst must re-resolve its flow once: %+v", st)
	}
}
