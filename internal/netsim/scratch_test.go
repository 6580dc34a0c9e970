package netsim

import (
	"reflect"
	"testing"

	"borderpatrol/internal/audit"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/sanitizer"
)

// TestDeliveryOutlivesKernelScratch: a burst runs on pooled scratch (the
// burst, its workers' index and packet slices), which the next bursts
// reuse. The enforcement results a delivery points at and the audit trail
// of a burst must stay as they were after later bursts — of other flows,
// with other verdicts — went through the same scratch.
func TestDeliveryOutlivesKernelScratch(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	log := audit.New(nil, 64)
	defer log.Close()
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{Audit: log}, db, eng)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	allowed := keepAliveBurst(t, taggedPacket(t, apk, db, "sync"), 41000, 1)
	denied := keepAliveBurst(t, taggedPacket(t, apk, db, "beacon"), 41001, 1)
	burst := append(append([]*ipv4.Packet(nil), allowed...), denied...)
	dels := n.DeliverBatch(burst)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	trail := log.Tail()
	results := make([]enforcer.Result, len(dels))
	for i, d := range dels {
		if d.Enforcement == nil || d.Delivered != (i < len(allowed)) {
			t.Fatalf("packet %d: %+v", i, d)
		}
		results[i] = *d.Enforcement
	}
	if len(trail) != len(burst) {
		t.Fatalf("%d audit entries for %d packets", len(trail), len(burst))
	}

	for port := uint16(42000); port < 42008; port++ {
		n.DeliverBatch(keepAliveBurst(t, taggedPacket(t, apk, db, "beacon"), port, 3))
	}

	for i, d := range dels {
		if !reflect.DeepEqual(*d.Enforcement, results[i]) {
			t.Fatalf("packet %d: enforcement result changed after its burst: %+v, was %+v", i, *d.Enforcement, results[i])
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := log.Tail()[:len(trail)]; !reflect.DeepEqual(got, trail) {
		t.Fatalf("audit trail changed after its burst:\n%+v\nwas\n%+v", got, trail)
	}
}

// BenchmarkDeliverBatchConnect is one connection as the connect workload
// sends it — SYN, one request, FIN in one burst — through DeliverBatch:
// enforcer (a flow miss, then the memo), sanitizer, conntrack, server and
// response check. One op is one burst. Source ports cycle as in
// BenchmarkServeKeepAlive.
func BenchmarkDeliverBatchConnect(b *testing.B) {
	n, _, _, base := tailFixture(b)
	bursts := make([][]*ipv4.Packet, 1024)
	for i := range bursts {
		bursts[i] = keepAliveBurst(b, base, uint16(20000+i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range n.DeliverBatch(bursts[i%len(bursts)]) {
			if !d.Delivered || d.ResponseDropped {
				b.Fatalf("delivery: %+v", d)
			}
		}
	}
}
