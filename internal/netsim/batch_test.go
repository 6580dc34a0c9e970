package netsim

import (
	"fmt"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// TestDeliverBatchMatchesDeliver pushes the same mixed traffic as one burst
// and one packet at a time and compares fates, enforcement results,
// captures and server accounting.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	mk := func(workers int) (*Network, *ipv4.Packet, *ipv4.Packet) {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{}), Workers: workers})
		n := newStaticNetwork(ModeTAP, gw)
		return n, taggedPacket(t, apk, db, "sync"), taggedPacket(t, apk, db, "beacon")
	}

	nScalar, benignS, trackerS := mk(1)
	nBatch, benignB, trackerB := mk(2)

	scalarBurst := []*ipv4.Packet{benignS, trackerS, benignS, plainPacket(getRequest()), benignS}
	batchBurst := []*ipv4.Packet{benignB, trackerB, benignB, plainPacket(getRequest()), benignB}

	var want []Delivery
	for _, pkt := range scalarBurst {
		want = append(want, nScalar.Deliver(pkt))
	}
	got := nBatch.DeliverBatch(batchBurst)

	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Delivered != want[i].Delivered || got[i].Stage != want[i].Stage {
			t.Fatalf("pkt %d: batch {%v %v}, scalar {%v %v}",
				i, got[i].Delivered, got[i].Stage, want[i].Delivered, want[i].Stage)
		}
		if (got[i].Enforcement == nil) != (want[i].Enforcement == nil) {
			t.Fatalf("pkt %d: enforcement presence differs", i)
		}
		if got[i].Enforcement != nil && got[i].Enforcement.Verdict != want[i].Enforcement.Verdict {
			t.Fatalf("pkt %d: verdict %v vs %v", i, got[i].Enforcement.Verdict, want[i].Enforcement.Verdict)
		}
		if got[i].Delivered && (got[i].Response == nil || got[i].Response.Status != 200) {
			t.Fatalf("pkt %d: response %+v", i, got[i].Response)
		}
		if got[i].Latency <= 0 {
			t.Fatalf("pkt %d: no latency charged", i)
		}
	}

	// Server accounting matches.
	srvS, _ := nScalar.ServerAt(serverAddr())
	srvB, _ := nBatch.ServerAt(serverAddr())
	if srvS.Requests() != srvB.Requests() {
		t.Fatalf("server requests: scalar %d, batch %d", srvS.Requests(), srvB.Requests())
	}
	// Post-gateway capture holds only sanitized survivors.
	for _, pkt := range nBatch.CaptureAt(CapturePostGateway).Packets() {
		if pkt.Header.HasOptions() {
			t.Fatal("post-gateway capture holds an unsanitized packet")
		}
	}
}

// TestDeliverBatchAmortizesQueueHop: a burst pays the NFQUEUE transition
// once, so its total virtual time undercuts per-packet delivery.
func TestDeliverBatchAmortizesQueueHop(t *testing.T) {
	mk := func() (*Network, *ipv4.Packet) {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{})})
		n := newStaticNetwork(ModeTAP, gw)
		return n, taggedPacket(t, apk, db, "sync")
	}
	nScalar, pktS := mk()
	nBatch, pktB := mk()

	const burst = 16
	startS := nScalar.Clock.Now()
	for i := 0; i < burst; i++ {
		if d := nScalar.Deliver(pktS); !d.Delivered {
			t.Fatalf("scalar pkt %d dropped: %+v", i, d)
		}
	}
	scalarTotal := nScalar.Clock.Now() - startS

	pkts := make([]*ipv4.Packet, burst)
	for i := range pkts {
		pkts[i] = pktB
	}
	startB := nBatch.Clock.Now()
	for i, d := range nBatch.DeliverBatch(pkts) {
		if !d.Delivered {
			t.Fatalf("batch pkt %d dropped: %+v", i, d)
		}
	}
	batchTotal := nBatch.Clock.Now() - startB

	if batchTotal >= scalarTotal {
		t.Fatalf("batch burst %v must undercut scalar %v", batchTotal, scalarTotal)
	}
}

// TestDeliverBatchEmpty is the trivial edge.
func TestDeliverBatchEmpty(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	if out := n.DeliverBatch(nil); len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

// TestGatewayProcessBatchFlowCache: with a flow cache on the enforcer,
// repeated batches of one flow drive the policy engine exactly once.
func TestGatewayProcessBatchFlowCache(t *testing.T) {
	enf0, apk, db := buildEnforcerAndDB(t)
	flows := enforcer.NewFlowCache(flowtable.Config{Capacity: 1024})
	enf := enforcer.New(enforcer.Config{Flows: flows}, db, enf0.Engine())
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{}), Workers: 2})

	pkt := taggedPacket(t, apk, db, "sync")
	burst := make([]*ipv4.Packet, 32)
	for i := range burst {
		burst[i] = pkt
	}
	for round := 0; round < 4; round++ {
		out, err := gw.ProcessBatch(burst)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Out == nil || o.Result == nil || o.Result.Verdict != policy.VerdictAllow {
				t.Fatalf("round %d pkt %d: %+v", round, i, o)
			}
			if o.Out.Header.HasOptions() {
				t.Fatalf("round %d pkt %d: not sanitized", round, i)
			}
		}
	}
	if evals := count(enf, "bp_policy_evaluations_total"); evals != 1 {
		t.Fatalf("policy evaluations = %d, want 1 (flow cache + memo)", evals)
	}
	if n := count(enf, "bp_enforcer_verdicts_total"); n != 128 {
		t.Fatalf("processed = %d", n)
	}
	hits, memo := count(enf, "bp_flowtable_hits_total"), count(enf, "bp_enforcer_batch_memo_hits_total")
	if hits+memo != 127 {
		t.Fatalf("hits %d + memo %d != 127", hits, memo)
	}
}

// BenchmarkKernelBatchKeepAlive pushes 64-packet keep-alive trains through
// the gateway's NFQUEUE 1 traversal alone — kernel batch walk plus the
// enforcer's batch handler, no sanitizer, conntrack or server — against
// the §VI-B1 validation-scale rule set (1,050 library deny rules).
// Reported ns/op is per packet; BenchmarkProcessBatchKeepAlive in the
// enforcer package is the same train without the kernel walk.
func BenchmarkKernelBatchKeepAlive(b *testing.B) {
	_, apk, db := buildEnforcerAndDB(b)
	rules := make([]policy.Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, policy.Rule{
			Action: policy.Deny,
			Level:  policy.LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	eng, err := policy.NewEngine(rules, policy.VerdictAllow)
	if err != nil {
		b.Fatal(err)
	}
	enf := enforcer.New(enforcer.Config{
		Flows: enforcer.NewFlowCache(flowtable.Config{Capacity: 65536}),
	}, db, eng)
	nf := NewGateway(GatewayConfig{Enforcer: enf}).Netfilter()
	batch := make([]*ipv4.Packet, 64)
	for i := range batch {
		batch[i] = taggedPacket(b, apk, db, "sync")
	}
	if _, err := nf.OutputBatch(batch); err != nil { // fill the flow cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		res, err := nf.OutputBatch(batch)
		if err != nil || res[0].Out == nil {
			b.Fatal("keep-alive packet lost")
		}
	}
}
