package netsim

import (
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// TestDeliverBatchMatchesDeliver pushes the same mixed traffic as one burst
// and one packet at a time and compares fates, enforcement results,
// sanitizing and server accounting.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	mk := func(workers int) (*Network, *ipv4.Packet, *ipv4.Packet) {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: workers, Clock: NewClock()})
		n := newStaticNetwork(ModeTAP, gw)
		return n, taggedPacket(t, apk, db, "sync"), taggedPacket(t, apk, db, "beacon")
	}

	nScalar, benignS, trackerS := mk(1)
	nBatch, benignB, trackerB := mk(2)
	requestsS, _ := countRequests(nScalar)
	requestsB, _ := countRequests(nBatch)

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
	if requestsS.Load() != requestsB.Load() {
		t.Fatalf("server requests: scalar %d, batch %d", requestsS.Load(), requestsB.Load())
	}
	// Both sanitized the same survivors, and a drain of the burst hands
	// out only sanitized copies.
	cleansedS := count(nScalar.Gateway.Sanitizer(), "bp_sanitizer_cleansed_total")
	if cleansedB := count(nBatch.Gateway.Sanitizer(), "bp_sanitizer_cleansed_total"); cleansedS != 3 || cleansedB != cleansedS {
		t.Fatalf("cleansed: scalar %d, batch %d, want 3", cleansedS, cleansedB)
	}
	outs, err := nBatch.Gateway.ProcessBatch(batchBurst)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Out != nil && o.Out.Header.HasOptions() {
			t.Fatalf("pkt %d: the gateway passed an unsanitized packet", i)
		}
	}
}

// TestDeliverBatchAmortizesQueueHop: a burst pays the NFQUEUE transition
// once, so its total virtual time undercuts per-packet delivery.
func TestDeliverBatchAmortizesQueueHop(t *testing.T) {
	mk := func() (*Network, *ipv4.Packet) {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: NewClock()})
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
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: 2, Clock: clock})

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

// TestDeniedPacketNeverSanitized pins the stage order and the stage-less
// gateways: a tagged packet the enforcer denies is dropped before the
// sanitizer, so the sanitizer cleanses exactly the accepted tagged
// packets; a passthrough gateway returns every packet unmodified, and it
// and a sanitizer-only gateway report no enforcement result.
func TestDeniedPacketNeverSanitized(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
	san := sanitizer.New()
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: san, Clock: NewClock()})
	allowed, denied := taggedPacket(t, apk, db, "sync"), taggedPacket(t, apk, db, "beacon")
	burst := []*ipv4.Packet{allowed, denied, denied, allowed, denied}
	out, err := gw.ProcessBatch(burst)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i, o := range out {
		if o.Result == nil {
			t.Fatalf("packet %d: no enforcement result", i)
		}
		if burst[i] == denied {
			if o.Out != nil || o.Result.Verdict != policy.VerdictDrop {
				t.Fatalf("denied packet %d: %+v", i, o)
			}
			continue
		}
		accepted++
		if o.Out == nil || o.Out.Header.HasOptions() || o.Result.Verdict != policy.VerdictAllow {
			t.Fatalf("allowed packet %d: %+v", i, o)
		}
	}
	if got := count(san, "bp_sanitizer_cleansed_total"); got != uint64(accepted) {
		t.Fatalf("sanitizer cleansed %d packets, want the %d accepted ones", got, accepted)
	}

	for name, cfg := range map[string]GatewayConfig{
		"passthrough":    {Passthrough: true, Clock: NewClock()},
		"sanitizer only": {Sanitizer: sanitizer.New(), Clock: NewClock()},
	} {
		out, err := NewGateway(cfg).ProcessBatch(burst)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Out == nil || o.Result != nil {
				t.Fatalf("%s: packet %d: %+v", name, i, o)
			}
			if _, tagged := o.Out.Header.FindOption(ipv4.OptSecurity); tagged != (name == "passthrough") {
				t.Fatalf("%s: packet %d left tagged = %v", name, i, tagged)
			}
			if name == "passthrough" && o.Out != burst[i] {
				t.Fatalf("passthrough: packet %d was replaced", i)
			}
		}
	}
}
