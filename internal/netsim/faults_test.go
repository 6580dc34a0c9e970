package netsim

import (
	"bytes"
	"testing"
	"time"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/sanitizer"
)

// TestFaultDeterminism: the same seed over the same roll sequence yields
// the same faults — a failing soak run replays exactly.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Drop: 0.3, Corrupt: 0.3, Delay: 0.3, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}
	a, b := newFaults(plan, new(faultCounts)), newFaults(plan, new(faultCounts))
	for i := 0; i < 10_000; i++ {
		if a.rollDrop() != b.rollDrop() || a.rollDelay() != b.rollDelay() {
			t.Fatalf("sequences diverged at roll %d", i)
		}
	}
	for st := range a.counts.n {
		if a.counts.n[st].Load() != b.counts.n[st].Load() || a.counts.delay.Load() != b.counts.delay.Load() {
			t.Fatalf("%s counts diverged", faultStageNames[st])
		}
	}
	if newFaults(FaultPlan{Seed: 43, Drop: 0.3}, new(faultCounts)).next() == newFaults(FaultPlan{Seed: 42, Drop: 0.3}, new(faultCounts)).next() {
		t.Fatal("different seeds produced the same first draw")
	}
}

// TestFaultRates: observed fault frequency tracks the configured
// probability (law of large numbers, generous tolerance).
func TestFaultRates(t *testing.T) {
	f := newFaults(FaultPlan{Seed: 7, Drop: 0.25}, new(faultCounts))
	const n = 200_000
	hits := 0
	for i := 0; i < n; i++ {
		if f.rollDrop() {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.24 || got > 0.26 {
		t.Fatalf("drop rate = %.4f, want ~0.25", got)
	}
}

// TestFaultZeroProbabilityFree: a zero threshold never fires and never
// burns a PRNG step — the disarmed categories cost nothing.
func TestFaultZeroProbabilityFree(t *testing.T) {
	f := newFaults(FaultPlan{Seed: 9}, new(faultCounts))
	before := f.state.Load()
	for i := 0; i < 100; i++ {
		if f.rollDrop() || f.rollDup() || f.rollReorder() || f.rollDelay() != 0 {
			t.Fatal("zero plan fired a fault")
		}
		if f.mutate(&ipv4.Packet{Payload: []byte("abc")}) != nil {
			t.Fatal("zero plan mutated a packet")
		}
	}
	if f.state.Load() != before {
		t.Fatal("zero plan advanced the PRNG")
	}
}

// TestFaultMutatePreservesHeader: corruption and truncation damage only a
// payload clone — the original packet and the IPv4 options carrying the
// BorderPatrol tag are never touched. This is the fail-safe property's
// foundation: no wire fault can rewrite a tag into one that resolves to an
// allowed context.
func TestFaultMutatePreservesHeader(t *testing.T) {
	f := newFaults(FaultPlan{Seed: 3, Corrupt: 1, Truncate: 1}, new(faultCounts))
	pkt := &ipv4.Packet{Payload: []byte("GET / HTTP/1.1\r\n\r\n")}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3, 4}})
	origPayload := append([]byte(nil), pkt.Payload...)

	m := f.mutate(pkt)
	if m == nil {
		t.Fatal("p=1 mutation did not fire")
	}
	if !bytes.Equal(pkt.Payload, origPayload) {
		t.Fatal("mutation modified the original packet")
	}
	opt, ok := m.Header.FindOption(ipv4.OptSecurity)
	if !ok || !bytes.Equal(opt.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("mutation touched the tag option: %+v", m.Header.Options)
	}
	if bytes.Equal(m.Payload, origPayload) {
		t.Fatal("mutation left the clone's payload intact")
	}
}

// TestFaultDropScalar: with Drop=1 armed every scalar delivery dies as a
// wire fault before the gateway; ClearFaults restores perfect delivery and
// keeps the count of what was injected.
func TestFaultDropScalar(t *testing.T) {
	gw := NewGateway(GatewayConfig{Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)
	requests, _ := countRequests(n)
	n.InstallFaults(FaultPlan{Seed: 1, Drop: 1})

	pkt := plainPacket(getRequest())
	for i := 0; i < 3; i++ {
		d := n.Deliver(pkt)
		if d.Delivered || d.Stage != StageFault {
			t.Fatalf("delivery %d survived Drop=1: %+v", i, d)
		}
	}
	drops := func() uint64 { return count(n, "bp_netsim_faults_total", metrics.L("stage", "drop")) }
	if got := drops(); got != 3 {
		t.Fatalf("drops = %d, want 3", got)
	}
	if got := requests.Load(); got != 0 {
		t.Fatalf("server answered %d wire-dropped packets", got)
	}

	n.ClearFaults()
	if d := n.Deliver(pkt); !d.Delivered {
		t.Fatalf("post-clear delivery failed: %+v", d)
	}
	if got := drops(); got != 3 {
		t.Fatalf("drops after ClearFaults = %d, want the 3 injected", got)
	}
}

// TestFaultBatchAlignment: with duplication and reordering armed, the
// returned Deliveries still align one-to-one with the input burst.
func TestFaultBatchAlignment(t *testing.T) {
	gw := NewGateway(GatewayConfig{Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)
	n.InstallFaults(FaultPlan{Seed: 5, Duplicate: 1, Reorder: 0.5})

	requests, _ := countRequests(n)
	burst := make([]*ipv4.Packet, 16)
	for i := range burst {
		burst[i] = plainPacket(getRequest())
	}
	out := n.DeliverBatch(burst)
	if len(out) != len(burst) {
		t.Fatalf("deliveries = %d, want %d", len(out), len(burst))
	}
	for i, d := range out {
		if !d.Delivered {
			t.Fatalf("burst pkt %d not delivered: %+v", i, d)
		}
	}
	// Every duplicate rode the wire for real: the server answered 2x.
	if got := requests.Load(); got != uint64(2*len(burst)) {
		t.Fatalf("server requests = %d, want %d (duplicates must reach it)", got, 2*len(burst))
	}
	dups := count(n, "bp_netsim_faults_total", metrics.L("stage", "duplicate"))
	reorders := count(n, "bp_netsim_faults_total", metrics.L("stage", "reorder"))
	if dups != uint64(len(burst)) || reorders == 0 {
		t.Fatalf("duplicates %d, reorders %d", dups, reorders)
	}
}

// TestFaultDelayChargesVirtualTime: delays stretch the virtual clock, not
// the wall clock.
func TestFaultDelayChargesVirtualTime(t *testing.T) {
	gw := NewGateway(GatewayConfig{Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)
	n.InstallFaults(FaultPlan{Seed: 2, Delay: 1, DelayMin: 10 * time.Millisecond, DelayMax: 10 * time.Millisecond})

	before := n.Clock.Now()
	n.Deliver(plainPacket(getRequest()))
	if got := n.Clock.Now() - before; got < 10*time.Millisecond {
		t.Fatalf("virtual time advanced %v, want >= 10ms", got)
	}
	delays := count(n, "bp_netsim_faults_total", metrics.L("stage", "delay"))
	if charged := count(n, "bp_netsim_fault_delay_virtual_ns_total"); delays != 1 || charged != uint64(10*time.Millisecond) {
		t.Fatalf("delays %d charging %dns, want 1 charging 10ms", delays, charged)
	}
}

// TestFaultCorruptionFailSafe: with every payload corrupted and truncated,
// a flow denied by policy is never delivered — payload damage cannot flip
// a deny into an allow, because verdicts derive from the untouched tag.
func TestFaultCorruptionFailSafe(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)
	n.InstallFaults(FaultPlan{Seed: 11, Corrupt: 1, Truncate: 1})

	denied := taggedPacket(t, apk, db, "beacon") // com/flurry rule denies it
	denied.Payload = getRequest()
	for i := 0; i < 100; i++ {
		if d := n.Deliver(denied); d.Delivered {
			t.Fatalf("iteration %d: corrupted denied packet was delivered", i)
		}
	}
}
