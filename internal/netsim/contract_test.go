package netsim

import (
	"testing"
	"time"

	"borderpatrol/internal/audit"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// contractFixture is a flow-cached, audited gateway in front of the static
// server, with everything registered on one registry, plus the mixed
// traffic the contract tests push: an allowed and a denied connection
// (SYN, two requests, FIN each) and an untagged packet. eng is enf's
// policy engine.
func contractFixture(t *testing.T) (n *Network, gw *Gateway, enf *enforcer.Enforcer, eng *policy.Engine, reg *metrics.Registry, traffic []*ipv4.Packet) {
	t.Helper()
	eng, apk, db := buildEngineAndDB(t)
	log := audit.New(nil, 64)
	t.Cleanup(func() { _ = log.Close() })
	clock := NewClock()
	enf = shipped(clock, true, enforcer.Config{Audit: log}, db, eng)
	gw = NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n = newStaticNetwork(ModeTAP, gw)
	reg = metrics.NewRegistry()
	enf.RegisterMetrics(reg)
	gw.RegisterMetrics(reg)
	log.RegisterMetrics(reg)

	for i, method := range []string{"sync", "beacon"} {
		syn, data, fin := tcpConn(t, taggedPacket(t, apk, db, method), uint16(42000+i), 2)
		traffic = append(traffic, syn)
		traffic = append(traffic, data...)
		traffic = append(traffic, fin)
	}
	traffic = append(traffic, plainPacket(getRequest()))
	return n, gw, enf, eng, reg, traffic
}

// TestEveryOfferedPacketIsCountedAndAudited pins the contract one packet
// path makes unconditional: every packet offered to the gateway — through
// Deliver or DeliverBatch, before or after a policy swap and a gateway
// restart — is counted once in bp_enforcer_verdicts_total and reaches the
// audit sink once (recorded or, under backpressure, counted as shed).
func TestEveryOfferedPacketIsCountedAndAudited(t *testing.T) {
	n, gw, _, eng, reg, traffic := contractFixture(t)
	offered := 0
	offer := func(burst bool) {
		if burst {
			n.DeliverBatch(traffic)
		} else {
			for _, pkt := range traffic {
				n.Deliver(pkt)
			}
		}
		offered += len(traffic)
	}
	check := func(when string) {
		t.Helper()
		verdicts := sumMetric(reg, "bp_enforcer_verdicts_total")
		audited := sumMetric(reg, "bp_audit_recorded_total") + sumMetric(reg, "bp_audit_dropped_total")
		if verdicts != float64(offered) || audited != float64(offered) {
			t.Fatalf("%s: offered %d packets, bp_enforcer_verdicts_total = %v, audit recorded+dropped = %v",
				when, offered, verdicts, audited)
		}
	}
	offer(false)
	offer(true)
	check("steady state")

	if err := setRules(eng, nil); err != nil { // the tracker connection is now allowed
		t.Fatal(err)
	}
	offer(true)
	offer(false)
	check("after a policy swap")

	gw.Restart()
	offer(false)
	offer(true)
	check("after a gateway restart")

	if drops := sumMetric(reg, "bp_enforcer_verdicts_total", metrics.L("decision", "drop")); drops == 0 || drops == float64(offered) {
		t.Fatalf("run was not mixed: %v of %d packets dropped", drops, offered)
	}
}

// TestDeliverUnderFaultsNeverPassesADeny: with each wire fault armed in
// turn, a single-packet Deliver never reports delivered for a packet an
// uncached reference enforcer denies — no drop, duplicate, payload damage
// or delay turns a deny into a delivery.
func TestDeliverUnderFaultsNeverPassesADeny(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan FaultPlan
	}{
		{"drop", FaultPlan{Seed: 11, Drop: 0.3}},
		{"duplicate", FaultPlan{Seed: 12, Duplicate: 0.3}},
		{"corrupt", FaultPlan{Seed: 13, Corrupt: 0.3}},
		{"truncate", FaultPlan{Seed: 14, Truncate: 0.3}},
		{"delay", FaultPlan{Seed: 15, Delay: 0.3, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _, enf, _, _, traffic := contractFixture(t)
			ref, _, _ := buildEnforcerAndDB(t) // same app, same rules, no flow cache
			cached := func(e *enforcer.Enforcer) bool {
				r := metrics.NewRegistry()
				e.RegisterMetrics(r)
				_, ok := r.Value("bp_flowtable_live")
				return ok
			}
			if cached(ref) || !cached(enf) {
				t.Fatal("fixture: the reference must be uncached and the gateway cached")
			}
			n.InstallFaults(tc.plan)
			denied, delivered := 0, 0
			for round := 0; round < 40; round++ {
				for i, pkt := range traffic {
					deny := ref.Process(pkt).Verdict == policy.VerdictDrop
					d := n.Deliver(pkt)
					if deny {
						denied++
						if d.Delivered {
							t.Fatalf("round %d pkt %d: reference denies, faulty wire delivered: %+v", round, i, d)
						}
					}
					if d.Delivered {
						delivered++
					}
				}
			}
			if denied == 0 || delivered == 0 {
				t.Fatalf("run was not mixed: %d denied, %d delivered", denied, delivered)
			}
			if count(n, "bp_netsim_faults_total") == 0 {
				t.Fatal("fault never fired")
			}
		})
	}
}
