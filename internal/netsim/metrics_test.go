package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/sanitizer"
)

// registrar is a component that exports its counts on a registry.
type registrar interface{ RegisterMetrics(*metrics.Registry) }

// count reads one series of x's; labels narrow a family.
func count(x registrar, family string, labels ...metrics.Label) uint64 {
	r := metrics.NewRegistry()
	x.RegisterMetrics(r)
	v, _ := r.Value(family, labels...)
	return uint64(v)
}

// conntrack reads every bp_conntrack_* series of gw's keyed by its label
// value: a transition kind ("closed"), a response outcome ("seq_drop") or a
// connection state ("open"). The three label sets share no value.
func conntrack(gw *gateway.Gateway) map[string]uint64 {
	r := metrics.NewRegistry()
	gw.RegisterMetrics(r)
	out := make(map[string]uint64)
	for _, smp := range r.Snapshot() {
		if strings.HasPrefix(smp.Name, "bp_conntrack_") {
			out[smp.Labels[0].Value] = uint64(smp.Value)
		}
	}
	return out
}

// verdicts reads the enforcer's verdict and drop-cause series, keyed by
// their label ("decision=drop", "cause=policy").
func verdicts(e registrar) map[string]uint64 {
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)
	out := make(map[string]uint64)
	for _, smp := range r.Snapshot() {
		if smp.Name == "bp_enforcer_verdicts_total" || smp.Name == "bp_enforcer_drops_total" {
			out[smp.Labels[0].Key+"="+smp.Labels[0].Value] = uint64(smp.Value)
		}
	}
	return out
}

// flowCounts reads every bp_flowtable_* series of x, keyed by the name
// between that prefix and "_total" ("hits", "live").
func flowCounts(x registrar) map[string]uint64 {
	r := metrics.NewRegistry()
	x.RegisterMetrics(r)
	out := make(map[string]uint64)
	for _, smp := range r.Snapshot() {
		if name, ok := strings.CutPrefix(smp.Name, "bp_flowtable_"); ok {
			out[strings.TrimSuffix(name, "_total")] = uint64(smp.Value)
		}
	}
	return out
}

// TestCountersNeverDecrease: clearing or re-arming a fault plan and
// restarting the gateway clear state, never counts. Around each of them,
// every counter series of the network, the gateway and its enforcer reads
// at least what it read before.
func TestCountersNeverDecrease(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	gw.RegisterMetrics(reg)
	enf.RegisterMetrics(reg)
	counters := func() map[string]float64 {
		out := make(map[string]float64)
		for _, smp := range reg.Snapshot() {
			if smp.Kind == metrics.KindCounter {
				out[smp.Name+fmt.Sprint(smp.Labels)] = smp.Value
			}
		}
		return out
	}
	port := uint16(42000)
	traffic := func() {
		for i := 0; i < 8; i++ {
			for _, method := range []string{"sync", "beacon"} {
				syn, data, fin := tcpConn(t, taggedPacket(t, apk, db, method), port, 3)
				port++
				n.DeliverBatch(append(append([]*ipv4.Packet{syn}, data...), fin))
			}
		}
		// A connection left open, for the restart to pick up mid-stream.
		syn, data, _ := tcpConn(t, taggedPacket(t, apk, db, "sync"), port, 1)
		port++
		n.DeliverBatch([]*ipv4.Packet{syn, data[0]})
	}
	plan := FaultPlan{Seed: 3, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1, Delay: 0.1, Corrupt: 0.1, Truncate: 0.1, DelayMax: time.Millisecond}
	n.InstallFaults(plan)
	traffic()
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"ClearFaults", n.ClearFaults},
		{"InstallFaults", func() { plan.Seed++; n.InstallFaults(plan) }},
		{"Restart", gw.Restart},
	} {
		before := counters()
		for _, family := range []string{"bp_netsim_faults_total", "bp_conntrack_transitions_total", "bp_flowtable_hits_total"} {
			var sum float64
			for series, v := range before {
				if strings.HasPrefix(series, family+"[") {
					sum += v
				}
			}
			if sum == 0 {
				t.Errorf("before %s: %s never counted, the check would be vacuous", step.name, family)
			}
		}
		step.do()
		after := counters()
		for series, v := range before {
			if after[series] < v {
				t.Errorf("%s: %s went from %v to %v", step.name, series, v, after[series])
			}
		}
		traffic()
	}
}
