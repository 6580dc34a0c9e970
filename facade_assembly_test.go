package borderpatrol

import (
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/experiments"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
)

// TestShippedGatewayIsBenchmarkedGateway builds the gateway the three ways
// it is built — New, a NewFleet member, and NewTestbed with the
// benchmark's configuration — and checks that they are one gateway: the
// same metric families (the network's own series, and a fleet member's
// policy store, aside), a network around them that keeps nothing per
// packet it carries, and the same flow-table admission guard, which
// turns a unique-flow flood away at full shards.
func TestShippedGatewayIsBenchmarkedGateway(t *testing.T) {
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	bench, err := experiments.NewTestbed(nil, experiments.TestbedConfig{
		EnforcementOn: true,
		FlowTTL:       time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()
	gateways := []struct {
		name string
		tb   *experiments.Testbed
	}{
		{"New", dep.tb},
		{"NewFleet member", newTestFleet(t).Deployment("gwA").tb},
		{"NewTestbed", bench},
	}

	want := gatewayFamilies(gateways[0].tb)
	for _, g := range gateways[1:] {
		if got := gatewayFamilies(g.tb); !slices.Equal(got, want) {
			t.Errorf("%s registers %v,\nwant %v (as %s)", g.name, got, want, gateways[0].name)
		}
	}

	for _, g := range gateways {
		app, err := g.tb.InstallApp(demoAPK(), demoFuncs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := app.Invoke("download")
		if err != nil {
			t.Fatal(err)
		}
		if per := retainedPerPacket(t, g.tb.Network, res.Packets, 60_000); per > 64 {
			t.Errorf("%s: its network retains %.0f B of heap per packet delivered, want at most 64", g.name, per)
		}
		// 72k first-seen flows over 64 shards of 1,024: most shards fill.
		syn := res.Packets[:1]
		pool, err := netsim.NewDevicePool(netip.MustParsePrefix("10.128.0.0/15"), 72_000)
		if err != nil {
			t.Fatal(err)
		}
		burst := make([]*ipv4.Packet, 0, 1024)
		for dev := 0; dev < pool.Len(); dev++ {
			burst = append(burst, pool.Rewrite(dev, syn)...)
			if len(burst) == cap(burst) || dev == pool.Len()-1 {
				if _, err := g.tb.Gateway.ProcessBatch(burst); err != nil {
					t.Fatal(err)
				}
				burst = burst[:0]
			}
		}
		if drops, _ := g.tb.Metrics.Value("bp_flowtable_admission_drops_total"); drops == 0 {
			t.Errorf("%s: a unique-flow flood into full shards made no admission drop", g.name)
		}
	}
}

// retainedPerPacket delivers the connection conn, repeated in 1,024-packet
// bursts, until at least total packets have crossed the network, and
// returns the heap that stays live after GC, per packet delivered.
func retainedPerPacket(t *testing.T, n *netsim.Network, conn []*ipv4.Packet, total int) float64 {
	t.Helper()
	burst := make([]*ipv4.Packet, 0, 1024)
	for len(burst)+len(conn) <= cap(burst) {
		burst = append(burst, conn...)
	}
	deliver := func() {
		for _, d := range n.DeliverBatch(burst) {
			if !d.Delivered {
				t.Fatalf("the shipped gateway dropped a permitted packet: %+v", d)
			}
		}
	}
	deliver() // warm the flow's table entries and the burst pool
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before, sent := heap(), 0
	for sent < total {
		deliver()
		sent += len(burst)
	}
	after := heap()
	if after < before {
		return 0
	}
	return float64(after-before) / float64(sent)
}

// gatewayFamilies lists the metric families a gateway registers, leaving
// out the network-wide bp_netsim_* series and its policy store's families.
func gatewayFamilies(tb *experiments.Testbed) []string {
	skip := map[string]bool{}
	if tb.Policy != nil {
		store := metrics.NewRegistry()
		tb.Policy.RegisterMetrics(store)
		for _, s := range store.Snapshot() {
			skip[s.Name] = true
		}
	}
	var names []string
	for _, s := range tb.Metrics.Snapshot() {
		if !skip[s.Name] && !strings.HasPrefix(s.Name, "bp_netsim_") {
			names = append(names, s.Name)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// TestDeploymentRejectsNegativeFlowTTL: the verdict cache's idle timeout
// ages out a flow whose FIN was lost. A negative one would be accepted and
// leave such flows cached, so New rejects it.
func TestDeploymentRejectsNegativeFlowTTL(t *testing.T) {
	dep, err := New(Config{Flow: FlowConfig{TTL: -time.Second}})
	if err == nil {
		dep.Close()
		t.Fatal("New accepted a negative flow TTL")
	}
	if !strings.Contains(err.Error(), "Flow.TTL") {
		t.Fatalf("error %q does not name the flow TTL", err)
	}
}
