package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"strings"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/trackers"
)

// The four scenario tables. Each is only data: the runner has no branch
// for any of them.

// Soak churn: gateway restarts and policy-backend outages spread over the
// run.
const soakRestarts, soakOutages = 3, 2

// trackerPolicies are rule sets A (deny half the tracker catalog) and B
// (deny all of it): tracker traffic through the other half flips verdict
// on every swap.
func trackerPolicies() []string {
	var a, b []policy.Rule
	for i, lib := range trackers.Catalog() {
		rule := policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: lib.Package}
		b = append(b, rule)
		if i%2 == 0 {
			a = append(a, rule)
		}
	}
	return []string{policy.FormatPolicy(a), policy.FormatPolicy(b)}
}

// SoakScenario is the chaos soak: epochs of 30 s virtual time over a wire
// that drops, duplicates, reorders, corrupts, truncates and delays 1 % of
// packets each. A rotating cohort of apps is live each epoch (devices
// joining and leaving, at least half of them on); swaps are spread over the
// run, every tenth candidate malformed; the gateway restarts three times;
// the policy backend goes down past the staleness deadline twice; and an
// idle-GC sweep closes every epoch.
func SoakScenario(seed int64, epochs, swaps int) Scenario {
	sc := Scenario{name: "soak", seed: seed, apps: 8, policies: trackerPolicies(), faults: netsim.FaultPlan{
		Drop: 0.01, Duplicate: 0.01, Reorder: 0.01, Corrupt: 0.01, Truncate: 0.01,
		Delay: 0.01, DelayMin: time.Millisecond, DelayMax: 20 * time.Millisecond,
	}}
	swapEvery := max(1, epochs/swaps)
	restartEvery, outageEvery := max(1, epochs/(soakRestarts+1)), max(1, epochs/(soakOutages+1))
	for i := 0; i < epochs; i++ {
		e := epoch{advance: 30 * time.Second, sweep: true}
		for a := 0; a < sc.apps; a++ {
			if a%2 == 0 || (a+i)%3 != 0 {
				e.cohort = append(e.cohort, a)
			}
		}
		if k := i/swapEvery + 1; i%swapEvery == swapEvery-1 && k <= swaps {
			e.swap, e.malformed = k%10 != 0, k%10 == 0
		}
		e.restart = i > 0 && i%restartEvery == 0 && i/restartEvery <= soakRestarts
		sc.epochs = append(sc.epochs, e)
		if i > 0 && i%outageEvery == 0 && i/outageEvery <= soakOutages {
			sc.epochs = append(sc.epochs, epoch{cohort: e.cohort, outage: true})
		}
	}
	return sc
}

// ReloadScenario is reload under load (§IV): one pass through the network
// under rule set A, then swaps reload cycles, each racing four senders that
// push the whole pool straight at the enforcer. Cycle i serves B when i is
// even and A when odd, so a cycle that finds its set already serving swaps
// nothing; every fifth candidate is malformed instead.
func ReloadScenario(swaps int) Scenario {
	sc := Scenario{name: "reload", seed: 2019, apps: 8, policies: trackerPolicies(), epochs: []epoch{{}}}
	serving := 0
	for i := 0; i < swaps; i++ {
		e := epoch{senders: 4, malformed: i > 0 && i%5 == 0}
		if want := 1 - i%2; !e.malformed && want != serving {
			e.swap, serving = true, want
		}
		sc.epochs = append(sc.epochs, e)
	}
	return sc
}

// contextPolicyDoc is the contextual policy: no access rules (default
// allow), risk weights per group, warn at 40, block at 100. Group scores:
// trusted −30 (clean), cellular 30 (clean), unknown 60 (warn), trusted +
// impossible travel −30+130 = 100 (block); a roamed device scores 60+130.
// The lunch-hour lockdown is far from the run's start (Monday 00:00) until
// the clock moves into it, where it blocks cellular (160) and unknown (190)
// devices.
const contextPolicyDoc = `
{[risk][network]["unknown"][60]}
{[risk][network]["cellular"][30]}
{[risk][network]["trusted"][-30]}
{[risk][travel]["impossible"][130]}
{[risk][time]["12:00-13:00"][130]}
{[threshold][warn][40]}
{[threshold][block][100]}
`

// ContextScenario is the contextual-policy run. Pooled devices are dealt
// round-robin into four groups: trusted, cellular, unknown and impossible
// travel. After the first pass it times hitIterations cache hits of device
// 0's flow. It then flips every other trusted device, one per epoch, to an
// unknown network and an impossible-travel fix, while all devices keep
// sending. Last, it moves the clock across both edges of the lockdown while
// the cellular and unknown devices keep sending.
func ContextScenario(seed int64, devices, hitIterations int) Scenario {
	berlin := [2]float64{52.52, 13.40}
	sc := Scenario{
		name: "context", seed: seed, apps: 1, devices: devices, policies: []string{contextPolicyDoc},
		groups: []group{
			{name: "trusted", context: policy.DeviceContext{Network: policy.NetTrusted}},
			{name: "cellular", context: policy.DeviceContext{Network: policy.NetCellular}},
			{name: "unknown"},
			// A trusted network, but the credential teleported: two fixes,
			// Berlin and New York, at one instant.
			{name: "impossible-travel", context: policy.DeviceContext{Network: policy.NetTrusted, VelocityKmh: devctx.MaxVelocityKmh},
				fixes: [][2]float64{berlin, {40.71, -74.01}}},
		},
		epochs: []epoch{{}, {cohort: []int{0}, last: true, repeat: hitIterations}},
	}
	roamed := group{name: "roamed", context: policy.DeviceContext{VelocityKmh: devctx.MaxVelocityKmh},
		fixes: [][2]float64{berlin, {35.68, 139.69}}} // Berlin, then Tokyo
	var lunch []int
	for i := 0; i < devices; i++ {
		switch {
		case i%4 == 0 && i > 0:
			sc.epochs = append(sc.epochs, epoch{last: true, flips: []flip{{device: i, to: roamed}}})
		case i%4 == 1 || i%4 == 2:
			lunch = append(lunch, i)
		}
	}
	// 11:59:59, 12:00 (edge), 12:30, 12:59:59, 13:00 (edge), 14:00.
	for _, at := range []time.Duration{12*time.Hour - time.Second, 12 * time.Hour, 12*time.Hour + 30*time.Minute,
		13*time.Hour - time.Second, 13 * time.Hour, 14 * time.Hour} {
		sc.epochs = append(sc.epochs, epoch{cohort: lunch, last: true, at: at})
	}
	return sc
}

// The fleet's world: each gateway fronts one /16 of 10.0.0.0/8, so the
// table is sized for at most maxFleetGateways. A store's watch parks for
// an hour, so every push is carried by the watch, not by an idle round.
const (
	maxFleetGateways  = 200
	fleetWatchTimeout = time.Hour
)

// fleetRecords is the corporate resolver's zone.
var fleetRecords = map[string]string{
	"files.corp.example": "10.80.0.10",
	"c2.fleet.example":   "203.0.113.99",
}

// fleetPolicies are the fleet's grouped documents. One global rule denies
// the beacon, and each gateway's group g<i> denies its own exfiltration
// class. The first push denies the resolver fleet-wide, which changes a
// verdict on every gateway; the second also denies the sync in group g0's
// section, which changes gateway 0's shard and no other.
func fleetPolicies(gateways int) []string {
	docs := make([]string, 3)
	for v := range docs {
		var b strings.Builder
		b.WriteString("{[deny][class][\"com/fleet/app/Beacon\"]}\n")
		if v > 0 {
			b.WriteString("{[deny][class][\"com/fleet/app/Resolver\"]}\n")
		}
		for i := 0; i < gateways; i++ {
			fmt.Fprintf(&b, "//@group g%d\n{[deny][class][\"com/fleet/app/Exfil%d\"]}\n", i, i)
			if v == 2 && i == 0 {
				b.WriteString("{[deny][class][\"com/fleet/app/Work\"]}\n")
			}
		}
		docs[v] = b.String()
	}
	return docs
}

// fleetApp is the app behind gateway i of a fleet of n: an HTTP sync, a
// tracker beacon, a DNS lookup, a DNS probe its own group denies, and one
// that only the next gateway's group denies (no group, in a fleet of one).
func fleetApp(i, n int) (*apkgen.App, error) {
	qResolve, err := dnsQuery(1, "files.corp.example")
	if err != nil {
		return nil, err
	}
	qProbe, err := dnsQuery(2, "c2.fleet.example")
	if err != nil {
		return nil, err
	}
	httpEP := netip.AddrPortFrom(netip.MustParseAddr("198.18.80.1"), 443)
	dnsOp := func(q []byte, requests int) android.NetOp {
		return android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: q, Requests: requests}
	}
	return scriptedApp(fmt.Sprintf("com.fleet.gw%d", i), "com/fleet/app", []scriptedFn{
		{name: "sync", desirable: true, class: "Work", method: "sync",
			op: android.NetOp{Endpoint: httpEP, Host: "files.corp", Method: "GET", Requests: 2}},
		{name: "beacon", class: "Beacon", method: "phoneHome",
			op: android.NetOp{Endpoint: httpEP, Host: "data.tracker", Method: "POST", PayloadBytes: 128}},
		{name: "resolve", desirable: true, class: "Resolver", method: "lookup", op: dnsOp(qResolve, 2)},
		{name: "probe-own", class: fmt.Sprintf("Exfil%d", i), method: "exfil", op: dnsOp(qProbe, 0)},
		{name: "probe-other", desirable: true, class: fmt.Sprintf("Exfil%d", (i+1)%max(n, 2)), method: "exfil", op: dnsOp(qProbe, 0)},
	}), nil
}

// FleetScenario is the fleet run: gateways gateways, each fronting a /16
// with devices pooled devices behind it and enforcing its own group's
// shard of one hub document. Every device runs its gateway's fleetApp
// before the first push, between the two, and after the second. Each
// gateway's audit trail goes to audit (nil keeps its in-memory tail), and
// its registry joins agg under its name (nil: a private aggregate).
func FleetScenario(gateways, devices int, audit io.Writer, agg *metrics.Aggregate) Scenario {
	sc := Scenario{name: "fleet", fleet: true, devices: devices, policies: fleetPolicies(gateways), agg: agg,
		epochs: []epoch{{}, {swap: true}, {swap: true}}}
	ttl := fleetFlowTTL(len(sc.epochs) * gateways * devices)
	for i := 0; i < gateways; i++ {
		sc.gateways = append(sc.gateways, FleetGateway{
			Subnet: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(1 + i), 0, 0}), 16),
			Groups: []string{fmt.Sprintf("g%d", i)},
			Config: TestbedConfig{EnforcementOn: true, AuditWriter: audit, FlowTTL: ttl},
		})
	}
	return sc
}

// fleetDevicePackets is what one pooled device of a fleet table sends per
// epoch: one invocation of each of its fleetApp's functionalities
// (buildFleet checks it).
const fleetDevicePackets = 11

// fleetFlowTTL is the flow TTL of a fleet table in which sends device
// epochs send (devices × gateways × epochs): a bound on the run's virtual
// length, so every flow stays cached from its first packet to the run's
// last, and each push meets cached flows whose generation it moves (the
// stale-drops check). Each packet is charged at most the default latency
// model's whole delivered path, NIC to server and both queue hops. It is
// never below scenarioFlowTTL.
func fleetFlowTTL(sends int) time.Duration {
	m := netsim.DefaultLatencyModel()
	perPacket := m.TapPerPacket + 2*m.NFQueueHopPerPacket + m.EnforcerPerPacket + m.SanitizerPerPacket +
		m.WireRTT + m.ServerProcessing
	return max(scenarioFlowTTL, time.Duration(sends*fleetDevicePackets)*perPacket)
}
