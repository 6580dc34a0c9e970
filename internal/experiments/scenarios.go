package experiments

import (
	"time"

	"borderpatrol/internal/devctx"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/trackers"
)

// The three scenario tables. Each is only data: the runner has no branch
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
