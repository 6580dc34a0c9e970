package experiments

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"time"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/transport"
)

// This file implements the contextual-policy experiment: risk-scored
// contextual predicates (network trust class, posture, impossible travel,
// time of day) enforced over a pooled device population, a mid-run context
// flip that must invalidate every affected cached verdict with zero stale
// allows — and nobody else's, beyond the flipped device's stripe — a
// time-window cohort whose cached verdicts must lapse exactly at the
// window's edges, and a cache-hit latency measurement proving the
// contextual dimension rides the ~100 ns verdict cache for free.
// Machine-readable output goes to BENCH_context.json.

// contextPolicyDoc is the experiment's contextual policy: no access rules
// (default allow), risk weights per scenario, warn at 40, block at 100.
// Scenario scores: trusted −30 (clean), cellular 30 (clean), unknown 60
// (warn), trusted + impossible travel −30+130 = 100 (block). The lunch-hour
// lockdown is far from the run's own virtual time (Monday 00:00 plus
// milliseconds) until the time-window phase moves the clock into it, where
// it blocks cellular (160) and unknown (190) devices.
const contextPolicyDoc = `
{[risk][network]["unknown"][60]}
{[risk][network]["cellular"][30]}
{[risk][network]["trusted"][-30]}
{[risk][travel]["impossible"][130]}
{[risk][time]["12:00-13:00"][130]}
{[threshold][warn][40]}
{[threshold][block][100]}
`

// Context scenario names.
const (
	scenarioTrusted    = "trusted"
	scenarioCellular   = "cellular"
	scenarioUnknown    = "unknown"
	scenarioImpossible = "impossible-travel"
)

// contextScenarios lists the mixed device population in round-robin
// assignment order.
var contextScenarios = []string{scenarioTrusted, scenarioCellular, scenarioUnknown, scenarioImpossible}

// ContextRunConfig sizes the contextual-policy experiment.
type ContextRunConfig struct {
	// Devices is the pooled virtual device population (default 64),
	// split round-robin across the four scenarios.
	Devices int
	// HitIterations sizes the cache-hit latency measurement (default
	// 200_000 packets).
	HitIterations int
	// Seed drives corpus generation (default 2019).
	Seed int64
}

// DefaultContextRunConfig returns the standard scale.
func DefaultContextRunConfig() ContextRunConfig {
	return ContextRunConfig{Devices: 64, HitIterations: 200_000, Seed: 2019}
}

// ContextScenarioReport is one scenario's slice of the run.
type ContextScenarioReport struct {
	// Name is the scenario (trusted, cellular, unknown, impossible-travel).
	Name string `json:"name"`
	// Devices is how many pool devices ran the scenario.
	Devices int `json:"devices"`
	// DataPackets / Delivered / Dropped score the scenario's data packets
	// through the gateway (control segments share their flow's fate and
	// are excluded, as in every other experiment).
	DataPackets int `json:"data_packets"`
	Delivered   int `json:"delivered"`
	Dropped     int `json:"dropped"`
}

// ContextFlipReport is one device's mid-run flip, seen from the other
// devices: how many of them had a cached verdict re-evaluated because of
// it, against how many share the flipped device's stripe (devctx.Stripe)
// and so may be.
type ContextFlipReport struct {
	Device                 string `json:"device"`
	StripeMates            int    `json:"stripe_mates"`
	BystanderReevaluations int    `json:"bystander_reevaluations"`
}

// ContextBenchResult reports the contextual-policy experiment. Check
// asserts its invariants.
type ContextBenchResult struct {
	Scenarios []ContextScenarioReport `json:"scenarios"`

	// Engine risk counters after the run.
	RiskEvaluations uint64 `json:"risk_evaluations"`
	RiskWarns       uint64 `json:"risk_warns"`
	RiskBlocks      uint64 `json:"risk_blocks"`

	// Context-source accounting.
	ContextGeneration uint64            `json:"context_generation"`
	Invalidations     map[string]uint64 `json:"invalidations"`

	// Mid-run flip: FlippedDevices trusted devices roamed to an unknown
	// network and observed an impossible-travel fix; their cached allows
	// must die on the very next packet. StaleAllows counts post-flip
	// packets still allowed from a stale cached verdict — the acceptance
	// criterion is zero. PostFlipDrops counts the re-evaluated drops.
	FlippedDevices int `json:"flipped_devices"`
	StaleAllows    int `json:"stale_allows"`
	PostFlipDrops  int `json:"post_flip_drops"`
	// Flips lists each flip's effect on the other devices' cached flows;
	// BystanderReevaluations is their sum (zero while no two devices of
	// the population share a stripe).
	Flips                  []ContextFlipReport `json:"flips"`
	BystanderReevaluations int                 `json:"bystander_reevaluations"`
	// StaleDrops is the flow table's count of generation-mismatch
	// invalidations observed during the run.
	StaleDrops uint64 `json:"stale_drops"`

	// Time window: TimeFlows flows (the cellular and unknown devices',
	// admitted at Monday 00:00 and still cached) keep sending while the
	// clock crosses TimeEdgesCrossed edges of the 12:00-13:00 lockdown.
	// StaleTimeAllows counts packets admitted inside the window from a
	// verdict reached outside it — zero, or a cached verdict outlived its
	// time edge. TimeReevaluations counts the cached verdicts re-evaluated
	// because an edge was reached: one per flow per edge, no more (a flow
	// is not re-scored while its context stands still) and no fewer.
	TimeFlows         int    `json:"time_flows"`
	TimeEdgesCrossed  int    `json:"time_edges_crossed"`
	StaleTimeAllows   int    `json:"stale_time_allows"`
	TimeReevaluations uint64 `json:"time_reevaluations"`

	// Cache-hit latency with contextual rules loaded and context wired:
	// the per-packet hit path must stay within the PR 2 envelope (~100 ns)
	// because context is folded into the cached verdict, not re-evaluated.
	CacheHitNsPerOp float64 `json:"cache_hit_ns_per_op"`
	CacheHitPackets int     `json:"cache_hit_packets"`
	FlowHits        uint64  `json:"flow_hits"`
	FlowMisses      uint64  `json:"flow_misses"`
}

// Format renders a paper-style summary.
func (r *ContextBenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %12s %10s %8s\n", "scenario", "devices", "data pkts", "delivered", "dropped")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "%-18s %8d %12d %10d %8d\n", s.Name, s.Devices, s.DataPackets, s.Delivered, s.Dropped)
	}
	fmt.Fprintf(&b, "risk: %d evaluations, %d warns, %d blocks\n", r.RiskEvaluations, r.RiskWarns, r.RiskBlocks)
	fmt.Fprintf(&b, "context: generation %d, invalidations %v\n", r.ContextGeneration, r.Invalidations)
	fmt.Fprintf(&b, "flip: %d devices flipped, %d stale allows, %d re-evaluated drops, %d bystander re-evaluations, %d stale invalidations\n",
		r.FlippedDevices, r.StaleAllows, r.PostFlipDrops, r.BystanderReevaluations, r.StaleDrops)
	fmt.Fprintf(&b, "time window: %d flows across %d edges, %d stale time allows, %d time re-evaluations\n",
		r.TimeFlows, r.TimeEdgesCrossed, r.StaleTimeAllows, r.TimeReevaluations)
	fmt.Fprintf(&b, "cache hit with context: %.1f ns/op over %d packets (%d hits, %d misses)\n",
		r.CacheHitNsPerOp, r.CacheHitPackets, r.FlowHits, r.FlowMisses)
	return b.String()
}

// WriteJSON writes the machine-readable result (BENCH_context.json).
func (r *ContextBenchResult) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("context: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Check asserts the experiment's invariants.
func (r *ContextBenchResult) Check() error {
	for _, s := range r.Scenarios {
		switch s.Name {
		case scenarioTrusted, scenarioCellular, scenarioUnknown:
			// Below the block threshold: every data packet delivers
			// (unknown devices warn, but warn never drops).
			if s.Dropped != 0 {
				return fmt.Errorf("context: %s scenario dropped %d packets", s.Name, s.Dropped)
			}
		case scenarioImpossible:
			// At the block threshold: nothing delivers.
			if s.Delivered != 0 {
				return fmt.Errorf("context: impossible-travel scenario delivered %d packets", s.Delivered)
			}
			if s.DataPackets == 0 {
				return fmt.Errorf("context: impossible-travel scenario saw no traffic")
			}
		}
	}
	if r.RiskWarns == 0 {
		return fmt.Errorf("context: no flow warned (unknown-network devices should)")
	}
	if r.RiskBlocks == 0 {
		return fmt.Errorf("context: no flow blocked")
	}
	if r.StaleAllows != 0 {
		return fmt.Errorf("context: %d stale allows served after the context flip", r.StaleAllows)
	}
	if r.PostFlipDrops != r.FlippedDevices {
		return fmt.Errorf("context: %d/%d flipped devices re-evaluated to drop", r.PostFlipDrops, r.FlippedDevices)
	}
	for _, f := range r.Flips {
		if f.BystanderReevaluations > f.StripeMates {
			return fmt.Errorf("context: flipping %s re-evaluated %d other devices' flows, %d share its stripe",
				f.Device, f.BystanderReevaluations, f.StripeMates)
		}
	}
	if r.StaleDrops == 0 {
		return fmt.Errorf("context: flow table recorded no stale-generation invalidations")
	}
	if r.StaleTimeAllows != 0 {
		return fmt.Errorf("context: %d allows served inside the time window from verdicts reached outside it", r.StaleTimeAllows)
	}
	if want := uint64(r.TimeFlows * r.TimeEdgesCrossed); r.TimeFlows == 0 || r.TimeReevaluations != want {
		return fmt.Errorf("context: %d time re-evaluations for %d flows across %d edges, want %d",
			r.TimeReevaluations, r.TimeFlows, r.TimeEdgesCrossed, want)
	}
	if r.Invalidations["network"] == 0 || r.Invalidations["travel"] == 0 {
		return fmt.Errorf("context: invalidation causes incomplete: %v", r.Invalidations)
	}
	// Generous sanity ceiling, not a perf gate (bench/baseline.txt +
	// bp-benchgate own the ±20% envelope): a hit path that re-evaluates
	// context per packet would blow far past this.
	// The ceiling leaves room for race-detector instrumentation (~30x on
	// this path), which the CI context-smoke job runs under.
	if r.CacheHitNsPerOp <= 0 || r.CacheHitNsPerOp > 20_000 {
		return fmt.Errorf("context: cache-hit path at %.1f ns/op", r.CacheHitNsPerOp)
	}
	return nil
}

// withoutTeardown filters a burst down to the packets that keep the flow
// alive: FIN/RST control segments are dropped so the gateway's conntrack
// never tears the flow's cached verdict down — the experiment needs live
// cache entries to prove the context flip invalidates them.
func withoutTeardown(pkts []*ipv4.Packet) []*ipv4.Packet {
	out := make([]*ipv4.Packet, 0, len(pkts))
	for _, pkt := range pkts {
		var info transport.Info
		if transport.PeekPacket(pkt, &info) && info.Flags&(transport.FlagFIN|transport.FlagRST) != 0 {
			continue
		}
		out = append(out, pkt)
	}
	return out
}

// RunContext stands up a contextual-policy deployment over a pooled device
// population and runs the mixed-scenario workload, the mid-run context
// flip, and the cache-hit measurement.
func RunContext(cfg ContextRunConfig) (*ContextBenchResult, error) {
	def := DefaultContextRunConfig()
	if cfg.Devices <= 0 {
		cfg.Devices = def.Devices
	}
	if cfg.HitIterations <= 0 {
		cfg.HitIterations = def.HitIterations
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}

	rules, err := policy.ParsePolicyString(contextPolicyDoc)
	if err != nil {
		return nil, fmt.Errorf("context: %w", err)
	}
	gen := apkgen.DefaultConfig()
	gen.Apps = 1
	gen.Seed = cfg.Seed
	corpus, err := apkgen.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("context: %w", err)
	}
	tb, err := NewTestbed(corpus, TestbedConfig{
		EnforcementOn:  true,
		Rules:          rules,
		DefaultVerdict: policy.VerdictAllow,
		DisableCapture: true,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	// The template burst: the app's first functionality, teardown segments
	// stripped so delivered flows stay cached.
	res := &ContextBenchResult{}
	fn := corpus[0].Functionalities[0]
	inv, err := tb.Apps[0].Invoke(fn.Name)
	if err != nil {
		return nil, fmt.Errorf("context: invoke: %w", err)
	}
	template := withoutTeardown(inv.Packets)
	templateData := len(dataPackets(template))

	// The pooled population, bound to the gateway's context source.
	pool, err := netsim.NewDevicePool(netip.MustParsePrefix("10.70.0.0/16"), cfg.Devices)
	if err != nil {
		return nil, fmt.Errorf("context: %w", err)
	}
	pool.BindContext(tb.Context)

	// Provision each device's scenario context before any traffic: context
	// is evaluated at flow admission, so it must be in place at SYN time.
	scenarioOf := func(i int) string { return contextScenarios[i%len(contextScenarios)] }
	for i := 0; i < cfg.Devices; i++ {
		switch scenarioOf(i) {
		case scenarioTrusted:
			pool.SetNetwork(i, policy.NetTrusted)
		case scenarioCellular:
			pool.SetNetwork(i, policy.NetCellular)
		case scenarioUnknown:
			pool.SetNetwork(i, policy.NetUnknown)
		case scenarioImpossible:
			// Trusted network, but the credential teleported: two fixes at
			// the same virtual instant cap the apparent velocity.
			pool.SetNetwork(i, policy.NetTrusted)
			pool.ObserveLocation(i, 52.52, 13.40)  // Berlin
			pool.ObserveLocation(i, 40.71, -74.01) // New York, same instant
		}
	}

	// Phase 1: every device's burst through the batched gateway drain.
	byScenario := map[string]*ContextScenarioReport{}
	for _, name := range contextScenarios {
		byScenario[name] = &ContextScenarioReport{Name: name}
	}
	perDevice := make([][]*ipv4.Packet, cfg.Devices)
	for i := 0; i < cfg.Devices; i++ {
		perDevice[i] = pool.Rewrite(i, template)
		rep := byScenario[scenarioOf(i)]
		rep.Devices++
		rep.DataPackets += templateData
		for j, d := range tb.Network.DeliverBatch(perDevice[i]) {
			if !isDataPacket(perDevice[i][j]) {
				continue
			}
			if d.Delivered {
				rep.Delivered++
			} else {
				rep.Dropped++
			}
		}
	}
	for _, name := range contextScenarios {
		res.Scenarios = append(res.Scenarios, *byScenario[name])
	}

	// Phase 2: cache-hit latency with context armed. The hot packet is a
	// trusted device's data segment whose flow is live in the cache.
	hot := perDevice[0][len(perDevice[0])-1]
	if !isDataPacket(hot) {
		return nil, fmt.Errorf("context: template burst ends in a control segment")
	}
	start := time.Now()
	for i := 0; i < cfg.HitIterations; i++ {
		if out := tb.Enforcer.Process(hot); out.Verdict != policy.VerdictAllow {
			return nil, fmt.Errorf("context: hot trusted flow dropped mid-measurement: %+v", out)
		}
	}
	res.CacheHitNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(cfg.HitIterations)
	res.CacheHitPackets = cfg.HitIterations

	// Phase 3: the mid-run flip. Every trusted device except the hot one
	// roams to an unknown network and teleports (60 + 130 ≥ block): its
	// cached allow must die on the very next packet, with zero stale
	// allows in between — and every other device's cached verdict must
	// still be served from the cache, unless it shares the flipped
	// device's stripe.
	last := func(i int) *ipv4.Packet { return perDevice[i][len(perDevice[i])-1] }
	for i := 0; i < cfg.Devices; i++ {
		if scenarioOf(i) != scenarioTrusted || i == 0 {
			continue
		}
		pool.SetNetwork(i, policy.NetUnknown)
		pool.ObserveLocation(i, 52.52, 13.40)
		pool.ObserveLocation(i, 35.68, 139.69) // Tokyo, same instant
		res.FlippedDevices++
		out := tb.Enforcer.Process(last(i))
		switch out.Verdict {
		case policy.VerdictAllow:
			res.StaleAllows++
		case policy.VerdictDrop:
			res.PostFlipDrops++
		}
		flip := ContextFlipReport{Device: pool.Addr(i).String()}
		stripe := devctx.Stripe(pool.Addr(i))
		before := tb.count("bp_flowtable_misses_total")
		for j := 0; j < cfg.Devices; j++ {
			if j == i {
				continue
			}
			if devctx.Stripe(pool.Addr(j)) == stripe {
				flip.StripeMates++
			}
			tb.Enforcer.Process(last(j))
		}
		flip.BystanderReevaluations = int(tb.count("bp_flowtable_misses_total") - before)
		res.BystanderReevaluations += flip.BystanderReevaluations
		res.Flips = append(res.Flips, flip)
	}

	// Phase 4: the time window. The cellular and unknown devices' flows were
	// admitted at Monday 00:00 and are still cached; their traffic goes on
	// while the clock crosses both edges of the lockdown. Up to 11:59:59 the
	// cached allow is right, from 12:00:00 to 12:59:59 every packet must be
	// dropped, at 13:00:00 the flows are admitted again — and each flow is
	// re-evaluated once per edge, not once per packet.
	before, inLockdown := tb.count("bp_enforcer_verdict_expiries_total"), false
	for _, step := range []struct {
		at       time.Duration
		lockdown bool
	}{
		{12*time.Hour - time.Second, false},
		{12 * time.Hour, true},
		{12*time.Hour + 30*time.Minute, true},
		{13*time.Hour - time.Second, true},
		{13 * time.Hour, false},
		{14 * time.Hour, false},
	} {
		tb.Network.Clock.Advance(step.at - tb.Network.Clock.Now())
		if step.lockdown != inLockdown {
			inLockdown = step.lockdown
			res.TimeEdgesCrossed++
		}
		for i := 0; i < cfg.Devices; i++ {
			if sc := scenarioOf(i); sc != scenarioCellular && sc != scenarioUnknown {
				continue
			}
			allowed := tb.Enforcer.Process(last(i)).Verdict == policy.VerdictAllow
			switch {
			case step.lockdown && allowed:
				res.StaleTimeAllows++
			case !step.lockdown && !allowed:
				return nil, fmt.Errorf("context: %s dropped at %v, outside the time window", pool.Addr(i), step.at)
			}
		}
	}
	res.TimeFlows = byScenario[scenarioCellular].Devices + byScenario[scenarioUnknown].Devices
	res.TimeReevaluations = tb.count("bp_enforcer_verdict_expiries_total") - before

	res.RiskEvaluations = tb.count("bp_context_evaluations_total")
	res.RiskWarns = tb.count("bp_context_warns_total")
	res.RiskBlocks = tb.count("bp_context_blocks_total")
	res.ContextGeneration = tb.count("bp_context_changes_total")
	res.Invalidations = tb.byLabel("bp_context_invalidations_total")
	res.StaleDrops = tb.count("bp_flowtable_stale_drops_total")
	res.FlowHits = tb.count("bp_flowtable_hits_total")
	res.FlowMisses = tb.count("bp_flowtable_misses_total")
	return res, nil
}
