package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/dns"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/refmodel"
	"borderpatrol/internal/transport"
)

// This file is the scenario runner: one harness for the paper's run-time
// claims — a denied packet never passes, policy changes centrally at run
// time (§IV), and context decides at flow admission. RunScenario builds one
// world — a testbed, or a fleet of gateways — and a traffic pool, then runs
// a list of epochs. Every verdict is compared, by verdict and cause, with
// the refmodel.Model of the gateway that decided it, and each event updates
// the models' Rules, Context or Clock as it updates the gateways. Check
// holds every run to the same named checks.

// Scenario is a world and what happens in it. Its fields are the table:
// callers get a Scenario from SoakScenario, ReloadScenario,
// ContextScenario or FleetScenario and set nothing.
type Scenario struct {
	name string
	// seed drives corpus generation and the fault PRNG; apps sizes the
	// corpus.
	seed int64
	apps int
	// policies are the documents the policy file serves: the first at
	// start, then each swap moves to the next, cyclically.
	policies []string
	// faults is the wire's fault plan (zero: a perfect wire).
	faults netsim.FaultPlan
	// Without devices, each corpus app is a traffic source that invokes
	// every functionality once. Otherwise devices pooled devices are the
	// sources, each replaying the first functionality without its teardown
	// segments, so its flow stays cached; device i starts in
	// groups[i%len(groups)].
	devices int
	groups  []group
	// fleet makes the world a fleet of gateways (NewFleet) whose
	// registries join agg: the policies are grouped documents on its hub,
	// and gateway g's model holds the serving one's shard for its groups.
	// Each gateway has devices pooled devices, each replaying every
	// functionality of the gateway's fleetApp. A swap is a Fleet.Push; a
	// fleet table has no other events.
	fleet    bool
	gateways []FleetGateway
	agg      *metrics.Aggregate
	epochs   []epoch
}

// group is a named device context. The gateway learns it through its
// context source's observation API: network class and posture, then the
// location fixes, all at one instant. The model takes context as written;
// it never reads the context source it checks.
type group struct {
	name    string
	context policy.DeviceContext
	fixes   [][2]float64
}

// flip moves a pooled device into a group's context. Flips model a device
// turning risky: its next packet must be dropped.
type flip struct {
	device int
	to     group
}

// epoch is one step of a scenario: its events, then its traffic.
type epoch struct {
	// cohort lists the sources that send (nil: all); last sends only each
	// one's last packet.
	cohort []int
	last   bool
	// senders > 0 sends the traffic straight to the enforcer from that many
	// goroutines while the events apply: the events race the traffic, and a
	// verdict may match the model from just before or just after them.
	// repeat > 0 sends it straight to the enforcer repeat times after the
	// events, timed. Otherwise the traffic crosses the network once, after
	// the events.
	senders, repeat int

	// The events, in the order they apply.
	swap      bool // the policy file serves the next policy
	malformed bool // the policy file serves a malformed candidate, then rolls back
	restart   bool // the gateway reboots: all per-flow state gone
	flips     []flip
	advance   time.Duration // virtual time passes, and the policy poller ticks
	at        time.Duration // as advance, to this instant (0 is Monday 00:00)
	sweep     bool          // the idle-GC sweep runs
	// outage removes the policy file past the staleness deadline, so the
	// traffic meets a store degraded fail-closed; the file returns after.
	outage bool
}

// The world every scenario shares.
const (
	scenarioBurst     = 512
	scenarioFlowTTL   = 90 * time.Second
	scenarioConnIdle  = 60 * time.Second
	scenarioMaxStale  = 2 * time.Minute
	scenarioHeapBound = 128 << 20
	malformedPolicy   = "{[deny][library \"torn\"]}\n"
)

// Snapshot is a resource reading at an epoch's close.
type Snapshot struct {
	Epoch                int
	VirtualTime          time.Duration
	ConnsOpen, FlowsLive int
	HeapBytes            int64
}

// ScenarioResult reports a run; Check returns the first failed named check.
type ScenarioResult struct {
	Name                        string
	Epochs                      int
	VirtualTime                 time.Duration
	Packets, Delivered, Dropped int
	Groups                      map[string]int // devices per group

	// Verdicts against the model. A raced event changed the model while
	// senders ran; Divergent counts the raced packets whose answer it
	// changed, and VerdictsOld/New split their verdicts by side.
	FailSafeViolations, VerdictMismatches, TornVerdicts, SpuriousResponseDrops int
	Raced, Divergent, VerdictsOld, VerdictsNew                                 int

	// A fleet push reached PushShards gateways' shards and changed
	// PushChanged of them. PushOff counts those whose store did not take
	// one watch round and, for a changed shard, one apply and one engine
	// generation, or for an unchanged one neither.
	PushShards, PushChanged, PushOff int

	// The stores' applied swaps and rejected candidates; Malformed and
	// Outages are the events run. PolicyVersion is the first gateway's.
	Swaps, Rejected, DegradedEnters, Restarts, GenerationDelta, PolicyRules uint64
	Malformed, Outages, DegradedDrops                                       int
	PolicyVersion                                                           string

	// Context. ContextChanges are the model's by cause, and the context
	// source must count as many invalidations. ModelWarns and ModelBlocks
	// are packets the model warned or risk-blocked. After a flip, other
	// devices' cached verdicts may be re-evaluated only if they share a
	// flipped device's stripe (devctx.Stripe); BystanderOverruns counts
	// flip epochs that re-evaluated more. A time edge is a clock advance
	// that changed an answer for its epoch's traffic; TimeFlows are the
	// flows sent across one.
	RiskWarns, RiskBlocks, TimeReevaluations, StaleDrops          uint64
	ModelWarns, ModelBlocks, FlippedDevices, StaleAllows          int
	PostFlipDrops, StripeMates, Bystanders, BystanderOverruns     int
	TimeFlows, TimeEdges, StaleTimeAllows, HitPackets             int
	HitNsPerPkt                                                   float64
	Invalidations, ContextChanges, Faults                         map[string]uint64
	ResponsesChecked, ResponseAdopts, ResponseSeqDrops, DupCloses uint64
	ConnsLeaked, FlowsLeaked, GoroutinesLeaked, GCConnsReclaimed  int
	HeapGrowth                                                    int64
	Snapshots                                                     []Snapshot
}

type namedCheck struct {
	name   string
	failed bool
	detail string
}

// checks evaluates the named checks in order. One that needs an event holds
// vacuously in a run without it.
func (r *ScenarioResult) checks() []namedCheck {
	invalidations := namedCheck{"invalidations", false, fmt.Sprintf("invalidations %v for model changes %v", r.Invalidations, r.ContextChanges)}
	for cause, n := range r.ContextChanges {
		invalidations.failed = invalidations.failed || r.Invalidations[cause] != n
	}
	trend := func(name string, minAbs int64, read func(Snapshot) int64) namedCheck {
		series := make([]int64, len(r.Snapshots))
		for i, s := range r.Snapshots {
			series[i] = read(s)
		}
		detail := "no snapshots"
		if len(series) > 0 {
			detail = fmt.Sprintf("%d snapshots, %d -> %d", len(series), series[0], series[len(series)-1])
		}
		return namedCheck{name, leakTrend(series, minAbs), detail}
	}
	return []namedCheck{
		{"fail-safe", r.FailSafeViolations != 0, fmt.Sprintf("%d packets delivered that the model denies", r.FailSafeViolations)},
		{"verdicts", r.VerdictMismatches != 0, fmt.Sprintf("%d verdicts differ from the model's", r.VerdictMismatches)},
		{"torn", r.TornVerdicts != 0, fmt.Sprintf("%d raced verdicts match the model neither before nor after the event", r.TornVerdicts)},
		{"divergent", r.Raced > 0 && r.Divergent == 0, fmt.Sprintf("%d raced events changed %d answers", r.Raced, r.Divergent)},
		{"split", r.Raced > 0 && (r.VerdictsOld == 0 || r.VerdictsNew == 0), fmt.Sprintf("raced verdicts on changed answers: %d old side, %d new side", r.VerdictsOld, r.VerdictsNew)},
		{"push", r.PushOff != 0, fmt.Sprintf("%d of %d shards pushed (%d changed) took other than one watch round with one apply and generation per change", r.PushOff, r.PushShards, r.PushChanged)},
		{"generation", r.GenerationDelta != r.Swaps+2*r.DegradedEnters, fmt.Sprintf("generation moved %d for %d swaps and %d degradations", r.GenerationDelta, r.Swaps, r.DegradedEnters)},
		{"rejected", r.Rejected != uint64(r.Malformed), fmt.Sprintf("%d candidates rejected, %d malformed pushed", r.Rejected, r.Malformed)},
		{"degraded", r.DegradedEnters < uint64(r.Outages), fmt.Sprintf("%d degraded transitions for %d outages", r.DegradedEnters, r.Outages)},
		{"stale-drops", (r.Swaps > 0 || r.FlippedDevices > 0) && r.StaleDrops == 0, fmt.Sprintf("%d stale-generation invalidations", r.StaleDrops)},
		{"response-drops", r.SpuriousResponseDrops != 0, fmt.Sprintf("%d clean responses dropped", r.SpuriousResponseDrops)},
		{"responses-checked", r.ResponsesChecked == 0, fmt.Sprintf("%d responses checked", r.ResponsesChecked)},
		{"seq-drop", r.ResponseSeqDrops != 0, fmt.Sprintf(`bp_conntrack_responses_total{outcome="seq_drop"} = %d in clean traffic`, r.ResponseSeqDrops)},
		{"stale-allows", r.StaleAllows != 0, fmt.Sprintf("%d stale allows served after a context flip", r.StaleAllows)},
		{"post-flip-drops", r.PostFlipDrops != r.FlippedDevices, fmt.Sprintf("%d of %d flipped devices re-evaluated to drop", r.PostFlipDrops, r.FlippedDevices)},
		{"bystanders", r.BystanderOverruns != 0, fmt.Sprintf("%d other flows re-evaluated after flips, %d share a flipped stripe; %d flips overran", r.Bystanders, r.StripeMates, r.BystanderOverruns)},
		invalidations,
		{"risk", r.ModelWarns > 0 && r.RiskWarns == 0 || r.ModelBlocks > 0 && r.RiskBlocks == 0, fmt.Sprintf("the model warned %d and blocked %d packets, the engine %d and %d flows", r.ModelWarns, r.ModelBlocks, r.RiskWarns, r.RiskBlocks)},
		{"time-stale-allows", r.StaleTimeAllows != 0, fmt.Sprintf("%d allows served across a time edge from verdicts reached before it", r.StaleTimeAllows)},
		{"time-reevaluations", r.TimeReevaluations != uint64(r.TimeFlows*r.TimeEdges), fmt.Sprintf("%d re-evaluations for %d flows across %d time edges", r.TimeReevaluations, r.TimeFlows, r.TimeEdges)},
		// A ceiling with room for the race detector, not a perf gate: a hit
		// path that re-evaluated context per packet would blow past it.
		{"cache-hit", r.HitPackets > 0 && (r.HitNsPerPkt <= 0 || r.HitNsPerPkt > 20_000), fmt.Sprintf("%.1f ns/pkt over %d timed hits", r.HitNsPerPkt, r.HitPackets)},
		{"conns-leaked", r.ConnsLeaked != 0, fmt.Sprintf("%d conntrack entries leaked", r.ConnsLeaked)},
		{"flows-leaked", r.FlowsLeaked != 0, fmt.Sprintf("%d flow-table entries leaked", r.FlowsLeaked)},
		{"goroutines-leaked", r.GoroutinesLeaked > 0, fmt.Sprintf("%d goroutines leaked", r.GoroutinesLeaked)},
		{"heap", r.HeapGrowth > scenarioHeapBound, fmt.Sprintf("heap grew %d KiB (bound %d MiB)", r.HeapGrowth>>10, scenarioHeapBound>>20)},
		trend("conns-trend", 64, func(s Snapshot) int64 { return int64(s.ConnsOpen) }),
		trend("flows-trend", 64, func(s Snapshot) int64 { return int64(s.FlowsLive) }),
		trend("heap-trend", 8<<20, func(s Snapshot) int64 { return s.HeapBytes }),
	}
}

// Check returns the first named check the result fails.
func (r *ScenarioResult) Check() error {
	for _, c := range r.checks() {
		if c.failed {
			return fmt.Errorf("%s: check %s: %s", r.Name, c.name, c.detail)
		}
	}
	return nil
}

// leakTrend reports whether a resource series exhibits monotone growth: a
// leak signature, as opposed to the oscillation of healthy churn. It
// requires enough samples to be meaningful (≥10), near-monotone steps
// (≥90% non-decreasing, ≥50% strictly increasing), and material growth
// (last > 1.5×first and last−first > minAbs) — so a series that climbs to
// a plateau, oscillates, or grows by noise does not trip it.
func leakTrend(series []int64, minAbs int64) bool {
	if len(series) < 10 {
		return false
	}
	first, last := series[0], series[len(series)-1]
	if last-first <= minAbs || float64(last) <= 1.5*float64(first) {
		return false
	}
	nondec, strict := 0, 0
	for i := 1; i < len(series); i++ {
		if series[i] >= series[i-1] {
			nondec++
		}
		if series[i] > series[i-1] {
			strict++
		}
	}
	steps := len(series) - 1
	return nondec*10 >= steps*9 && strict*2 >= steps
}

// Format renders a summary: the run, then every named check.
func (r *ScenarioResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d packets over %v virtual (%d epochs), %d delivered / %d dropped through the network; "+
		"%d swaps, %d restarts, %d outages; faults %v; groups %v; cache hit %.1f ns/pkt\n", r.Name, r.Packets,
		r.VirtualTime.Round(time.Second), r.Epochs, r.Delivered, r.Dropped, r.Swaps, r.Restarts, r.Outages, r.Faults, r.Groups, r.HitNsPerPkt)
	for _, c := range r.checks() {
		status := "ok"
		if c.failed {
			status = "FAILED"
		}
		fmt.Fprintf(&b, "  %-18s %-6s %s\n", c.name, status, c.detail)
	}
	return b.String()
}

// WriteJSON writes the machine-readable result (BENCH_<name>.json).
func (r *ScenarioResult) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// RunScenario runs sc. The first event that fails ends the run with its
// error.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	r, err := startScenario(sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.name, err)
	}
	defer r.close()
	for i, e := range sc.epochs {
		if err := r.step(e); err != nil {
			return nil, fmt.Errorf("%s: epoch %d: %w", sc.name, i, err)
		}
	}
	return r.finish()
}

// flowTTL is the flow TTL of the scenario's gateways: a fleet table's is
// sized to its run (fleetFlowTTL).
func (sc *Scenario) flowTTL() time.Duration {
	if sc.fleet {
		return sc.gateways[0].Config.FlowTTL
	}
	return scenarioFlowTTL
}

// scenarioRun is a run in progress.
type scenarioRun struct {
	sc Scenario
	// tbs are the gateways, and tb the first: a testbed's events act on it.
	tb    *Testbed
	tbs   []*Testbed
	fleet *Fleet
	// pool is a testbed's pooled devices.
	pool      *netsim.DevicePool
	dir, path string // the policy file's directory and path
	res       *ScenarioResult
	pkts      []*ipv4.Packet
	// Each packet's source and gateway; source s sends pkts[first[s]:first[s+1]].
	src, gw, first []int
	rules          [][][]policy.Rule // policy p's rules at gateway g: rules[p][g]
	active         int               // the policy served
	timed          bool              // a policy scores the time of day: the clock is model state
	models         []refmodel.Model  // one per gateway
	state          modelState
	expect         []refmodel.Verdict // the models' answer for every packet
	answered       map[modelState][]refmodel.Verdict

	timeFlows                           map[int]bool
	hitNs, heap                         int64
	goroutines                          int
	clockStart                          time.Duration
	genStart, appliedStart, failedStart uint64
}

// modelState names what the model's answers depend on: the policy in force
// (-1 while degraded), how many flips it has seen, and the clock when a
// policy reads it.
type modelState struct {
	policy, flips int
	clock         time.Duration
}

// fixedClock is the model's clock: the virtual time the events set.
type fixedClock time.Duration

func (c fixedClock) Now() time.Duration { return time.Duration(c) }

func startScenario(sc Scenario) (*scenarioRun, error) {
	if len(sc.gateways) > maxFleetGateways {
		return nil, fmt.Errorf("fleet sized for at most %d gateways, got %d", maxFleetGateways, len(sc.gateways))
	}
	r := &scenarioRun{
		sc: sc, timeFlows: map[int]bool{}, answered: map[modelState][]refmodel.Verdict{},
		goroutines: runtime.NumGoroutine(),
		res:        &ScenarioResult{Name: sc.name, Groups: map[string]int{}, ContextChanges: map[string]uint64{}},
	}
	shards := [][]string{nil} // a testbed enforces the whole document
	if sc.fleet {
		shards = make([][]string, len(sc.gateways))
		for g, gw := range sc.gateways {
			shards[g] = gw.Groups
		}
	}
	for _, doc := range sc.policies {
		gs, err := policy.ParseGroupSet(doc)
		if err != nil {
			return nil, err
		}
		var perGateway [][]policy.Rule
		for _, groups := range shards {
			rules, err := policy.ParsePolicyString(gs.DocFor(groups...))
			if err != nil {
				return nil, err
			}
			perGateway = append(perGateway, rules)
			r.timed = r.timed || slices.ContainsFunc(rules, func(rule policy.Rule) bool {
				return rule.Kind == policy.KindRisk && rule.Pred == policy.PredTime
			})
		}
		r.rules = append(r.rules, perGateway)
	}
	if sc.fleet {
		if err := r.buildFleet(); err != nil {
			r.close()
			return nil, err
		}
		return r.mark(), nil
	}
	gen := apkgen.DefaultConfig()
	gen.Apps, gen.Seed = sc.apps, sc.seed
	corpus, err := apkgen.Generate(gen)
	if err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp("", "bp-scenario-*"); err != nil {
		return nil, err
	}
	r.path = filepath.Join(r.dir, "policy.bp")
	cfg := TestbedConfig{
		EnforcementOn: true, PolicySource: policystore.NewFileSource(r.path),
		PolicyMaxStale: scenarioMaxStale, PolicyFailMode: policystore.FailClosed, PolicyVirtualTime: true,
		FlowTTL: scenarioFlowTTL,
	}
	if sc.faults != (netsim.FaultPlan{}) {
		plan := sc.faults
		plan.Seed = uint64(sc.seed)
		cfg.Faults = &plan
	}
	if err = r.serve(sc.policies[0]); err == nil {
		r.tb, err = NewTestbed(corpus, cfg)
		r.tbs = []*Testbed{r.tb}
	}
	if err == nil {
		err = r.buildPool(corpus)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r.mark(), nil
}

// mark reads the counters the result reports as deltas over the run, and
// the heap with the gateways and the traffic pool built, so HeapGrowth is
// what running the gateways added.
func (r *scenarioRun) mark() *scenarioRun {
	r.heap = heapInUse()
	r.clockStart = r.tb.Network.Clock.Now()
	r.genStart = r.generation()
	r.appliedStart = r.count("bp_policy_reloads_total", metrics.L("outcome", "applied"))
	r.failedStart = r.count("bp_policy_reloads_total", metrics.L("outcome", "failed"))
	return r
}

// buildFleet stands the fleet up on the first policy behind a corporate
// resolver, installs each gateway's fleet app, and makes the gateways'
// pooled devices the sources. Gateway g's model knows its app and its
// shard.
func (r *scenarioRun) buildFleet() error {
	fl, err := NewFleet(r.sc.policies[0], r.sc.gateways, fleetWatchTimeout, r.sc.agg)
	if err != nil {
		return err
	}
	r.fleet, r.tbs, r.tb = fl, fl.Testbeds, fl.Testbeds[0]
	zone := dns.NewZone()
	for name, addr := range fleetRecords {
		if err := zone.AddRecord(name, netip.MustParseAddr(addr)); err != nil {
			return err
		}
	}
	fl.Network.AddServer(&netsim.Server{
		Addr: dnsServerAddr.Addr(), Name: "corp-dns", UDPHandler: dns.ZoneHandler(zone), Internal: true,
	})
	sources := make([][][]*ipv4.Packet, len(r.tbs))
	for g, tb := range r.tbs {
		ga, err := fleetApp(g, len(r.tbs))
		if err != nil {
			return err
		}
		app, err := tb.InstallApp(ga.APK, ga.Functionalities)
		if err != nil {
			return err
		}
		template, err := invokeAll(app, ga)
		if err != nil {
			return err
		}
		if len(template) != fleetDevicePackets {
			return fmt.Errorf("fleet app %d sends %d packets, its flow TTL is sized for %d", g, len(template), fleetDevicePackets)
		}
		pool, err := netsim.NewDevicePool(fl.Gateways[g].Subnet, r.sc.devices)
		if err != nil {
			return err
		}
		for d := range pool.Len() {
			sources[g] = append(sources[g], pool.Rewrite(d, template))
		}
		r.models = append(r.models, refmodel.Model{
			APKs: []*dex.APK{ga.APK}, Rules: r.rules[0][g], Default: policy.VerdictAllow,
			Clock: fixedClock(fl.Network.Clock.Now()),
		})
	}
	return r.index(sources...)
}

// invokeAll invokes every functionality of ga, installed as app, once.
func invokeAll(app *android.App, ga *apkgen.App) ([]*ipv4.Packet, error) {
	var pkts []*ipv4.Packet
	for _, fn := range ga.Functionalities {
		inv, err := app.Invoke(fn.Name)
		if err != nil {
			return nil, fmt.Errorf("invoke %s/%s: %w", ga.APK.PackageName, fn.Name, err)
		}
		pkts = append(pkts, inv.Packets...)
	}
	return pkts, nil
}

// buildPool makes a testbed's traffic sources, gives each pooled device its
// group's context, and sets up the model.
func (r *scenarioRun) buildPool(corpus []*apkgen.App) error {
	r.models = []refmodel.Model{{
		APKs: corpusAPKs(corpus), Rules: r.rules[0][0], Default: policy.VerdictAllow,
		Context: map[netip.Addr]policy.DeviceContext{}, Clock: fixedClock(r.tb.Network.Clock.Now()),
	}}
	if r.sc.devices > 0 {
		// Pooled devices replay the first functionality.
		inv, err := r.tb.Apps[0].Invoke(corpus[0].Functionalities[0].Name)
		if err != nil {
			return err
		}
		return r.buildDevices(withoutTeardown(inv.Packets))
	}
	sources := make([][]*ipv4.Packet, len(corpus))
	for i, ga := range corpus {
		var err error
		if sources[i], err = invokeAll(r.tb.Apps[i], ga); err != nil {
			return err
		}
	}
	return r.index(sources)
}

// buildDevices makes the pooled devices the sources, each replaying
// template from its own address.
func (r *scenarioRun) buildDevices(template []*ipv4.Packet) error {
	var err error
	if r.pool, err = netsim.NewDevicePool(netip.MustParsePrefix("10.70.0.0/16"), r.sc.devices); err != nil {
		return err
	}
	sources := make([][]*ipv4.Packet, r.sc.devices)
	for i := range sources {
		g := r.sc.groups[i%len(r.sc.groups)]
		r.res.Groups[g.name]++
		r.observe(i, g)
		r.models[0].Context[r.pool.Addr(i)] = g.context
		sources[i] = r.pool.Rewrite(i, template)
	}
	return r.index(sources)
}

// index flattens each gateway's sources into the traffic pool and asks the
// models about every packet.
func (r *scenarioRun) index(gateways ...[][]*ipv4.Packet) error {
	for g, sources := range gateways {
		for _, pkts := range sources {
			r.first = append(r.first, len(r.pkts))
			for range pkts {
				r.src, r.gw = append(r.src, len(r.first)-1), append(r.gw, g)
			}
			r.pkts = append(r.pkts, pkts...)
		}
	}
	r.first = append(r.first, len(r.pkts))
	if len(r.pkts) == 0 {
		return errors.New("corpus produced no packets")
	}
	r.expect = r.answers(r.state, r.models)
	return nil
}

// withoutTeardown filters a burst down to the packets that keep the flow
// alive: FIN/RST control segments are dropped so the gateway's conntrack
// never tears the flow's cached verdict down.
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

// observe tells the context source that pooled device i is now in group g,
// and counts the changes the model sees.
func (r *scenarioRun) observe(i int, g group) {
	addr, src := r.pool.Addr(i), r.tb.Context
	old, ctx := r.models[0].Context[addr], g.context
	for cause, changed := range map[string]int{
		"network": b2i(old.Network != ctx.Network),
		"posture": b2i(old.ScreenLocked != ctx.ScreenLocked) + b2i(old.PatchAgeDays != ctx.PatchAgeDays),
		"travel":  b2i(old.VelocityKmh != ctx.VelocityKmh),
	} {
		if changed > 0 {
			r.res.ContextChanges[cause] += uint64(changed)
		}
	}
	src.SetNetwork(addr, ctx.Network)
	src.SetScreenLocked(addr, ctx.ScreenLocked)
	src.SetPatchAge(addr, ctx.PatchAgeDays)
	for _, fix := range g.fixes {
		src.ObserveLocation(addr, fix[0], fix[1])
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// answers is the models' answer for every packet in state st, decided once
// per state: swaps and outages return to states already seen.
func (r *scenarioRun) answers(st modelState, ms []refmodel.Model) []refmodel.Verdict {
	if v, ok := r.answered[st]; ok {
		return v
	}
	v := r.decide(ms)
	r.answered[st] = v
	return v
}

// decide is the answer for every packet of the pool of the model of the
// gateway it crosses.
func (r *scenarioRun) decide(ms []refmodel.Model) []refmodel.Verdict {
	out := make([]refmodel.Verdict, len(r.pkts))
	for i, pkt := range r.pkts {
		out[i] = ms[r.gw[i]].Decide(pkt)
	}
	return out
}

func sameVerdict(a, b refmodel.Verdict) bool {
	return a.Verdict == b.Verdict && a.Cause == b.Cause && a.RiskWarn == b.RiskWarn
}

// agrees compares an enforced verdict with the model's, by verdict, cause
// and the risk program's part: applied, score and warning.
func agrees(got *enforcer.Result, want refmodel.Verdict) bool {
	return got.Verdict == want.Verdict && got.Cause == want.Cause && got.Risk.Applied == want.RiskApplied &&
		int(got.Risk.Score) == want.RiskScore && got.Risk.Warn == want.RiskWarn
}

// next is the models after e's events, and their state. The clock moves
// with virtual time.
func (r *scenarioRun) next(e epoch) (ms []refmodel.Model, st modelState) {
	ms, st = slices.Clone(r.models), r.state
	if e.swap {
		st.policy = (r.active + 1) % len(r.rules)
	}
	if e.outage {
		st.policy = -1
	}
	var context map[netip.Addr]policy.DeviceContext
	if len(e.flips) > 0 {
		st.flips += len(e.flips)
		context = maps.Clone(ms[0].Context)
		for _, f := range e.flips {
			context[r.pool.Addr(f.device)] = f.to.context
		}
	}
	now := r.tb.Network.Clock.Now() + e.advance
	if e.outage {
		now += scenarioMaxStale + time.Second
	}
	if (e.advance > 0 || e.outage) && r.timed {
		st.clock = now
	}
	for g := range ms {
		m := &ms[g]
		if e.swap {
			m.Rules = r.rules[st.policy][g]
		}
		if e.outage {
			m.Rules, m.Default = nil, policy.VerdictDrop // fail-closed
		}
		if context != nil {
			m.Context = context
		}
		if e.advance > 0 || e.outage {
			m.Clock = fixedClock(now)
		}
	}
	return ms, st
}

func (r *scenarioRun) step(e epoch) error {
	tb, res := r.tb, r.res
	if e.at > 0 {
		// An instant, not a step: the traffic before it moved the clock.
		if e.advance = e.at - tb.Network.Clock.Now(); e.advance < 0 {
			return fmt.Errorf("the clock reads %v, past the epoch's instant %v", tb.Network.Clock.Now(), e.at)
		}
	}
	var traffic []int
	var pkts []*ipv4.Packet
	for s := 0; s+1 < len(r.first); s++ {
		lo, hi := r.first[s], r.first[s+1]
		if e.last {
			lo = hi - 1
		}
		for i := lo; i < hi && (e.cohort == nil || slices.Contains(e.cohort, s)); i++ {
			traffic, pkts = append(traffic, i), append(pkts, r.pkts[i])
		}
	}
	next, st := r.next(e)
	changed, timed := st != r.state, st.clock != r.state.clock
	before, after := r.expect, r.answers(st, next)
	if timed {
		// A time edge: the advance alone changes an answer.
		pre := slices.Clone(next)
		for g := range pre {
			pre[g].Clock = r.models[g].Clock
		}
		was := r.decide(pre)
		for _, i := range traffic {
			if !sameVerdict(was[i], after[i]) {
				res.TimeEdges++
				for _, i := range traffic {
					r.timeFlows[i] = true
				}
				break
			}
		}
	}
	var err error
	if e.senders > 0 {
		err = r.race(e, traffic, pkts, before, after, changed)
	} else {
		err = r.events(e)
	}
	r.models, r.state, r.expect = next, st, after
	if err != nil {
		return err
	}
	switch {
	case e.repeat > 0:
		r.repeat(e, traffic, pkts)
	case e.senders == 0:
		r.deliver(e, traffic, pkts, timed)
	}
	if e.outage {
		// The file returns: the next cycle lifts the degradation.
		if err := r.push("recovery", r.sc.policies[r.active], false); err != nil {
			return err
		}
		if tb.Policy.Degraded() {
			return errors.New("store still degraded after recovery")
		}
		for g := range r.models {
			r.models[g].Rules, r.models[g].Default = r.rules[r.active][g], policy.VerdictAllow
		}
		r.state.policy = r.active
		r.expect = r.answers(r.state, r.models)
	}
	res.Epochs++
	if res.Epochs%max(1, len(r.sc.epochs)/16) == 0 {
		res.Snapshots = append(res.Snapshots, Snapshot{
			Epoch:       res.Epochs,
			VirtualTime: tb.Network.Clock.Now() - r.clockStart,
			ConnsOpen:   int(r.count("bp_conntrack_connections", metrics.L("state", "open"))),
			FlowsLive:   int(r.count("bp_flowtable_live")),
			HeapBytes:   heapInUse(),
		})
	}
	return nil
}

// serve writes doc to the policy file.
func (r *scenarioRun) serve(doc string) error {
	if err := os.WriteFile(r.path, []byte(doc), 0o644); err != nil {
		return fmt.Errorf("write policy: %w", err)
	}
	return nil
}

// reload runs one reload cycle, which must fail exactly when fail is set.
func (r *scenarioRun) reload(what string, fail bool) error {
	if _, err := r.tb.Policy.Reload(); (err != nil) != fail {
		return fmt.Errorf("%s: reload returned %v", what, err)
	}
	return nil
}

// push serves doc and reloads it.
func (r *scenarioRun) push(what, doc string, fail bool) error {
	if err := r.serve(doc); err != nil {
		return err
	}
	return r.reload(what, fail)
}

// pushFleet pushes policy next to the fleet and holds each gateway's store
// to what the push costs it by the models' shards: one watch round, and
// one apply and one engine generation if the push changed the shard. A
// push that stalls on a store is that store's push-check failure, not the
// end of the run, so Check names it beside the verdicts it broke.
func (r *scenarioRun) pushFleet(next int) error {
	applied := metrics.L("outcome", "applied")
	read := func(tb *Testbed) [3]uint64 {
		return [3]uint64{tb.count("bp_policy_watch_rounds_total"), tb.count("bp_policy_reloads_total", applied), tb.Engine.Generation()}
	}
	before := make([][3]uint64, len(r.tbs))
	for g, tb := range r.tbs {
		before[g] = read(tb)
	}
	if err := r.fleet.Push(r.sc.policies[next]); err != nil && !errors.Is(err, errPushStalled) {
		return err
	}
	for g, tb := range r.tbs {
		changed := uint64(b2i(!slices.Equal(r.rules[r.active][g], r.rules[next][g])))
		want := [3]uint64{before[g][0] + 1, before[g][1] + changed, before[g][2] + changed}
		r.res.PushShards++
		r.res.PushChanged += int(changed)
		r.res.PushOff += b2i(read(tb) != want)
	}
	return nil
}

// events applies an epoch's events to the gateways and their world.
func (r *scenarioRun) events(e epoch) error {
	tb := r.tb
	if e.swap {
		next := (r.active + 1) % len(r.sc.policies)
		var err error
		if r.fleet != nil {
			err = r.pushFleet(next)
		} else {
			err = r.push("swap", r.sc.policies[next], false)
		}
		if err != nil {
			return err
		}
		r.active = next
	}
	if e.malformed {
		if err := r.push("malformed candidate", malformedPolicy, true); err != nil {
			return err
		}
		r.res.Malformed++
		// Last-good keeps serving, and the push is rolled back as an
		// operator would on the rejection alert. Left in place, it would be
		// an outage, which must degrade instead.
		if err := r.serve(r.sc.policies[r.active]); err != nil {
			return err
		}
	}
	if e.restart {
		tb.Gateway.Restart()
	}
	for _, f := range e.flips {
		r.observe(f.device, f.to)
	}
	if e.advance > 0 {
		// The poller ticks as virtual time passes and keeps the last-good
		// policy fresh: only an outage trips the staleness deadline.
		tb.Network.Clock.Advance(e.advance)
		if err := r.reload("poll", false); err != nil {
			return err
		}
	}
	if e.sweep {
		conns, _ := tb.Gateway.GC(scenarioConnIdle)
		r.res.GCConnsReclaimed += conns
	}
	if e.outage {
		if err := os.Remove(r.path); err != nil {
			return err
		}
		tb.Network.Clock.Advance(scenarioMaxStale + time.Second)
		if err := r.reload("outage", true); err != nil {
			return err
		}
		if !tb.Policy.Degraded() {
			return errors.New("store did not degrade past the staleness deadline")
		}
		r.res.Outages++
	}
	return nil
}

// deliver sends the traffic through the network in bursts and scores every
// packet against the model. After a flip it also counts whose cached
// verdicts the traffic re-evaluated.
func (r *scenarioRun) deliver(e epoch, traffic []int, pkts []*ipv4.Packet, timed bool) {
	res, tb := r.res, r.tb
	flipped, stripes := map[int]bool{}, map[int]bool{}
	for _, f := range e.flips {
		flipped[f.device], stripes[devctx.Stripe(r.pool.Addr(f.device))] = true, true
	}
	mates, misses := 0, int(r.count("bp_flowtable_misses_total"))
	for lo := 0; lo < len(traffic); lo += scenarioBurst {
		hi := min(lo+scenarioBurst, len(traffic))
		idx := traffic[lo:hi]
		for j, d := range tb.Network.DeliverBatch(pkts[lo:hi]) {
			want, s := r.expect[idx[j]], r.src[idx[j]]
			res.Packets++
			if d.Delivered {
				res.Delivered++
				res.FailSafeViolations += b2i(want.Verdict == policy.VerdictDrop)
			} else {
				res.Dropped++
			}
			res.SpuriousResponseDrops += b2i(d.ResponseDropped)
			if len(e.flips) > 0 && !flipped[s] && stripes[devctx.Stripe(r.pool.Addr(s))] {
				mates++
			}
			got := d.Enforcement
			if got == nil {
				continue
			}
			drop := got.Verdict == policy.VerdictDrop
			stale := !drop && want.Verdict == policy.VerdictDrop
			res.VerdictMismatches += b2i(!agrees(got, want))
			res.ModelWarns += b2i(want.RiskWarn)
			res.ModelBlocks += b2i(want.Cause == enforcer.DropRisk)
			res.DegradedDrops += b2i(e.outage && drop)
			res.StaleAllows += b2i(len(e.flips) > 0 && stale)
			res.StaleTimeAllows += b2i(timed && stale)
			if flipped[s] {
				delete(flipped, s) // the flipped device's next packet, re-evaluated
				res.PostFlipDrops += b2i(drop)
				misses++ // its own re-evaluation
			}
		}
	}
	if len(e.flips) > 0 {
		bystanders := int(r.count("bp_flowtable_misses_total")) - misses
		res.FlippedDevices += len(e.flips)
		res.StripeMates += mates
		res.Bystanders += bystanders
		res.BystanderOverruns += b2i(bystanders > mates)
	}
}

// race sends the traffic straight to the enforcer from e.senders goroutines
// while the events apply. Each sender's first send ends before the events
// start, and its last starts after they end. The sends between started
// while the events ran, and only they count to the old/new split: a split
// nonzero on both sides shows that the traffic raced the events. The
// senders wait for each other after their first send, so none is still
// queued behind the others when the events begin.
func (r *scenarioRun) race(e epoch, traffic []int, pkts []*ipv4.Packet, before, after []refmodel.Verdict, changed bool) error {
	diverge := make([]bool, len(traffic))
	for j, i := range traffic {
		diverge[j] = !sameVerdict(before[i], after[i])
		r.res.Divergent += b2i(changed && diverge[j])
	}
	// A tally per sender: sent, torn, mismatched, old side, new side.
	tallies := make([][5]int, e.senders)
	var ready, done sync.WaitGroup
	var applied atomic.Bool
	gate := make(chan struct{}) // opens once every sender has sent once
	ready.Add(e.senders)
	done.Add(e.senders)
	for s := range tallies {
		go func(t *[5]int) {
			defer done.Done()
			var out []enforcer.Result
			for n := 1; ; n++ {
				last := applied.Load()
				during := n > 1 && !last
				out = r.tb.Enforcer.ProcessBatch(pkts, out)
				t[0] += len(out)
				for j := range out {
					b, a := agrees(&out[j], before[traffic[j]]), agrees(&out[j], after[traffic[j]])
					switch {
					case !b && !a && diverge[j]:
						t[1]++
					case !b && !a:
						t[2]++
					case diverge[j] && during && b:
						t[3]++
					case diverge[j] && during:
						t[4]++
					}
				}
				if n == 1 {
					ready.Done()
					<-gate
				}
				if last {
					return
				}
			}
		}(&tallies[s])
	}
	ready.Wait()
	close(gate)
	err := r.events(e)
	applied.Store(true)
	done.Wait()
	res := r.res
	res.Raced += b2i(changed)
	for _, t := range tallies {
		res.Packets += t[0]
		res.TornVerdicts += t[1]
		res.VerdictMismatches += t[2]
		res.VerdictsOld += t[3]
		res.VerdictsNew += t[4]
	}
	return err
}

// repeat sends the traffic straight to the enforcer e.repeat times, one
// packet at a time from one goroutine, and times the sends: each is a
// flow-cache hit once the traffic has crossed the network. The clock covers
// the enforcer and the comparison of each verdict with the model.
func (r *scenarioRun) repeat(e epoch, traffic []int, pkts []*ipv4.Packet) {
	mismatches := 0
	start := time.Now()
	for n := 0; n < e.repeat; n++ {
		for j, pkt := range pkts {
			got := r.tb.Enforcer.Process(pkt)
			mismatches += b2i(!agrees(&got, r.expect[traffic[j]]))
		}
	}
	r.hitNs += time.Since(start).Nanoseconds()
	r.res.HitPackets += e.repeat * len(pkts)
	r.res.Packets += e.repeat * len(pkts)
	r.res.VerdictMismatches += mismatches
}

// finish drains the run, reads its counters, shuts the gateways down and
// measures what they left behind.
func (r *scenarioRun) finish() (*ScenarioResult, error) {
	res, clock := r.res, r.tb.Network.Clock
	// Everything idles out, then one sweep must leave every table empty: any
	// surviving entry is a leak.
	clock.Advance(r.sc.flowTTL() + scenarioConnIdle + time.Second)
	for _, tb := range r.tbs {
		conns, _ := tb.Gateway.GC(scenarioConnIdle)
		res.GCConnsReclaimed += conns
		res.Restarts += tb.Gateway.Restarts()
	}
	res.ConnsLeaked = int(r.count("bp_conntrack_connections", metrics.L("state", "open")))
	res.FlowsLeaked = int(r.count("bp_flowtable_live"))
	res.VirtualTime = clock.Now() - r.clockStart

	res.Swaps = r.count("bp_policy_reloads_total", metrics.L("outcome", "applied")) - r.appliedStart
	// Failures are the malformed candidates and one fetch per outage.
	res.Rejected = r.count("bp_policy_reloads_total", metrics.L("outcome", "failed")) - r.failedStart - uint64(res.Outages)
	res.DegradedEnters = r.count("bp_policy_degraded_enters_total")
	res.GenerationDelta = r.generation() - r.genStart
	res.PolicyVersion, res.PolicyRules = r.tb.Policy.Version(), r.count("bp_policy_rules")

	res.RiskWarns = r.count("bp_context_warns_total")
	res.RiskBlocks = r.count("bp_context_blocks_total")
	res.Invalidations = r.byLabel("bp_context_invalidations_total")
	res.TimeFlows = len(r.timeFlows)
	res.TimeReevaluations = r.count("bp_enforcer_verdict_expiries_total")
	if res.HitPackets > 0 {
		res.HitNsPerPkt = float64(r.hitNs) / float64(res.HitPackets)
	}
	res.StaleDrops = r.count("bp_flowtable_stale_drops_total")
	res.Faults = r.byLabel("bp_netsim_faults_total")
	outcome := func(o string) uint64 { return r.count("bp_conntrack_responses_total", metrics.L("outcome", o)) }
	res.ResponsesChecked, res.ResponseAdopts, res.ResponseSeqDrops = outcome("checked"), outcome("adopted"), outcome("seq_drop")
	res.DupCloses = r.count("bp_conntrack_transitions_total", metrics.L("kind", "dup_close"))

	// Shut down, then count goroutines: the audit pipelines and any poller
	// must be gone. A short settle loop absorbs runtime stragglers.
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", r.sc.name, err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		res.GoroutinesLeaked = runtime.NumGoroutine() - r.goroutines
		if res.GoroutinesLeaked <= 0 || time.Now().After(deadline) {
			break
		}
	}
	res.HeapGrowth = heapInUse() - r.heap
	return res, nil
}

// count sums one series over every gateway's registry; labels narrow a
// family (no labels sums it).
func (r *scenarioRun) count(family string, labels ...metrics.Label) uint64 {
	var n uint64
	for _, tb := range r.tbs {
		n += tb.count(family, labels...)
	}
	return n
}

// byLabel reads a family whose series carry one label over every gateway's
// registry: the nonzero sums, keyed by that label's value.
func (r *scenarioRun) byLabel(family string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, tb := range r.tbs {
		for _, smp := range tb.Metrics.Snapshot() {
			if smp.Name == family && smp.Value != 0 {
				out[smp.Labels[0].Value] += uint64(smp.Value)
			}
		}
	}
	return out
}

// generation sums the gateways' engine generations.
func (r *scenarioRun) generation() uint64 {
	var n uint64
	for _, tb := range r.tbs {
		n += tb.Engine.Generation()
	}
	return n
}

// close shuts the gateways down, once, and removes the policy directory.
func (r *scenarioRun) close() error {
	defer os.RemoveAll(r.dir)
	tb, fl := r.tb, r.fleet
	r.tb, r.tbs, r.fleet = nil, nil, nil
	switch {
	case fl != nil:
		return fl.Close()
	case tb != nil:
		return tb.Close()
	}
	return nil
}

// heapInUse reports post-GC live heap bytes.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// corpusAPKs lists a corpus's apps: what the reference model holds
// provisioned for a testbed built from it.
func corpusAPKs(corpus []*apkgen.App) []*dex.APK {
	apks := make([]*dex.APK, len(corpus))
	for i, ga := range corpus {
		apks[i] = ga.APK
	}
	return apks
}
