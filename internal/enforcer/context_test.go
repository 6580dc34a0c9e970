package enforcer

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/devctx"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// contextRules parses a contextual policy document for enforcer tests.
func contextRules(t *testing.T, doc string) []policy.Rule {
	t.Helper()
	rules, err := policy.ParsePolicyString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

var deviceAddr = netip.MustParseAddr("10.0.0.5")

func TestContextEvaluatedOncePerFlowAndCached(t *testing.T) {
	src := newSource()
	cfg := Config{
		Flows:   NewFlowCache(flowtable.Config{Clock: src}),
		Context: src,
	}
	e, db, apk := newEnforcer(t, cfg, contextRules(t, `
{[risk][network]["unknown"][60]}
{[threshold][warn][40]}
{[threshold][block][100]}
`), policy.VerdictAllow)

	// Unknown device on an unknown network: warn (60 ≥ 40, < 100).
	pkt := mkPacket(t, apk, db, "download")
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictAllow || res.Access == nil || !res.Risk.Warn {
		t.Fatalf("first packet: %+v", res)
	}
	if res.Risk.Score != 60 {
		t.Fatalf("risk score = %d", res.Risk.Score)
	}

	// Second packet of the same flow: served from the cache, same Access
	// pointer and Risk — context was evaluated exactly once.
	res2 := e.Process(pkt)
	if res2.Access != res.Access || res2.Risk != res.Risk {
		t.Fatal("cache hit rebuilt the decision (context re-evaluated)")
	}
	if hits, misses := count(e, "bp_flowtable_hits_total"), count(e, "bp_flowtable_misses_total"); hits != 1 || misses != 1 {
		t.Fatalf("flow hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if got := count(e, "bp_context_evaluations_total"); got != 1 {
		t.Fatalf("risk evaluations = %d, want 1 (once per flow)", got)
	}
}

// TestCellHitKeepsItsFlowsRisk: two devices in different contexts send
// flows of one tag. The flows share the tag's Access, and each flow's
// second packet, a cell hit, returns that flow's own risk score and warning.
func TestCellHitKeepsItsFlowsRisk(t *testing.T) {
	src := newSource()
	e, db, apk := newCachedEnforcer(t, Config{Context: src}, contextRules(t, `
{[risk][network]["unknown"][60]}
{[risk][network]["trusted"][-30]}
{[threshold][warn][40]}
{[threshold][block][100]}
`), policy.VerdictAllow)
	trusted := mkPacket(t, apk, db, "download")
	unknown := trusted.Clone()
	unknown.Header.Src = netip.MustParseAddr("10.0.0.6")
	src.SetNetwork(trusted.Header.Src, policy.NetTrusted)
	want := map[*ipv4.Packet]policy.Risk{
		trusted: {Score: -30, Applied: true},
		unknown: {Score: 60, Applied: true, Warn: true},
	}
	for round := 0; round < 2; round++ {
		for _, p := range []*ipv4.Packet{trusted, unknown} {
			if res := e.Process(p); res.Verdict != policy.VerdictAllow || res.Risk != want[p] {
				t.Fatalf("round %d, %v: %v %+v, want allow %+v", round, p.Header.Src, res.Verdict, res.Risk, want[p])
			}
		}
	}
	if hits, evals := count(e, "bp_flowtable_hits_total"), count(e, "bp_policy_evaluations_total"); hits != 2 || evals != 1 {
		t.Fatalf("%d flow hits, %d evaluations; want 2, 1", hits, evals)
	}
}

func TestContextFlipInvalidatesCachedVerdict(t *testing.T) {
	src := newSource()
	src.SetNetwork(deviceAddr, policy.NetTrusted)
	cfg := Config{
		Flows:   NewFlowCache(flowtable.Config{Clock: src}),
		Context: src,
	}
	e, db, apk := newEnforcer(t, cfg, contextRules(t, `
{[risk][network]["unknown"][100]}
{[risk][network]["trusted"][-50]}
{[threshold][block][100]}
`), policy.VerdictAllow)

	pkt := mkPacket(t, apk, db, "download")
	if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
		t.Fatalf("trusted flow dropped: %+v", res)
	}
	if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
		t.Fatalf("cached trusted flow dropped: %+v", res)
	}

	// The device roams to an unknown network: the generation bump must
	// invalidate the cached allow on the very next packet.
	src.SetNetwork(deviceAddr, policy.NetUnknown)
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictDrop || res.Cause != DropRisk {
		t.Fatalf("post-flip packet: %+v", res)
	}
	if !res.Risk.Blocked || res.Risk.Score != 100 {
		t.Fatalf("post-flip risk: %+v", res.Risk)
	}
	if count(e, "bp_flowtable_stale_drops_total") == 0 {
		t.Fatal("no stale drops after context flip")
	}
	if n := drops(e, DropRisk); n != 1 {
		t.Fatalf("risk drops = %d, want 1", n)
	}

	// Roaming back re-admits the flow.
	src.SetNetwork(deviceAddr, policy.NetTrusted)
	if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
		t.Fatalf("re-trusted flow dropped: %+v", res)
	}
}

// TestTimeWindowViaVirtualClock: a verdict a time predicate took part in is
// served up to that predicate's next edge and not a second longer — by the
// flow table and by the batch memo, flipping where the uncached path flips —
// and is re-evaluated exactly once per edge. The table's TTL outlasts the
// test's three days: the time edge alone decides.
func TestTimeWindowViaVirtualClock(t *testing.T) {
	clk := &testClock{}
	src := devctx.NewSource(clk)
	src.SetNetwork(deviceAddr, policy.NetTrusted)
	cfg := Config{
		Flows:   NewFlowCache(flowtable.Config{Clock: clk, TTL: 72 * time.Hour}),
		Context: src,
	}
	rules := contextRules(t, `
{[risk][time]["22:00-06:00"][100]}
{[threshold][block][100]}
`)
	e, db, apk := newEnforcer(t, cfg, rules, policy.VerdictAllow)
	ref, _, _ := newEnforcer(t, Config{Context: src}, rules, policy.VerdictAllow)
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg)

	pkt := mkPacket(t, apk, db, "download")
	burst := []*ipv4.Packet{pkt, pkt, pkt}
	const day = 24 * time.Hour
	for i, step := range []struct {
		at              time.Duration
		allow           bool
		evals, expiries uint64 // cumulative, after the step
		why             string
	}{
		{14 * time.Hour, true, 1, 0, "Monday afternoon: the flow's first packet"},
		{22*time.Hour - time.Second, true, 1, 0, "21:59:59: cached allow, edge not reached"},
		{22 * time.Hour, false, 2, 1, "22:00:00: the block window opens"},
		{23 * time.Hour, false, 2, 1, "23:00: cached drop"},
		{day + 6*time.Hour - time.Second, false, 2, 1, "Tuesday 05:59:59: cached drop, midnight is no edge"},
		{day + 6*time.Hour, true, 3, 2, "Tuesday 06:00: the window closes"},
		{day + 21*time.Hour, true, 3, 2, "Tuesday 21:00: cached allow"},
		{2*day + 3*time.Hour, false, 4, 3, "Wednesday 03:00: an edge passed between two packets"},
	} {
		clk.set(step.at)
		// One packet alone, then a burst whose tail the memo answers.
		got := append([]Result{e.Process(pkt)}, e.ProcessBatch(burst, nil)...)
		for j, res := range got {
			want := ref.Process(pkt)
			if res.Verdict != want.Verdict || res.Cause != want.Cause {
				t.Fatalf("%s: packet %d = %v/%v, uncached says %v/%v", step.why, j, res.Verdict, res.Cause, want.Verdict, want.Cause)
			}
			if allowed := res.Verdict == policy.VerdictAllow; allowed != step.allow || (!allowed && res.Cause != DropRisk) {
				t.Fatalf("%s: packet %d = %v/%v", step.why, j, res.Verdict, res.Cause)
			}
		}
		if evals := count(e, "bp_context_evaluations_total"); evals != step.evals {
			t.Fatalf("%s: %d risk evaluations so far, want %d (one per edge crossed)", step.why, evals, step.evals)
		}
		if n := flowCounter(t, reg, "bp_enforcer_verdict_expiries_total"); n != step.expiries {
			t.Fatalf("%s: %d verdict expiries so far, want %d", step.why, n, step.expiries)
		}
		// Only the flow's first packet ever missed the table: a lapsed
		// verdict is a hit the enforcer declined and overwrote in place.
		// Per step: Process probes, the burst's head probes, its tail is memo.
		misses, hits, live := count(e, "bp_flowtable_misses_total"), count(e, "bp_flowtable_hits_total"), count(e, "bp_flowtable_live")
		memo := count(e, "bp_enforcer_batch_memo_hits_total")
		if misses != 1 || hits != uint64(2*(i+1)-1) || memo != uint64(2*(i+1)) || live != 1 {
			t.Fatalf("%s: flow misses/hits/live %d/%d/%d, memo hits %d", step.why, misses, hits, live, memo)
		}
	}
}

// poolPackets returns one packet per device: the "download" flow of the
// test app from n consecutive source addresses starting at deviceAddr.
func poolPackets(t *testing.T, e *Enforcer, n int) []*ipv4.Packet {
	t.Helper()
	template := mkPacket(t, testAPK(), e.db, "download")
	pkts := make([]*ipv4.Packet, n)
	src := deviceAddr
	for i := range pkts {
		pkts[i] = template.Clone()
		pkts[i].Header.Src = src
		src = src.Next()
	}
	return pkts
}

// flowCounter reads one bp_flowtable_* series off a registry.
func flowCounter(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return uint64(v)
}

// TestContextFlipInvalidatesOnlyThatDevice: a device's context change
// moves its own stripe of the cache generation. Its next packet
// re-evaluates under the new context; a device on another stripe keeps its
// cached verdict (a flow-table hit, no stale drop); a device that shares
// the stripe may be re-evaluated too — over-invalidation is the price of
// striping — but is never served a verdict it should not get.
func TestContextFlipInvalidatesOnlyThatDevice(t *testing.T) {
	src := newSource()
	cfg := Config{
		Flows:   NewFlowCache(flowtable.Config{Clock: src}),
		Context: src,
	}
	e, _, _ := newEnforcer(t, cfg, contextRules(t, `
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`), policy.VerdictAllow)
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg)

	// Device A, a bystander B on another stripe, and a neighbour C that
	// shares A's stripe (4× Stripes consecutive addresses hold several).
	pkts := poolPackets(t, e, 4*devctx.Stripes)
	a := pkts[0]
	stripe := devctx.Stripe(a.Header.Src)
	var b, c *ipv4.Packet
	for _, p := range pkts[1:] {
		same := devctx.Stripe(p.Header.Src) == stripe
		if same && c == nil {
			c = p
		} else if !same && b == nil {
			b = p
		}
	}
	if b == nil || c == nil {
		t.Fatal("address pool yields no bystander or no stripe neighbour")
	}
	for _, p := range []*ipv4.Packet{a, b, c} {
		src.SetNetwork(p.Header.Src, policy.NetTrusted)
		if res := e.Process(p); res.Verdict != policy.VerdictAllow {
			t.Fatalf("trusted device %v dropped: %+v", p.Header.Src, res)
		}
	}

	src.SetNetwork(a.Header.Src, policy.NetUnknown)
	hits, stale := flowCounter(t, reg, "bp_flowtable_hits_total"), flowCounter(t, reg, "bp_flowtable_stale_drops_total")

	if res := e.Process(b); res.Verdict != policy.VerdictAllow {
		t.Fatalf("bystander dropped: %+v", res)
	}
	if h, s := flowCounter(t, reg, "bp_flowtable_hits_total"), flowCounter(t, reg, "bp_flowtable_stale_drops_total"); h != hits+1 || s != stale {
		t.Fatalf("bystander's packet: hits %d→%d, stale drops %d→%d; want a hit and no stale drop", hits, h, stale, s)
	}
	if res := e.Process(a); res.Verdict != policy.VerdictDrop || res.Cause != DropRisk {
		t.Fatalf("flipped device's packet: %+v", res)
	}
	if s := flowCounter(t, reg, "bp_flowtable_stale_drops_total"); s != stale+1 {
		t.Fatalf("stale drops %d→%d after the flipped device's packet, want one", stale, s)
	}
	// The stripe neighbour is still trusted: whether its entry was
	// invalidated or not, the verdict it gets is its own.
	if res := e.Process(c); res.Verdict != policy.VerdictAllow {
		t.Fatalf("stripe neighbour got the flipped device's verdict: %+v", res)
	}
	// And the neighbour's own flip is honoured on its next packet.
	src.SetNetwork(c.Header.Src, policy.NetUnknown)
	if res := e.Process(c); res.Verdict != policy.VerdictDrop || res.Cause != DropRisk {
		t.Fatalf("stripe neighbour after its own flip: %+v", res)
	}
	if res := e.Process(a); res.Verdict != policy.VerdictDrop {
		t.Fatalf("flipped device re-admitted by its neighbour's change: %+v", res)
	}
}

// TestRacedContextFlipNoStaleVerdicts is the acceptance-criterion race
// test: workers hammer Process on the cached flows of a device population
// while every device's network trust class flips underneath them, one
// device after another. The ordering contract (state published before the
// device's stripe version moves) means any evaluation that observed the
// post-flip version must reflect the post-flip context — so, per worker
// and device, once a drop is observed no later packet may be allowed (an
// allow after a drop would be a stale-context verdict served under the new
// version). Run under -race this also pins the Source's synchronization.
func TestRacedContextFlipNoStaleVerdicts(t *testing.T) {
	const devices = 96
	src := newSource()
	cfg := Config{
		Flows:   NewFlowCache(flowtable.Config{Clock: src}),
		Context: src,
	}
	e, _, _ := newEnforcer(t, cfg, contextRules(t, `
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`), policy.VerdictAllow)
	pkts := poolPackets(t, e, devices)
	for _, pkt := range pkts {
		src.SetNetwork(pkt.Header.Src, policy.NetTrusted)
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			t.Fatalf("pre-flip flow dropped: %+v", res)
		}
	}

	const workers = 4
	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		violations [workers]int
		drops      [workers]int
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dropped [devices]bool
			for {
				for d, pkt := range pkts {
					switch e.Process(pkt).Verdict {
					case policy.VerdictDrop:
						dropped[d] = true
						drops[w]++
					case policy.VerdictAllow:
						if dropped[d] {
							violations[w]++ // stale allow after a new-version drop
						}
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// Let the workers soak the cache-hit path, then flip every device
	// while they keep reading; a pass of reads between two flips spreads
	// the flips over the workers' run without handing the processor over.
	time.Sleep(5 * time.Millisecond)
	for _, pkt := range pkts {
		src.SetNetwork(pkt.Header.Src, policy.NetUnknown)
		for _, other := range pkts {
			e.Process(other)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	totalDrops := 0
	for w := 0; w < workers; w++ {
		if violations[w] != 0 {
			t.Fatalf("worker %d saw %d stale allows after observing a flip", w, violations[w])
		}
		totalDrops += drops[w]
	}
	if totalDrops == 0 {
		t.Fatal("no worker ever observed a flipped context")
	}
	// And the settled state must drop, for every device.
	for _, pkt := range pkts {
		if res := e.Process(pkt); res.Verdict != policy.VerdictDrop || res.Cause != DropRisk {
			t.Fatalf("settled post-flip verdict for %v: %+v", pkt.Header.Src, res)
		}
	}
}

func TestContextInactiveWithoutRiskRules(t *testing.T) {
	// A wired source with a call-stack-only policy must not score flows.
	src := newSource()
	cfg := Config{
		Flows:   NewFlowCache(flowtable.Config{Clock: src}),
		Context: src,
	}
	e, db, apk := newEnforcer(t, cfg,
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)
	res := e.Process(mkPacket(t, apk, db, "download"))
	if res.Verdict != policy.VerdictAllow || res.Risk.Applied {
		t.Fatalf("risk applied without risk rules: %+v", res)
	}
	if got := count(e, "bp_context_evaluations_total"); got != 0 {
		t.Fatalf("risk evaluations = %d", got)
	}
}

// TestSweepFlowsReclaimsInvalidated: SweepFlows frees exactly the cached
// verdicts no packet can hit any more. With nothing changed it frees none,
// since a flow's key yields the generation its packets carry; after a
// context flip it frees the flows on the flipped device's stripe, and after
// a policy swap all the rest.
func TestSweepFlowsReclaimsInvalidated(t *testing.T) {
	src := newSource()
	rules := contextRules(t, `
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`)
	e, _, _ := newEnforcer(t, Config{Flows: NewFlowCache(flowtable.Config{Clock: src}), Context: src}, rules, policy.VerdictAllow)
	pkts := poolPackets(t, e, 64)
	for _, p := range pkts {
		src.SetNetwork(p.Header.Src, policy.NetTrusted)
	}
	for _, p := range pkts {
		e.Process(p)
	}
	if freed := e.SweepFlows(); freed != 0 {
		t.Fatalf("a sweep with nothing changed freed %d flows", freed)
	}
	hits := count(e, "bp_flowtable_hits_total")
	for _, p := range pkts {
		e.Process(p)
	}
	if h := count(e, "bp_flowtable_hits_total"); h != hits+uint64(len(pkts)) {
		t.Fatalf("%d of %d flows hit after the sweep", h-hits, len(pkts))
	}

	flipped := devctx.Stripe(pkts[0].Header.Src)
	onStripe := 0
	for _, p := range pkts {
		if devctx.Stripe(p.Header.Src) == flipped {
			onStripe++
		}
	}
	src.SetNetwork(pkts[0].Header.Src, policy.NetUnknown)
	if freed := e.SweepFlows(); freed != onStripe {
		t.Fatalf("a sweep after a context flip freed %d flows, want the %d on its stripe", freed, onStripe)
	}
	if err := setRules(e.engine, rules); err != nil {
		t.Fatal(err)
	}
	if freed := e.SweepFlows(); freed != len(pkts)-onStripe {
		t.Fatalf("a sweep after a policy swap freed %d flows, want the other %d", freed, len(pkts)-onStripe)
	}
	if live := count(e, "bp_flowtable_live"); live != 0 {
		t.Fatalf("%d flows live after both sweeps", live)
	}
}
