package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/refmodel"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/tag"
)

// agree fails the test unless the gateway's enforcement result for a packet
// is the reference model's: the verdict, the cause, the risk program's part
// and, once a tag decoded, the app and the stack.
func agree(t *testing.T, where string, got *enforcer.Result, want refmodel.Verdict) {
	t.Helper()
	if got.Verdict != want.Verdict || got.Cause != want.Cause {
		t.Fatalf("%s: gateway = %v/%v, reference model = %v/%v", where, got.Verdict, got.Cause, want.Verdict, want.Cause)
	}
	if got.AppHash != want.App || !slices.Equal(got.Stack, want.Stack) {
		t.Fatalf("%s: gateway decoded %v %v, reference model %v %v", where, got.AppHash, got.Stack, want.App, want.Stack)
	}
	if r := got.Risk; r.Applied != want.RiskApplied || int(r.Score) != want.RiskScore || r.Warn != want.RiskWarn {
		t.Fatalf("%s: gateway risk = %+v, reference model = %+v", where, r, want)
	}
}

// sweepAPK is the app the equivalence sweep tags its traffic with: two
// first-party methods (one of them denied by a method rule) and a tracker
// library frame.
func sweepAPK() *dex.APK {
	return &dex.APK{
		PackageName: "com.corp.files",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{
			{
				Package: "com/corp/files",
				Name:    "SyncEngine",
				Methods: []dex.MethodDef{
					{Name: "download", Proto: "()V", File: "S.java", StartLine: 10, EndLine: 20},
					{Name: "upload", Proto: "()V", File: "S.java", StartLine: 30, EndLine: 40},
				},
			},
			{
				Package: "com/flurry/sdk",
				Name:    "Agent",
				Methods: []dex.MethodDef{
					{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 5, EndLine: 15},
				},
			},
		}}},
	}
}

// TestEquivalenceMixedTraffic drives a mixed packet corpus — clean and
// tracker stacks, SYN/data/FIN control segments, duplicated and reordered
// fault shapes, fragments, bad indexes, malformed tags, unknown apps,
// untagged packets — from several devices through a flow-cached gateway
// and an uncached reference gateway, at 1, 2 and 4 workers, as whole bursts
// (wide enough to split across the gateway's flow-affine workers) and one
// packet at a time, and requires identical verdicts and causes packet by
// packet, pass by pass — and the reference model's verdict, cause, app and
// stack. Policy swaps land between passes: one drops the upload method rule,
// a later one restores it, and the last re-sets the same rules. The ghost
// app's tag is an unknown app until the last passes provision it.
func TestEquivalenceMixedTraffic(t *testing.T) {
	apk := sweepAPK()
	rules := []policy.Rule{
		{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"},
		{Action: policy.Deny, Level: policy.LevelMethod, Target: "Lcom/corp/files/SyncEngine;->upload()V"},
	}
	build := func(cached bool, workers int) (*Gateway, *enforcer.Enforcer, *policy.Engine, *analyzer.Database) {
		db := analyzer.NewDatabase()
		if err := db.Add(apk); err != nil {
			t.Fatal(err)
		}
		eng, err := policy.NewEngine(rules, policy.VerdictAllow)
		if err != nil {
			t.Fatal(err)
		}
		clock := NewClock()
		enf := shipped(clock, cached, enforcer.Config{}, db, eng)
		return NewGateway(GatewayConfig{
			Enforcer: enf, Sanitizer: sanitizer.New(), Workers: workers, Clock: clock,
		}), enf, eng, db
	}

	db := analyzer.NewDatabase() // for taggedPacket's index lookup only
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	var corpus []*ipv4.Packet
	addConn := func(method string, srcPort uint16) {
		base := taggedPacket(t, apk, db, method)
		base.Header.Src = netip.AddrFrom4([4]byte{10, 0, byte(srcPort % 16), 5}) // one of 16 devices
		syn, data, fin := tcpConn(t, base, srcPort, 3)
		corpus = append(append(append(corpus, syn), data...), fin)
	}
	for c := uint16(0); c < 10; c++ {
		addConn("download", 40001+3*c) // clean: allow
		addConn("beacon", 40002+3*c)   // tracker library: deny
		addConn("upload", 40003+3*c)   // denied method: deny
	}
	// Fault shapes: duplicate the first clean connection's first data
	// segment, reorder the first tracker connection's tail.
	corpus = append(corpus, corpus[1].Clone())
	corpus = append(corpus, corpus[8].Clone(), corpus[7].Clone())
	// data is one data segment of a fresh connection whose tag is replaced
	// by raw option bytes (nil strips it).
	data := func(srcPort uint16, tagData []byte) *ipv4.Packet {
		_, segs, _ := tcpConn(t, taggedPacket(t, apk, db, "download"), srcPort, 1)
		if tagData == nil {
			segs[0].Header.Options = nil
		} else {
			segs[0].Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: tagData})
		}
		return segs[0]
	}
	encode := func(hash dex.TruncatedHash, indexes ...uint32) []byte {
		tg := tag.Tag{AppHash: hash, Indexes: indexes}
		b, err := tg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A non-first fragment: ports zero out in the flow key.
	frag := data(41004, encode(apk.Truncated(), 0))
	frag.Header.FragOff = 185
	corpus = append(corpus, frag)
	// Structural negatives.
	ghost := sweepAPK()
	ghost.PackageName = "com.corp.ghost"
	corpus = append(corpus,
		data(41005, encode(apk.Truncated(), 99)),    // bad index
		data(41006, encode(ghost.Truncated(), 0)),   // unknown app
		data(41007, []byte{tag.Version << 4, 1, 2}), // truncated tag
		data(41008, nil), // untagged
	)

	// The burst must really split: every worker owns part of it.
	b := getBurst(corpus)
	b.split(2)
	for w := range b.workers {
		if len(b.workers) != 2 || len(b.workers[w].idx) == 0 {
			t.Fatalf("the corpus does not split across both workers: %d workers, worker %d owns %d packets", len(b.workers), w, len(b.workers[w].idx))
		}
	}
	b.release()

	drain := func(gw *Gateway, burst bool) []BatchOutcome {
		if burst {
			out, err := gw.ProcessBatch(corpus)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		out := make([]BatchOutcome, 0, len(corpus))
		for i := range corpus {
			one, err := gw.ProcessBatch(corpus[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, one[0])
		}
		return out
	}
	for _, workers := range []int{1, 2, 4} {
		fast, fastEnf, fastEng, fastDB := build(true, workers)
		ref, refEnf, refEng, refDB := build(false, workers)
		model := &refmodel.Model{APKs: []*dex.APK{apk}, Rules: rules, Default: policy.VerdictAllow}
		seen := map[enforcer.DropCause]int{}
		swaps := map[int][]policy.Rule{1: slices.Clone(rules[:1]), 3: rules, 5: rules}
		for pass := 0; pass < 6; pass++ {
			if r, ok := swaps[pass]; ok { // swap the policy everywhere
				for _, eng := range []*policy.Engine{fastEng, refEng} {
					if err := setRules(eng, r); err != nil {
						t.Fatal(err)
					}
				}
				model.Rules = r
			}
			if pass == 4 { // provision the ghost app everywhere
				for _, db := range []*analyzer.Database{fastDB, refDB} {
					if err := db.Add(ghost); err != nil {
						t.Fatal(err)
					}
				}
				model.APKs = append(model.APKs, ghost)
			}
			burst := pass%2 == 0
			got, want := drain(fast, burst), drain(ref, burst)
			for i := range corpus {
				g, w := got[i].Result, want[i].Result
				if g == nil || w == nil {
					t.Fatalf("%d workers, pass %d pkt %d: missing enforcement result (fast %v, ref %v)", workers, pass, i, g, w)
				}
				if g.Verdict != w.Verdict || g.Cause != w.Cause {
					t.Fatalf("%d workers, pass %d pkt %d: flow-cached gateway = %v/%v, uncached = %v/%v",
						workers, pass, i, g.Verdict, g.Cause, w.Verdict, w.Cause)
				}
				m := model.Decide(corpus[i])
				agree(t, fmt.Sprintf("%d workers, pass %d pkt %d, flow-cached", workers, pass, i), g, m)
				agree(t, fmt.Sprintf("%d workers, pass %d pkt %d, uncached", workers, pass, i), w, m)
				if (got[i].Out == nil) != (want[i].Out == nil) || (got[i].Out == nil) != (w.Verdict == policy.VerdictDrop) {
					t.Fatalf("%d workers, pass %d pkt %d: survivors disagree with verdict %v (fast out %v, ref out %v)",
						workers, pass, i, w.Verdict, got[i].Out != nil, want[i].Out != nil)
				}
				seen[w.Cause]++
			}
		}
		for _, c := range []enforcer.DropCause{
			enforcer.DropNone, enforcer.DropPolicy, enforcer.DropBadIndex,
			enforcer.DropUnknownApp, enforcer.DropMalformedTag, enforcer.DropUntagged,
		} {
			if seen[c] == 0 {
				t.Fatalf("%d workers: corpus never produced cause %v: %v", workers, c, seen)
			}
		}
		fastHits, fastMemo := count(fastEnf, "bp_flowtable_hits_total"), count(fastEnf, "bp_enforcer_batch_memo_hits_total")
		if fastHits == 0 || fastMemo == 0 {
			t.Fatalf("%d workers: equivalence ran entirely on the miss path: %d hits, %d memo hits", workers, fastHits, fastMemo)
		}
		if shared := count(fastEnf, "bp_enforcer_decoded_tag_hits_total"); shared == 0 {
			t.Fatalf("%d workers: no flow miss was answered by its tag's record", workers)
		}
		refFlows := count(refEnf, "bp_flowtable_hits_total") + count(refEnf, "bp_flowtable_misses_total")
		if refMemo := count(refEnf, "bp_enforcer_batch_memo_hits_total"); refFlows+refMemo != 0 {
			t.Fatalf("%d workers: reference gateway used a cache: %d flow-table lookups, %d memo hits", workers, refFlows, refMemo)
		}
	}
}

// TestEquivalenceAcrossTimeEdges adds the clock and a device's context to
// the sweep: under a risk policy with two overlapping time windows and a
// network predicate, long-lived flows send a packet at every step of a
// clock that crosses each window edge (the edge falls inside those flows),
// and a new connection opens and closes at every step (the edge falls
// between these); for three steps the device is on a cellular network,
// which blocks it. At 1, 2 and 4 workers, the flow-cached gateway — whose
// table's TTL outlasts every gap between steps, so only the verdicts' own
// expiry and the context's generation can end a stale one — must decide
// every packet as the uncached
// one and the reference model do: verdict, cause, risk score and the warn
// flag.
func TestEquivalenceAcrossTimeEdges(t *testing.T) {
	apk := sweepAPK()
	rules, err := policy.ParsePolicyString(`
{[deny][library]["com/flurry"]}
{[risk][time]["21:00-23:00"][60]}
{[risk][time]["22:00-06:00"][50]}
{[risk][network]["cellular"][100]}
{[threshold][warn][50]}
{[threshold][block][100]}
`)
	if err != nil {
		t.Fatal(err)
	}
	db := analyzer.NewDatabase() // for taggedPacket's index lookup only
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		clock := NewClock()
		build := func(flows *enforcer.FlowCache) (*Gateway, *enforcer.Enforcer, *devctx.Source) {
			db := analyzer.NewDatabase()
			if err := db.Add(apk); err != nil {
				t.Fatal(err)
			}
			eng, err := policy.NewEngine(rules, policy.VerdictAllow)
			if err != nil {
				t.Fatal(err)
			}
			src := devctx.NewSource(clock)
			enf := enforcer.New(enforcer.Config{Flows: flows, Context: src}, db, eng)
			return NewGateway(GatewayConfig{
				Enforcer: enf, Sanitizer: sanitizer.New(), Workers: workers, Clock: clock,
			}), enf, src
		}
		fast, fastEnf, fastSrc := build(enforcer.NewFlowCache(flowtable.Config{Clock: clock, TTL: 8 * 24 * time.Hour}))
		ref, _, refSrc := build(nil)
		model := &refmodel.Model{
			APKs: []*dex.APK{apk}, Rules: rules, Default: policy.VerdictAllow,
			Context: map[netip.Addr]policy.DeviceContext{}, Clock: clock,
		}
		setNetwork := func(addr netip.Addr, class policy.NetworkClass) {
			fastSrc.SetNetwork(addr, class)
			refSrc.SetNetwork(addr, class)
			model.Context[addr] = policy.DeviceContext{Network: class}
		}

		const hour, day = time.Hour, 24 * time.Hour
		steps := []time.Duration{
			20 * hour, 21*hour - time.Second, 21 * hour, 21*hour + time.Second, 21*hour + 59*time.Minute + 59*time.Second,
			22 * hour, 22*hour + 30*time.Minute, 23*hour - time.Nanosecond, 23 * hour, day - time.Second, day, day + hour,
			day + 6*hour - time.Second, day + 6*hour, day + 12*hour,
			day + 22*hour + 30*time.Minute,                                   // two edges since the last packet
			5*day + 21*hour + 30*time.Minute, 7*day + 5*hour, 7*day + 6*hour, // across the week's wrap
		}
		// Long-lived connections, one data segment per step, clean and tracker.
		var long [][]*ipv4.Packet
		var burst []*ipv4.Packet
		for c, method := range []string{"download", "download", "beacon", "upload"} {
			syn, data, _ := tcpConn(t, taggedPacket(t, apk, db, method), uint16(42001+c), len(steps))
			long = append(long, data)
			burst = append(burst, syn)
		}
		device := burst[0].Header.Src
		seen := map[string]int{}
		compare := func(when time.Duration, pkts []*ipv4.Packet) {
			t.Helper()
			got, err := fast.ProcessBatch(pkts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ProcessBatch(pkts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pkts {
				g, w := got[i].Result, want[i].Result
				if g.Verdict != w.Verdict || g.Cause != w.Cause || (g.Access == nil) != (w.Access == nil) {
					t.Fatalf("%d workers, at %v pkt %d: flow-cached gateway = %v/%v, uncached = %v/%v", workers, when, i, g.Verdict, g.Cause, w.Verdict, w.Cause)
				}
				if g.Risk != w.Risk {
					t.Fatalf("%d workers, at %v pkt %d: flow-cached risk = %+v, uncached = %+v", workers, when, i, g.Risk, w.Risk)
				}
				m := model.Decide(pkts[i])
				agree(t, fmt.Sprintf("%d workers, at %v pkt %d, flow-cached", workers, when, i), g, m)
				agree(t, fmt.Sprintf("%d workers, at %v pkt %d, uncached", workers, when, i), w, m)
				if (got[i].Out == nil) != (want[i].Out == nil) {
					t.Fatalf("%d workers, at %v pkt %d: survivors disagree (fast out %v, ref out %v)", workers, when, i, got[i].Out != nil, want[i].Out != nil)
				}
				switch {
				case w.Cause != enforcer.DropNone:
					seen[w.Cause.String()]++
				case w.Risk.Warn:
					seen["warn"]++
				default:
					seen["allow"]++
				}
			}
		}
		compare(0, burst) // the SYNs, Monday 00:00
		for s, at := range steps {
			clock.Advance(at - clock.Now())
			switch s {
			case 9:
				setNetwork(device, policy.NetCellular)
			case 12:
				setNetwork(device, policy.NetUnknown)
			}
			// Inside flows: each long connection's next segment, the first one
			// twice in a row so the batch memo answers too.
			burst = append(burst[:0], long[0][s], long[0][s].Clone())
			for _, data := range long[1:] {
				burst = append(burst, data[s])
			}
			// Between flows: a connection that lives within this step.
			syn, data, fin := tcpConn(t, taggedPacket(t, apk, db, "download"), uint16(43000+s), 2)
			burst = append(append(append(burst, syn), data...), fin)
			compare(at, burst)
			for _, pkt := range burst { // and one packet at a time
				compare(at, []*ipv4.Packet{pkt})
			}
		}
		for _, c := range []string{"allow", "warn", "risk", "policy"} {
			if seen[c] == 0 {
				t.Fatalf("%d workers: the sweep never produced %q: %v", workers, c, seen)
			}
		}
		hits, memo, expired := count(fastEnf, "bp_flowtable_hits_total"), count(fastEnf, "bp_enforcer_batch_memo_hits_total"), count(fastEnf, "bp_flowtable_expired_drops_total")
		if hits == 0 || memo == 0 || expired != 0 {
			t.Fatalf("%d workers: sweep did not run on cached verdicts alone: %d hits, %d memo hits, %d expired", workers, hits, memo, expired)
		}
	}
}
