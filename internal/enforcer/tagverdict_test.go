package enforcer

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// This file covers stage 3's access half once per tag: a tag's record
// carries its Access, and new flows of the tag take it without an
// evaluation — under the generations it was reached in, and only those.
// Only the risk half runs per flow.

// stageCounts reads the miss path's ledger: flow misses and verdict
// expiries on one side, evaluations and tag-record hits (a miss that took
// its tag's access verdict) on the other.
func stageCounts(e *Enforcer) (misses, expiries, evals, shared uint64) {
	return count(e, "bp_flowtable_misses_total"), count(e, "bp_enforcer_verdict_expiries_total"),
		count(e, "bp_policy_evaluations_total"), count(e, "bp_enforcer_decoded_tag_hits_total")
}

// balanced fails unless every flow miss (and expiry) was answered by
// exactly one evaluation or one tag-record hit.
func balanced(t *testing.T, e *Enforcer) {
	t.Helper()
	if misses, expiries, evals, shared := stageCounts(e); evals+shared != misses+expiries {
		t.Fatalf("evaluations %d + tag verdicts %d != flow misses %d + expiries %d", evals, shared, misses, expiries)
	}
}

// TestSwapReevaluatesEachTagOnce: N flows over T tags, then a swap that
// flips one tag's verdict. The next packet of every flow is a miss, and the
// T tags are evaluated once each — every flow of the flipped tag gets the
// new verdict, every other flow its old one.
func TestSwapReevaluatesEachTagOnce(t *testing.T) {
	flurry := policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}
	upload := policy.Rule{Action: policy.Deny, Level: policy.LevelMethod, Target: "Lcom/corp/files/SyncEngine;->upload()V"}
	e, db, apk := newCachedEnforcer(t, Config{}, []policy.Rule{flurry}, policy.VerdictAllow)
	stacks := [][]string{{"download"}, {"upload"}, {"beacon"}, {"beacon", "download"}}
	before := []policy.Verdict{policy.VerdictAllow, policy.VerdictAllow, policy.VerdictDrop, policy.VerdictDrop}
	const perTag = 16
	T, N := uint64(len(stacks)), uint64(len(stacks)*perTag)
	var pkts []*ipv4.Packet
	var tagOf []int
	for k, names := range stacks {
		payload := mkPacket(t, apk, db, names...).Header.Options[0].Data
		for i := 0; i < perTag; i++ {
			pkts, tagOf = append(pkts, taggedPacket(payload, len(pkts))), append(tagOf, k)
		}
	}
	run := func(want func(k int) policy.Verdict) {
		t.Helper()
		for i, p := range pkts {
			if res := e.Process(p); res.Verdict != want(tagOf[i]) {
				t.Fatalf("flow %d of tag %v: %v, want %v", i, stacks[tagOf[i]], res.Verdict, want(tagOf[i]))
			}
		}
	}
	run(func(k int) policy.Verdict { return before[k] })
	if misses, _, evals, shared := stageCounts(e); misses != N || evals != T || shared != N-T {
		t.Fatalf("first packets: %d flow misses, %d evaluations, %d tag verdicts; want %d, %d, %d", misses, evals, shared, N, T, N-T)
	}
	run(func(k int) policy.Verdict { return before[k] }) // all hits
	_, _, evals0, shared0 := stageCounts(e)

	if err := setRules(e.engine, []policy.Rule{flurry, upload}); err != nil {
		t.Fatal(err)
	}
	run(func(k int) policy.Verdict {
		if k == 1 {
			return policy.VerdictDrop
		}
		return before[k]
	})
	if misses, _, evals, shared := stageCounts(e); misses != 2*N || evals-evals0 != T || shared-shared0 != N-T {
		t.Fatalf("after the swap: %d flow misses, %d evaluations, %d tag verdicts; want %d, %d, %d",
			misses, evals-evals0, shared-shared0, 2*N, T, N-T)
	}
	if n := drops(e, DropPolicy); n != 2*2*perTag+3*perTag {
		t.Fatalf("policy drops = %d", n)
	}
	balanced(t, e)
}

// TestRiskProgramEvaluatesEveryFlow: with a risk program loaded and a
// context source wired, the risk program scores every flow miss against its
// device, while the tag's access half is evaluated once: devices on
// different networks carrying one tag get their own verdicts.
func TestRiskProgramEvaluatesEveryFlow(t *testing.T) {
	src := newSource()
	e, db, apk := newCachedEnforcer(t, Config{Context: src}, contextRules(t, `
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`), policy.VerdictAllow)
	template := mkPacket(t, apk, db, "download")
	const flows = 32
	for i := 0; i < flows; i++ {
		p := template.Clone()
		p.Header.Src = netip.AddrFrom4([4]byte{10, 9, 0, byte(i)})
		want := policy.VerdictDrop
		if i%2 == 0 {
			src.SetNetwork(p.Header.Src, policy.NetTrusted)
			want = policy.VerdictAllow
		}
		if res := e.Process(p); res.Verdict != want {
			t.Fatalf("device %v: %+v, want %v", p.Header.Src, res, want)
		}
	}
	if misses, _, evals, shared := stageCounts(e); misses != flows || evals != 1 || shared != flows-1 {
		t.Fatalf("%d flow misses, %d evaluations, %d tag verdicts; want %d, 1, %d", misses, evals, shared, flows, flows-1)
	}
	if scored := count(e, "bp_context_evaluations_total"); scored != flows {
		t.Fatalf("%d flows scored, want %d", scored, flows)
	}
	if n := drops(e, DropRisk); n != flows/2 {
		t.Fatalf("risk drops = %d, want %d", n, flows/2)
	}
	balanced(t, e)
}

// TestDegradedReachesSharedTagVerdicts: entering and leaving a degraded
// posture moves the engine generation, so every flow of a tag whose verdict
// its record carries gets the degraded verdict, then the normal one again.
func TestDegradedReachesSharedTagVerdicts(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	payload := mkPacket(t, apk, db, "download").Header.Options[0].Data
	pkts := make([]*ipv4.Packet, 24)
	for i := range pkts {
		pkts[i] = taggedPacket(payload, i)
	}
	run := func(stage string, want policy.Verdict) {
		t.Helper()
		_, _, evals0, _ := stageCounts(e)
		for i, p := range pkts {
			if res := e.Process(p); res.Verdict != want {
				t.Fatalf("%s, flow %d: %+v, want %v", stage, i, res, want)
			}
		}
		if _, _, evals, _ := stageCounts(e); evals-evals0 != 1 {
			t.Fatalf("%s: %d evaluations for one tag", stage, evals-evals0)
		}
	}
	run("normal", policy.VerdictAllow)
	if err := e.engine.SetDegraded(policy.VerdictDrop, "policy backend unreachable"); err != nil {
		t.Fatal(err)
	}
	run("degraded", policy.VerdictDrop)
	e.engine.ClearDegraded()
	run("recovered", policy.VerdictAllow)
	if n := count(e, "bp_policy_degraded_hits_total"); n != 1 {
		t.Fatalf("degraded hits = %d, want 1 (one tag)", n)
	}
	balanced(t, e)
}

// countingSink keeps every offer it is given.
type countingSink struct {
	offers []Result
}

func (s *countingSink) Record(_ *ipv4.Packet, res Result) { s.offers = append(s.offers, res) }

func (s *countingSink) RecordBatch(_ []*ipv4.Packet, res []Result) {
	s.offers = append(s.offers, res...)
}

// TestAuditOfferedOncePerPacketOnEveryPath: the audit sink is offered one
// decision per processed packet — the one the caller got — on every path
// that answers: untagged, failed decode, flow miss, flow hit, batch memo
// and tag verdict.
func TestAuditOfferedOncePerPacketOnEveryPath(t *testing.T) {
	sink := &countingSink{}
	e, db, apk := newCachedEnforcer(t, Config{Audit: sink},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}, policy.VerdictAllow)
	clean := mkPacket(t, apk, db, "download").Header.Options[0].Data
	tracker := mkPacket(t, apk, db, "beacon").Header.Options[0].Data
	untagged := taggedPacket(clean, 900)
	untagged.Header.Options = nil
	flow := 0
	next := func(payload []byte) *ipv4.Packet { flow++; return taggedPacket(payload, flow) }
	hot := next(clean)

	for _, step := range []struct {
		path    string
		counter string // the path's own counter, which moves by len(pkts)
		pkts    []*ipv4.Packet
		batch   bool
	}{
		{"untagged", "bp_enforcer_drops_total", []*ipv4.Packet{untagged}, false},
		{"failed decode", "bp_enforcer_drops_total", []*ipv4.Packet{next([]byte{0xff, 0x01})}, false},
		{"miss", "bp_policy_evaluations_total", []*ipv4.Packet{hot, next(tracker)}, false},
		{"flow hit", "bp_flowtable_hits_total", []*ipv4.Packet{hot}, false},
		{"batch memo", "bp_enforcer_batch_memo_hits_total", []*ipv4.Packet{hot, hot, hot}, true},
		{"tag verdict", "bp_enforcer_decoded_tag_hits_total", []*ipv4.Packet{next(clean), next(tracker)}, false},
		{"tag verdict, batched", "bp_enforcer_decoded_tag_hits_total", []*ipv4.Packet{next(clean), next(tracker)}, true},
	} {
		offered, before := len(sink.offers), count(e, step.counter)
		var got []Result
		if step.batch {
			got = append(got, e.ProcessBatch(step.pkts, nil)...)
		} else {
			for _, p := range step.pkts {
				got = append(got, e.Process(p))
			}
		}
		moved := count(e, step.counter) - before
		if step.path == "batch memo" {
			moved++ // the burst's first packet is the hit the memo repeats
		}
		if moved != uint64(len(step.pkts)) {
			t.Fatalf("%s: the path's counter moved by %d for %d packets", step.path, moved, len(step.pkts))
		}
		offers := sink.offers[offered:]
		if len(offers) != len(got) {
			t.Fatalf("%s: %d offers for %d packets", step.path, len(offers), len(got))
		}
		for i := range got {
			if g, o := got[i], offers[i]; g.Verdict != o.Verdict || g.Cause != o.Cause || g.Access != o.Access || g.Risk != o.Risk {
				t.Fatalf("%s, packet %d: caller got %v/%v, audit offered %v/%v", step.path, i, g.Verdict, g.Cause, o.Verdict, o.Cause)
			}
		}
	}
	if processed := count(e, "bp_enforcer_verdicts_total"); processed != uint64(len(sink.offers)) {
		t.Fatalf("%d packets processed, %d offered to audit", processed, len(sink.offers))
	}
}

// BenchmarkProcessFlowMissAfterSwap is churn's miss path: new flows over a
// rotating set of 16 known three-frame tags, with the policy swapped every
// 1,024 flows (the swap outside the timer). Each tag is decoded and
// evaluated once per rule set, and every other new flow takes its tag's
// verdict: 0 allocs/op, the 16 re-decoded tags' records and Stacks
// amortised over 1,024 flows.
func BenchmarkProcessFlowMissAfterSwap(b *testing.B) {
	e, base := benchEnforcer(b, true)
	gen := genAPK()
	if err := e.db.Add(gen); err != nil {
		b.Fatal(err)
	}
	rules := benchRules()
	pkts := make([]*ipv4.Packet, 16)
	for k := range pkts {
		payload, err := (&tag.Tag{AppHash: gen.Truncated(), Indexes: []uint32{uint32(k), uint32(k + 16), uint32(k + 32)}}).Encode()
		if err != nil {
			b.Fatal(err)
		}
		pkts[k] = base.Clone()
		pkts[k].Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
		e.Process(pkts[k]) // the tag is known
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			if err := setRules(e.engine, rules); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		p := pkts[i%len(pkts)]
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(i))
		p.Header.Dst = netip.AddrFrom4(a)
		if res := e.Process(p); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}
