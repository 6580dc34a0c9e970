package policy

import (
	"errors"
	"math"
	"testing"
	"time"

	"borderpatrol/internal/dex"
)

// contextDoc is a representative contextual policy: call-stack access
// rules plus risk predicates and explicit thresholds.
const contextDoc = `
// access rules
{[deny][library]["com/flurry"]}

// contextual risk
{[risk][network]["unknown"][60]}
{[risk][network]["trusted"][-30]}
{[risk][time]["22:00-06:00"][35]}
{[risk][time]["weekend"][20]}
{[risk][posture]["screen-locked"][15]}
{[risk][posture]["patch-age>90"][40]}
{[risk][travel]["impossible"][100]}
{[threshold][warn][40]}
{[threshold][block][100]}
`

// evaluateFlow decides one flow as the enforcer does: the app and stack's
// Access, decided with its Risk for fc (nil: none).
func evaluateFlow(e *Engine, appHash dex.TruncatedHash, stack []dex.Signature, fc *FlowContext) Decision {
	a := e.Access(appHash, stack)
	return a.Decide(a.Risk(fc))
}

func mustEngine(t *testing.T, doc string) *Engine {
	t.Helper()
	rules, err := ParsePolicyString(doc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestContextualRoundTrip(t *testing.T) {
	rules, err := ParsePolicyString(contextDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 10 {
		t.Fatalf("parsed %d rules, want 10", len(rules))
	}
	formatted := FormatPolicy(rules)
	again, err := ParsePolicyString(formatted)
	if err != nil {
		t.Fatalf("formatted contextual policy unparsable: %v\n%s", err, formatted)
	}
	if !rulesEqual(rules, again) {
		t.Fatalf("round trip changed rules:\n%+v\n%+v", rules, again)
	}
	if f2 := FormatPolicy(again); f2 != formatted {
		t.Fatalf("FormatPolicy not a fixpoint:\n%q\n%q", formatted, f2)
	}
}

func TestContextualRuleRejects(t *testing.T) {
	bad := []string{
		`{[risk][time]["25:00-26:00"][10]}`,
		`{[risk][time]["9:00-17:00"][10]}`, // single-digit hour
		`{[risk][time][""][10]}`,
		`{[risk][time]["weekend weekend"][10]}`,
		`{[risk][network]["wired"][10]}`,
		`{[risk][posture]["rooted"][10]}`,
		`{[risk][posture]["patch-age>-1"][10]}`,
		`{[risk][travel]["fast"][10]}`,
		`{[risk][travel][">-5"][10]}`,
		`{[risk][network]["trusted"][1001]}`,
		`{[risk][network]["trusted"][-1001]}`,
		`{[risk][network]["trusted"][x]}`,
		`{[risk][network]["trusted"]}`,
		`{[threshold][maybe][10]}`,
		`{[threshold][warn][0]}`,
		`{[threshold][block][-5]}`,
		`{[threshold][block][10][extra]}`,
	}
	for _, raw := range bad {
		if r, err := ParseRule(raw); err == nil {
			t.Errorf("ParseRule(%q) accepted as %+v, want error", raw, r)
		}
	}
}

func TestTimeOfVirtual(t *testing.T) {
	cases := []struct {
		d      time.Duration
		minute uint16
		day    uint8
	}{
		{0, 0, 0},                                   // Monday 00:00
		{9 * time.Hour, 9 * 60, 0},                  // Monday 09:00
		{24 * time.Hour, 0, 1},                      // Tuesday 00:00
		{5*24*time.Hour + 13*time.Hour, 13 * 60, 5}, // Saturday 13:00
		{7 * 24 * time.Hour, 0, 0},                  // next Monday
	}
	for _, c := range cases {
		m, w := TimeOfVirtual(c.d)
		if m != c.minute || w != c.day {
			t.Errorf("TimeOfVirtual(%v) = (%d, %d), want (%d, %d)", c.d, m, w, c.minute, c.day)
		}
	}
}

func TestPredicateMatching(t *testing.T) {
	cases := []struct {
		pred  Predicate
		spec  string
		fc    FlowContext
		match bool
	}{
		// Time windows, including the midnight wrap.
		{PredTime, "09:00-17:00", FlowContext{MinuteOfDay: 10 * 60}, true},
		{PredTime, "09:00-17:00", FlowContext{MinuteOfDay: 17 * 60}, false}, // [start,end)
		{PredTime, "09:00-17:00", FlowContext{MinuteOfDay: 8 * 60}, false},
		{PredTime, "22:00-06:00", FlowContext{MinuteOfDay: 23 * 60}, true},
		{PredTime, "22:00-06:00", FlowContext{MinuteOfDay: 3 * 60}, true},
		{PredTime, "22:00-06:00", FlowContext{MinuteOfDay: 12 * 60}, false},
		{PredTime, "weekend", FlowContext{Weekday: 5}, true},
		{PredTime, "weekend", FlowContext{Weekday: 4}, false},
		{PredTime, "weekday", FlowContext{Weekday: 4}, true},
		{PredTime, "weekday", FlowContext{Weekday: 6}, false},
		{PredTime, "weekend 22:00-06:00", FlowContext{Weekday: 5, MinuteOfDay: 23 * 60}, true},
		{PredTime, "weekend 22:00-06:00", FlowContext{Weekday: 2, MinuteOfDay: 23 * 60}, false},
		{PredTime, "weekend 22:00-06:00", FlowContext{Weekday: 5, MinuteOfDay: 12 * 60}, false},
		// Network trust class.
		{PredNetwork, "trusted", FlowContext{Device: DeviceContext{Network: NetTrusted}}, true},
		{PredNetwork, "trusted", FlowContext{Device: DeviceContext{Network: NetCellular}}, false},
		{PredNetwork, "unknown", FlowContext{}, true}, // zero value is unknown
		// Posture.
		{PredPosture, "screen-locked", FlowContext{Device: DeviceContext{ScreenLocked: true}}, true},
		{PredPosture, "screen-locked", FlowContext{}, false},
		{PredPosture, "screen-unlocked", FlowContext{}, true},
		{PredPosture, "patch-age>90", FlowContext{Device: DeviceContext{PatchAgeDays: 91}}, true},
		{PredPosture, "patch-age>90", FlowContext{Device: DeviceContext{PatchAgeDays: 90}}, false},
		// Travel.
		{PredTravel, "impossible", FlowContext{Device: DeviceContext{VelocityKmh: 901}}, true},
		{PredTravel, "impossible", FlowContext{Device: DeviceContext{VelocityKmh: 900}}, false},
		{PredTravel, ">300", FlowContext{Device: DeviceContext{VelocityKmh: 301}}, true},
		{PredTravel, ">300", FlowContext{Device: DeviceContext{VelocityKmh: 250}}, false},
	}
	for _, c := range cases {
		p, err := compilePredicate(c.pred, c.spec)
		if err != nil {
			t.Fatalf("compilePredicate(%v, %q): %v", c.pred, c.spec, err)
		}
		fc := c.fc
		if got := p.matches(&fc); got != c.match {
			t.Errorf("%v %q vs %+v = %v, want %v", c.pred, c.spec, c.fc, got, c.match)
		}
	}
}

func TestRiskScoringThresholds(t *testing.T) {
	e := mustEngine(t, contextDoc)
	if ctx := e.compiled.Load().ctx; ctx == nil || ctx.warnAt != 40 || ctx.blockAt != 100 {
		t.Fatalf("context program = %+v, want thresholds (40, 100)", ctx)
	}
	var h dex.TruncatedHash
	stack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}

	// Trusted network on a weekday afternoon: negative weight, clean allow.
	trusted := &FlowContext{Device: DeviceContext{Network: NetTrusted}, MinuteOfDay: 14 * 60, Weekday: 2}
	d := evaluateFlow(e, h, stack, trusted)
	if d.Verdict != VerdictAllow || d.Risk.Warn || !d.Risk.Applied || d.Risk.Score != -30 {
		t.Fatalf("trusted: %+v", d)
	}

	// Unknown network alone (60) reaches warn (40) but not block (100).
	unknown := &FlowContext{MinuteOfDay: 14 * 60, Weekday: 2}
	d = evaluateFlow(e, h, stack, unknown)
	if d.Verdict != VerdictAllow || !d.Risk.Warn || d.Risk.Score != 60 {
		t.Fatalf("unknown: %+v", d)
	}

	// Unknown network + night window + locked screen = 60+35+15 = 110 ≥ 100.
	risky := &FlowContext{
		Device:      DeviceContext{ScreenLocked: true},
		MinuteOfDay: 23 * 60,
		Weekday:     2,
	}
	d = evaluateFlow(e, h, stack, risky)
	if d.Verdict != VerdictDrop || !d.Risk.Blocked || d.Risk.Score != 110 {
		t.Fatalf("risky: %+v", d)
	}
	if d.Reason() != "risk score 110 >= block threshold 100" {
		t.Fatalf("block reason %q does not cite the score and the threshold", d.Reason())
	}

	// Impossible travel alone blocks even on a trusted network at noon:
	// 100 - 30 = 70 < 100... so add the weekend weight: 100-30+20 = 90 < 100,
	// still short — use unknown network: 100+60 = 160.
	traveling := &FlowContext{Device: DeviceContext{VelocityKmh: 1200}, MinuteOfDay: 12 * 60, Weekday: 2}
	d = evaluateFlow(e, h, stack, traveling)
	if d.Verdict != VerdictDrop || !d.Risk.Blocked || d.Risk.Score != 160 {
		t.Fatalf("traveling: %+v", d)
	}

	evals, warns, blocks := count(e, "bp_context_evaluations_total"), count(e, "bp_context_warns_total"), count(e, "bp_context_blocks_total")
	if evals != 4 || warns != 1 || blocks != 2 {
		t.Fatalf("risk evaluations/warns/blocks = %d/%d/%d, want 4/1/2", evals, warns, blocks)
	}
}

func TestRiskOnlyTightensAllows(t *testing.T) {
	// An access deny never consults the risk program, and a nil context
	// (call-stack-only caller) never applies risk.
	e := mustEngine(t, contextDoc)
	var h dex.TruncatedHash
	ad := []dex.Signature{{Package: "com/flurry/sdk", Class: "Agent", Name: "beacon", Proto: "()V"}}
	risky := &FlowContext{Device: DeviceContext{VelocityKmh: 9000}}
	d := evaluateFlow(e, h, ad, risky)
	if d.Verdict != VerdictDrop || d.Risk.Applied || d.Rule == nil {
		t.Fatalf("access deny should decide before risk: %+v", d)
	}
	clean := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	d = evaluateFlow(e, h, clean, nil)
	if d.Verdict != VerdictAllow || d.Risk.Applied {
		t.Fatalf("nil context must skip risk: %+v", d)
	}
	if n := count(e, "bp_context_evaluations_total"); n != 0 {
		t.Fatalf("risk evaluations = %d, want 0 (deny and nil-context paths skip risk)", n)
	}
}

func TestThresholdDefaultsAndLastWins(t *testing.T) {
	// No explicit thresholds: defaults apply.
	e := mustEngine(t, `{[risk][network]["unknown"][60]}`)
	if ctx := e.compiled.Load().ctx; ctx.warnAt != DefaultWarnRisk || ctx.blockAt != DefaultBlockRisk {
		t.Fatalf("default thresholds = (%d, %d)", ctx.warnAt, ctx.blockAt)
	}
	var h dex.TruncatedHash
	stack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	d := evaluateFlow(e, h, stack, &FlowContext{})
	if d.Verdict != VerdictAllow || !d.Risk.Warn { // 60 ≥ 50 default warn
		t.Fatalf("default warn: %+v", d)
	}

	// The last threshold rule of each kind wins.
	e = mustEngine(t, `
{[risk][network]["unknown"][60]}
{[threshold][block][200]}
{[threshold][block][55]}
`)
	d = evaluateFlow(e, h, stack, &FlowContext{})
	if d.Verdict != VerdictDrop || !d.Risk.Blocked {
		t.Fatalf("last block threshold (55) should drop score 60: %+v", d)
	}

	// Threshold rules without risk rules leave the program inactive.
	e = mustEngine(t, `{[threshold][block][1]}`)
	if e.compiled.Load().ctx != nil {
		t.Fatal("thresholds alone must not activate the context program")
	}
	d = evaluateFlow(e, h, stack, &FlowContext{})
	if d.Verdict != VerdictAllow || d.Risk.Applied {
		t.Fatalf("inactive program: %+v", d)
	}
}

func TestDegradedOverridesRisk(t *testing.T) {
	e := mustEngine(t, contextDoc)
	if err := e.SetDegraded(VerdictAllow, "fail-open"); err != nil {
		t.Fatal(err)
	}
	var h dex.TruncatedHash
	stack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	d := evaluateFlow(e, h, stack, &FlowContext{Device: DeviceContext{VelocityKmh: 9000}})
	if d.Verdict != VerdictAllow || d.Risk.Applied {
		t.Fatalf("degraded override must bypass risk: %+v", d)
	}
}

// TestRiskRuleContributesWeight: a flow matching only the trusted-network
// predicate scores that rule's weight, and the score alone decides.
func TestRiskRuleContributesWeight(t *testing.T) {
	e := mustEngine(t, contextDoc)
	var h dex.TruncatedHash
	stack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	d := evaluateFlow(e, h, stack, &FlowContext{Device: DeviceContext{Network: NetTrusted}, MinuteOfDay: 14 * 60, Weekday: 2})
	// {[risk][network]["trusted"][-30]} is the only contextDoc predicate that
	// holds on a trusted network on a Wednesday afternoon.
	if !d.Risk.Applied || d.Risk.Score != -30 || d.Rule != nil {
		t.Fatalf("trusted-network risk rule: %+v", d)
	}
}

func TestSetRulesSwapsContextProgram(t *testing.T) {
	e := mustEngine(t, `{[deny][library]["com/flurry"]}`)
	if e.compiled.Load().ctx != nil {
		t.Fatal("context active without risk rules")
	}
	gen := e.Generation()
	rules, err := ParsePolicyString(contextDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetRules(rules); err != nil {
		t.Fatal(err)
	}
	if e.compiled.Load().ctx == nil {
		t.Fatal("context inactive after SetRules with risk rules")
	}
	if e.Generation() == gen {
		t.Fatal("SetRules did not bump the generation")
	}
}

// TestAccessAndRiskDecideFromOneSnapshot: the rule set Access loads is the
// one that decides, whatever SetRules runs before the flow is scored. An
// Access reached under a risk set reads the context, and a swap to a
// context-free set cannot take the risk score away; an Access reached under
// a context-free set reads none, and a swap to a risk set cannot add one.
func TestAccessAndRiskDecideFromOneSnapshot(t *testing.T) {
	parse := func(doc string) []Rule {
		t.Helper()
		rules, err := ParsePolicyString(doc)
		if err != nil {
			t.Fatal(err)
		}
		return rules
	}
	risky := parse(`
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`)
	plain := parse(`{[deny][library]["com/flurry"]}`)
	var h dex.TruncatedHash
	stack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	unknown := &FlowContext{Device: DeviceContext{Network: NetUnknown}}

	e := mustEngine(t, "")
	if err := e.SetRules(risky); err != nil {
		t.Fatal(err)
	}
	a := e.Access(h, stack)
	if err := e.SetRules(plain); err != nil {
		t.Fatal(err)
	}
	if e.compiled.Load().ctx != nil {
		t.Fatal("the swap did not land")
	}
	d := a.Decide(a.Risk(unknown))
	if !a.ReadsContext() || d.Verdict != VerdictDrop || !d.Risk.Blocked || d.Risk.Score != 100 ||
		d.Reason() != "risk score 100 >= block threshold 100" {
		t.Fatalf("risk set swapped out before scoring: reads context %v, %+v; want the risk set's block", a.ReadsContext(), d)
	}
	a = e.Access(h, stack)
	if err := e.SetRules(risky); err != nil {
		t.Fatal(err)
	}
	if d = a.Decide(a.Risk(unknown)); a.ReadsContext() || d.Verdict != VerdictAllow || d.Risk.Applied {
		t.Fatalf("context-free set: reads context %v, %+v; want an allow without a score", a.ReadsContext(), d)
	}
	// A risk set's Access with no context to give scores none.
	a = e.Access(h, stack)
	if d = a.Decide(a.Risk(nil)); !a.ReadsContext() || d.Verdict != VerdictAllow || d.Risk.Applied {
		t.Fatalf("risk set without a context: %+v", d)
	}
}

// TestRiskRuleCountFitsScore: the compiler admits as many risk rules as an
// int32 score can sum at MaxRiskWeight each, and not one more.
func TestRiskRuleCountFitsScore(t *testing.T) {
	most := math.MaxInt32 / MaxRiskWeight
	if int64(most)*MaxRiskWeight > math.MaxInt32 || int64(most+1)*MaxRiskWeight <= math.MaxInt32 {
		t.Fatalf("%d rules is not the int32 bound", most)
	}
	if err := checkRiskRules(most); err != nil {
		t.Fatalf("%d risk rules rejected: %v", most, err)
	}
	if err := checkRiskRules(most + 1); !errors.Is(err, ErrBadRule) {
		t.Fatalf("%d risk rules: err = %v, want ErrBadRule", most+1, err)
	}
}
