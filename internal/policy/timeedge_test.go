package policy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"borderpatrol/internal/dex"
)

// This file pins what a cached verdict leans on once it carries its own
// expiry: Risk.EdgeIn is exactly the distance to the first minute at
// which some time predicate of the rule set matches differently. Served any
// longer, a verdict would be stale; re-evaluated any sooner, a flow would be
// scored more often than its context changes.

// maxEdgeSpecs bounds the predicates of one checked rule set; each gets its
// own power-of-two weight, so a score names the exact set that matched.
const maxEdgeSpecs = 8

// minuteContext is the flow context of minute m of the virtual week.
func minuteContext(m int) *FlowContext {
	m %= minutesPerWeek
	return &FlowContext{MinuteOfDay: uint16(m % minutesPerDay), Weekday: uint8(m / minutesPerDay)}
}

// checkTimeEdges builds an engine from the time specs compilePredicate
// accepts (the rest are skipped), scores minute now of the week, and holds
// the decision to the contract: the score of every minute in
// [now, now+EdgeIn) equals the score at now, and the minute after is an
// edge — it scores differently than the minute before it. EdgeIn == 0
// must mean the score is the same all week.
func checkTimeEdges(t *testing.T, specs []string, now int) {
	t.Helper()
	var rules []Rule
	for _, spec := range specs {
		if _, err := compilePredicate(PredTime, spec); err != nil || len(rules) == maxEdgeSpecs {
			continue
		}
		rules = append(rules, Rule{Kind: KindRisk, Pred: PredTime, Target: spec, Weight: 1 << len(rules)})
	}
	if len(rules) == 0 {
		return
	}
	// Warn/block out of reach: only the score is under test.
	rules = append(rules, Rule{Kind: KindThreshold, Thresh: ThresholdBlock, Weight: MaxRiskThreshold})
	e, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		t.Fatalf("compile %q: %v", specs, err)
	}
	score := func(m int) int32 {
		d := evaluateFlow(e, dex.TruncatedHash{}, nil, minuteContext(m))
		if !d.Risk.Applied {
			t.Fatalf("%q: risk program did not run", specs)
		}
		return d.Risk.Score
	}
	now %= minutesPerWeek
	d := evaluateFlow(e, dex.TruncatedHash{}, nil, minuteContext(now))
	in := int(d.Risk.EdgeIn)
	if in < 0 || in > minutesPerWeek {
		t.Fatalf("%q at minute %d: EdgeIn = %d", specs, now, in)
	}
	span := in
	if in == 0 {
		span = minutesPerWeek // no edge: the score may never change
	}
	for m := now + 1; m < now+span; m++ {
		if got := score(m); got != d.Risk.Score {
			t.Fatalf("%q at minute %d: score %d, but %d at minute %d — before the edge reported %d minutes out",
				specs, now, d.Risk.Score, got, m%minutesPerWeek, in)
		}
	}
	if in > 0 && score(now+in) == score(now+in-1) {
		t.Fatalf("%q at minute %d: minute %d (in %d) is not an edge of any predicate", specs, now, (now+in)%minutesPerWeek, in)
	}
}

// randTimeSpec draws a time spec: a window (plain, midnight-wrapping or
// degenerate), a day keyword, or both.
func randTimeSpec(rng *rand.Rand) string {
	clock := func() int {
		if rng.Intn(4) == 0 {
			return []int{0, 1, 6 * 60, 22 * 60, minutesPerDay - 1}[rng.Intn(5)]
		}
		return rng.Intn(minutesPerDay)
	}
	a, b := clock(), clock()
	if rng.Intn(8) == 0 {
		b = a
	}
	window := fmt.Sprintf("%02d:%02d-%02d:%02d", a/60, a%60, b/60, b%60)
	switch rng.Intn(4) {
	case 0:
		return []string{"weekday", "weekend"}[rng.Intn(2)]
	case 1:
		return []string{"weekday ", "weekend "}[rng.Intn(2)] + window
	default:
		return window
	}
}

// TestTimeEdgesProperty runs the contract over random rule sets of one to
// four time predicates at random minutes, week boundaries included.
func TestTimeEdgesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < 300; i++ {
		specs := make([]string, 1+rng.Intn(4))
		for j := range specs {
			specs[j] = randTimeSpec(rng)
		}
		now := rng.Intn(minutesPerWeek)
		if i%10 == 0 {
			now = minutesPerWeek - 1 - rng.Intn(3) // Sunday night, about to wrap
		}
		checkTimeEdges(t, specs, now)
	}
}

// TestTimeEdgesOfKnownSpecs reads the compiled edges of specs small enough
// to work out by hand.
func TestTimeEdgesOfKnownSpecs(t *testing.T) {
	const sat, sun = 5 * minutesPerDay, 6 * minutesPerDay
	for _, tc := range []struct {
		spec string
		want []int32
	}{
		{"00:00-00:00", nil}, // a == b: all day, every day
		{"weekend", []int32{0, sat}},
		{"weekday 09:00-09:00", []int32{0, sat}},
		// Saturday and Sunday before 06:00 and from 22:00; Sunday's midnight
		// falls inside the window, Monday's ends it.
		{"weekend 22:00-06:00", []int32{0, sat, sat + 6*60, sat + 22*60, sun + 6*60, sun + 22*60}},
	} {
		p, err := compilePredicate(PredTime, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := timeEdges([]compiledPredicate{p}); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%q: edges %v, want %v", tc.spec, got, tc.want)
		}
	}
	if got := len(timeEdges([]compiledPredicate{{pred: PredTime, days: dayMaskAll, a: 22 * 60, b: 6 * 60}})); got != 14 {
		t.Errorf("nightly window: %d edges, want 14", got)
	}
	if got := mustEngine(t, contextDoc).compiled.Load().ctx.edges; len(got) != 14+2 {
		t.Errorf("contextDoc (nightly window and weekend): %d edges %v, want 16", len(got), got)
	}
	e := mustEngine(t, `{[risk][network]["unknown"][60]}`)
	if d := evaluateFlow(e, dex.TruncatedHash{}, nil, minuteContext(100)); !d.Risk.Applied || d.Risk.EdgeIn != 0 {
		t.Errorf("no time predicate: %+v, want a risk decision that never lapses", d)
	}
}

// FuzzTimeEdges runs the contract over arbitrary ';'-separated time specs
// and minutes of the week. The committed corpus (testdata/fuzz/FuzzTimeEdges)
// holds a plain and a midnight-wrapping window, a == b, the day keywords
// with and without a window, several predicates at once, and Sunday 23:59
// wrapping into Monday.
func FuzzTimeEdges(f *testing.F) {
	f.Add("22:00-06:00", uint16(21*60+59))
	f.Add("weekday 09:00-17:30;weekend;22:00-06:00", uint16(minutesPerWeek-1))
	f.Fuzz(func(t *testing.T, specs string, minute uint16) {
		checkTimeEdges(t, strings.Split(specs, ";"), int(minute))
	})
}
