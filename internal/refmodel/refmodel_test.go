package refmodel

import (
	"testing"
	"time"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/policy"
)

// TestScoreMatchesEngine: at every minute of the week and for a spread of
// device contexts, the compiled risk program scores and decides a flow as
// the model's per-packet reading of the rules does.
func TestScoreMatchesEngine(t *testing.T) {
	rules, err := policy.ParsePolicyString(`
{[risk][time]["22:00-06:00"][35]}
{[risk][time]["weekend"][20]}
{[risk][time]["weekday 09:00-17:00"][-15]}
{[risk][time]["12:00-12:00"][1]}
{[risk][network]["unknown"][40]}
{[risk][network]["cellular"][10]}
{[risk][posture]["screen-locked"][25]}
{[risk][posture]["patch-age>30"][30]}
{[risk][travel]["impossible"][100]}
{[risk][travel][">120"][5]}
{[threshold][warn][45]}
{[threshold][block][90]}
`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := policy.NewEngine(rules, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	devices := []policy.DeviceContext{
		{},
		{Network: policy.NetTrusted, PatchAgeDays: 31},
		{Network: policy.NetCellular, ScreenLocked: true, VelocityKmh: 121},
		{Network: policy.NetTrusted, VelocityKmh: 901, PatchAgeDays: 30},
	}
	warn, block := thresholds(rules)
	seen := map[policy.Verdict]int{}
	for m := 0; m < 7*24*60; m++ {
		now := time.Duration(m) * time.Minute
		for _, dc := range devices {
			fc := policy.FlowContext{Device: dc}
			fc.MinuteOfDay, fc.Weekday = policy.TimeOfVirtual(now)
			a := eng.Access(dex.TruncatedHash{}, nil)
			got := a.Decide(a.Risk(&fc))
			want := Score(rules, dc, now)
			if int(got.Risk.Score) != want || got.Risk.Warn != (want >= warn && want < block) || (got.Verdict == policy.VerdictDrop) != (want >= block) {
				t.Fatalf("minute %d, device %+v: engine %+v, model score %d", m, dc, got, want)
			}
			seen[got.Verdict]++
		}
	}
	if seen[policy.VerdictAllow] == 0 || seen[policy.VerdictDrop] == 0 {
		t.Fatalf("the sweep decided only one way: %v", seen)
	}
}
