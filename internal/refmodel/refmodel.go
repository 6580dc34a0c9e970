// Package refmodel is the executable reference for the enforcer's
// verdicts: a slow, obviously correct function from a packet, a policy, the
// provisioned apps, per-device context and virtual time to what the
// gateway must decide about that packet. It has no cache and no compiled
// index — no flow table, no intern table, no compiled rule set, no
// signature database — so a bug in any of them shows up as a disagreement
// with it:
//   - the tag is decoded afresh for every packet;
//   - the app is found by a linear scan over the provisioned APKs, and
//     each index by position in the app's own signature list;
//   - access rules are tried in order by Evaluate, the engine's original
//     linear scan;
//   - risk rules are parsed and scored for every packet, from the device's
//     entry in a plain map and the clock's reading at that packet.
//
// Connection state (the conntrack's sequence checks) is not modelled.
package refmodel

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// Clock supplies virtual time.
type Clock interface {
	Now() time.Duration
}

// Model decides packets the way the enforcer must. Its fields are its
// whole state; change them between packets to model a policy swap, a newly
// provisioned app, a context change or a move of the clock.
type Model struct {
	// APKs are the provisioned apps.
	APKs []*dex.APK
	// Rules and Default are the policy.
	Rules   []policy.Rule
	Default policy.Verdict
	// AllowUntagged mirrors the enforcer's Config.
	AllowUntagged bool
	// Context is the device-context source's view. Devices absent from it
	// have the zero (least trusted) context.
	Context map[netip.Addr]policy.DeviceContext
	// Clock is virtual time; nil reads Monday 00:00.
	Clock Clock
}

// Verdict is the model's answer for one packet.
type Verdict struct {
	Verdict policy.Verdict
	Cause   enforcer.DropCause
	App     dex.TruncatedHash
	Stack   []dex.Signature
	// RiskApplied, RiskScore and RiskWarn are the risk program's part, when
	// it ran.
	RiskApplied bool
	RiskScore   int
	RiskWarn    bool
}

// Decide returns what the enforcer must decide about pkt.
func (m *Model) Decide(pkt *ipv4.Packet) Verdict {
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		if m.AllowUntagged {
			return Verdict{Verdict: policy.VerdictAllow}
		}
		return Verdict{Verdict: policy.VerdictDrop, Cause: enforcer.DropUntagged}
	}
	tg, err := tag.Decode(opt.Data)
	if err != nil {
		return Verdict{Verdict: policy.VerdictDrop, Cause: enforcer.DropMalformedTag}
	}
	var sigs []dex.Signature
	known := false
	for _, apk := range m.APKs {
		if apk.Truncated() == tg.AppHash {
			sigs, known = apk.Signatures(), true
			break
		}
	}
	if !known {
		return Verdict{Verdict: policy.VerdictDrop, Cause: enforcer.DropUnknownApp, App: tg.AppHash}
	}
	v := Verdict{App: tg.AppHash}
	for _, idx := range tg.Indexes {
		if int(idx) >= len(sigs) {
			return Verdict{Verdict: policy.VerdictDrop, Cause: enforcer.DropBadIndex, App: tg.AppHash}
		}
		v.Stack = append(v.Stack, sigs[idx])
	}
	_, d := Evaluate(m.Rules, m.Default, v.App, v.Stack)
	v.Verdict = d.Verdict
	if v.Verdict == policy.VerdictDrop {
		v.Cause = enforcer.DropPolicy
		return v
	}
	if !hasRisk(m.Rules) {
		return v
	}
	var now time.Duration
	if m.Clock != nil {
		now = m.Clock.Now()
	}
	v.RiskApplied = true
	v.RiskScore = Score(m.Rules, m.Context[pkt.Header.Src], now)
	warn, block := thresholds(m.Rules)
	switch {
	case v.RiskScore >= block:
		v.Verdict, v.Cause = policy.VerdictDrop, enforcer.DropRisk
	case v.RiskScore >= warn:
		v.RiskWarn = true
	}
	return v
}

// Decision is the reference scan's verdict, its decisive rule (nil for the
// default) and the reason the engine must give for it.
type Decision struct {
	Verdict policy.Verdict
	Rule    *policy.Rule
	Reason  string
}

// Evaluate is the policy engine's original linear scan, the specification
// the compiled engine must reproduce: the first access rule (in order) that
// matches decides, otherwise the default applies. It returns the decisive
// rule's index (-1 for the default) and the decision.
func Evaluate(rules []policy.Rule, def policy.Verdict, appHash dex.TruncatedHash, stack []dex.Signature) (int, Decision) {
	for i := range rules {
		r := &rules[i]
		if r.Kind != policy.KindAccess || !r.Matches(appHash, stack) {
			continue
		}
		switch r.Action {
		case policy.Deny:
			return i, Decision{Verdict: policy.VerdictDrop, Rule: r, Reason: fmt.Sprintf("deny rule %s matched", r)}
		case policy.Allow:
			return i, Decision{Verdict: policy.VerdictAllow, Rule: r, Reason: fmt.Sprintf("allow rule %s satisfied by all frames", r)}
		}
	}
	return -1, Decision{Verdict: def, Reason: fmt.Sprintf("default %s", def)}
}

func hasRisk(rules []policy.Rule) bool {
	for _, r := range rules {
		if r.Kind == policy.KindRisk {
			return true
		}
	}
	return false
}

// thresholds returns the warn and block thresholds: the last threshold
// rule of each kind, else the defaults.
func thresholds(rules []policy.Rule) (warn, block int) {
	warn, block = policy.DefaultWarnRisk, policy.DefaultBlockRisk
	for _, r := range rules {
		if r.Kind != policy.KindThreshold {
			continue
		}
		if r.Thresh == policy.ThresholdWarn {
			warn = r.Weight
		} else {
			block = r.Weight
		}
	}
	return warn, block
}

// Score sums the weights of the risk rules that hold for a device in
// context dc at virtual time now (Monday 00:00 is zero).
func Score(rules []policy.Rule, dc policy.DeviceContext, now time.Duration) int {
	minutes := int64(now / time.Minute)
	minute, day := int(minutes%(24*60)), int(minutes/(24*60)%7)
	score := 0
	for _, r := range rules {
		if r.Kind == policy.KindRisk && holds(r, dc, minute, day) {
			score += r.Weight
		}
	}
	return score
}

// holds reads a risk rule's spec as the grammar defines it (see
// policy.Rule) and tests it against the device context and the minute of
// the day and weekday (0 is Monday).
func holds(r policy.Rule, dc policy.DeviceContext, minute, day int) bool {
	spec := r.Target
	switch r.Pred {
	case policy.PredTime:
		ok := true
		for _, part := range strings.Fields(spec) {
			switch part {
			case "weekday":
				ok = ok && day < 5
			case "weekend":
				ok = ok && day >= 5
			default:
				from, to, _ := strings.Cut(part, "-")
				a, b := clock(from), clock(to)
				switch {
				case a < b:
					ok = ok && minute >= a && minute < b
				case a > b: // wraps midnight
					ok = ok && (minute >= a || minute < b)
				}
			}
		}
		return ok
	case policy.PredNetwork:
		return dc.Network.String() == spec
	case policy.PredPosture:
		switch {
		case spec == "screen-locked":
			return dc.ScreenLocked
		case spec == "screen-unlocked":
			return !dc.ScreenLocked
		case strings.HasPrefix(spec, "patch-age>"):
			days, _ := strconv.Atoi(strings.TrimPrefix(spec, "patch-age>"))
			return int(dc.PatchAgeDays) > days
		}
	case policy.PredTravel:
		limit := policy.ImpossibleTravelKmh
		if spec != "impossible" {
			limit, _ = strconv.Atoi(strings.TrimPrefix(spec, ">"))
		}
		return int(dc.VelocityKmh) > limit
	}
	return false
}

// clock reads "HH:MM" as minutes of the day.
func clock(s string) int {
	h, _ := strconv.Atoi(s[:2])
	m, _ := strconv.Atoi(s[3:])
	return h*60 + m
}
