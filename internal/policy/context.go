package policy

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file extends the paper's call-stack policy grammar with the
// contextual dimension its title promises: risk-scored predicates over
// device and environment context, in the style of ConXsense's
// context-classification model and Kang et al.'s in-network BYOD policy
// compilation. Two new rule forms join the access rules:
//
//	{[risk][<predicate>]["<spec>"][<weight>]}
//	{[threshold][(warn|block)][<value>]}
//
// Predicates:
//
//	time     "HH:MM-HH:MM" window (wraps midnight), "weekday", "weekend",
//	         or a day keyword followed by a window ("weekend 22:00-06:00")
//	network  "trusted" | "cellular" | "unknown" — the device's network
//	         trust class (trusted SSID vs cellular vs unknown AP)
//	posture  "screen-locked" | "screen-unlocked" | "patch-age>N" (days)
//	travel   "impossible" (> ImpossibleTravelKmh) | ">N" km/h — velocity
//	         derived from successive location observations
//
// Risk semantics: the score of a flow is the sum of the weights of every
// matching risk predicate (weights may be negative — a trusted network can
// subtract risk). If the score reaches the block threshold the flow is
// dropped; if it reaches the warn threshold the flow is admitted with the
// Risk's Warn flag set (surfaced to audit, never a third verdict).
// Thresholds default to DefaultWarnRisk/DefaultBlockRisk; the last explicit
// {[threshold]...} rule of each kind wins. A warn threshold at or above the
// block threshold is legal — block simply takes precedence and warn is
// unreachable.
//
// Performance contract: context is evaluated once per flow, at
// SYN/cache-miss time, and the resulting verdict is what the flow table
// caches. That verdict is valid for policy generation × database generation
// × that device's context version × until the next time edge: the first
// three make the caller's cache generation; the clock moves by itself, so
// the program knows the minutes of the week at which a time predicate's
// match can change and every scored Risk says how far off the next one
// is (Risk.EdgeIn; never, without a time predicate). Risk rules only ever
// tighten an allow (an access deny needs no second opinion), so the compiled
// context program runs after — and only after — the access rules admit the
// flow.

// Kind discriminates the rule forms of the extended grammar. The zero
// value is KindAccess, so every pre-contextual Rule literal keeps its
// meaning unchanged.
type Kind int

// Rule kinds.
const (
	// KindAccess is a classic {[action][level][target]} call-stack rule.
	KindAccess Kind = iota
	// KindRisk is a contextual risk predicate contributing a weight.
	KindRisk
	// KindThreshold sets the warn or block risk threshold.
	KindThreshold
)

// Predicate is the contextual dimension a risk rule tests.
type Predicate int

// Predicates.
const (
	// PredTime matches time-of-day windows and weekday/weekend.
	PredTime Predicate = iota + 1
	// PredNetwork matches the device's network trust class.
	PredNetwork
	// PredPosture matches device posture (screen lock, patch age).
	PredPosture
	// PredTravel matches location-derived velocity (impossible travel).
	PredTravel
)

// String names the predicate in grammar syntax.
func (p Predicate) String() string { return predicateWords.name(int(p)) }

// ParsePredicate parses a grammar predicate keyword.
func ParsePredicate(s string) (Predicate, error) {
	v, err := predicateWords.parse(s)
	return Predicate(v), err
}

// ThresholdKind selects which risk threshold a threshold rule sets.
type ThresholdKind int

// Threshold kinds.
const (
	// ThresholdWarn sets the warn threshold (admit, flag Risk.Warn).
	ThresholdWarn ThresholdKind = iota + 1
	// ThresholdBlock sets the block threshold (drop the flow).
	ThresholdBlock
)

// String names the threshold kind in grammar syntax.
func (t ThresholdKind) String() string { return thresholdWords.name(int(t)) }

// ParseThresholdKind parses a grammar threshold keyword.
func ParseThresholdKind(s string) (ThresholdKind, error) {
	v, err := thresholdWords.parse(s)
	return ThresholdKind(v), err
}

// NetworkClass is the trust classification of the network a device is
// currently attached to. The zero value is NetUnknown: an unprovisioned
// device is treated as being on an unknown network, the least trusted
// class, so context defaults are fail-safe.
type NetworkClass uint8

// Network trust classes.
const (
	// NetUnknown is an unrecognized access point or unset context.
	NetUnknown NetworkClass = iota
	// NetTrusted is a provisioned corporate/home SSID.
	NetTrusted
	// NetCellular is the mobile carrier network.
	NetCellular
)

// String names the network class in grammar syntax.
func (n NetworkClass) String() string { return networkWords.name(int(n)) }

// ParseNetworkClass parses a network trust class keyword.
func ParseNetworkClass(s string) (NetworkClass, error) {
	v, err := networkWords.parse(s)
	return NetworkClass(v), err
}

// Contextual limits and defaults.
const (
	// MaxRiskWeight bounds |weight| of one risk rule.
	MaxRiskWeight = 1000
	// MaxRiskThreshold bounds explicit warn/block threshold values.
	MaxRiskThreshold = 1000000
	// DefaultWarnRisk is the warn threshold when risk rules are present
	// but no {[threshold][warn][...]} rule is.
	DefaultWarnRisk = 50
	// DefaultBlockRisk is the block threshold when risk rules are present
	// but no {[threshold][block][...]} rule is.
	DefaultBlockRisk = 100
	// ImpossibleTravelKmh is the velocity the "impossible" travel spec
	// tests against: faster than commercial air travel between two
	// location observations means the credential moved, not the device.
	ImpossibleTravelKmh = 900
)

// DeviceContext is the per-device half of a flow's context: attributes
// that change when the device moves, locks, or updates — everything except
// time. The zero value is the least-trusted posture (unknown network,
// screen unlocked, patch age and velocity zero).
type DeviceContext struct {
	// Network is the trust class of the attached network.
	Network NetworkClass
	// ScreenLocked reports whether the device screen is locked — a locked
	// screen with active traffic suggests daemon (not user) activity.
	ScreenLocked bool
	// PatchAgeDays is the age of the device's security patch level.
	PatchAgeDays int32
	// VelocityKmh is the apparent velocity between the last two location
	// observations; > ImpossibleTravelKmh indicates impossible travel.
	VelocityKmh int32
}

// FlowContext is the full context a flow is scored against at SYN time:
// the device context plus the virtual wall-clock position.
type FlowContext struct {
	// Device is the per-device context snapshot.
	Device DeviceContext
	// MinuteOfDay is the virtual time of day, 0..1439.
	MinuteOfDay uint16
	// Weekday is the virtual day of week, 0=Monday .. 6=Sunday.
	Weekday uint8
}

const minutesPerDay, minutesPerWeek = 24 * 60, 7 * 24 * 60

// TimeOfVirtual maps a virtual-clock reading to (minute-of-day, weekday).
// The virtual epoch (t=0) is defined as Monday 00:00, so weekday 5 and 6
// are the weekend.
func TimeOfVirtual(d time.Duration) (minute uint16, weekday uint8) {
	tot := int64(d / time.Minute)
	m := tot % minutesPerDay
	if m < 0 {
		m += minutesPerDay
	}
	w := (tot / minutesPerDay) % 7
	if w < 0 {
		w += 7
	}
	return uint16(m), uint8(w)
}

// Posture / travel sub-modes of a compiled predicate.
const (
	modeNone uint8 = iota
	modeScreenLocked
	modeScreenUnlocked
	modePatchAge
)

const (
	dayMaskAll     uint8 = 0x7f
	dayMaskWeekday uint8 = 0x1f // Monday..Friday
	dayMaskWeekend uint8 = 0x60 // Saturday, Sunday
)

// compiledPredicate is one risk rule with its spec parsed ahead of
// enforcement, so scoring a flow is pure field comparisons.
type compiledPredicate struct {
	pred   Predicate
	mode   uint8
	weight int
	// time: window [a, b) in minutes of day (wraps midnight when a > b;
	// a == b means all day); days is the weekday bitmask (bit 0 = Monday).
	// posture (modePatchAge): a is the patch-age threshold in days.
	// travel: a is the exclusive velocity threshold in km/h.
	a, b int32
	days uint8
	net  NetworkClass
}

// matches reports whether the predicate holds for the flow context.
func (p *compiledPredicate) matches(fc *FlowContext) bool {
	switch p.pred {
	case PredTime:
		if p.days&(1<<fc.Weekday) == 0 {
			return false
		}
		if p.a == p.b {
			return true // no window (or degenerate window): all day
		}
		m := int32(fc.MinuteOfDay)
		if p.a < p.b {
			return m >= p.a && m < p.b
		}
		return m >= p.a || m < p.b // wraps midnight
	case PredNetwork:
		return fc.Device.Network == p.net
	case PredPosture:
		switch p.mode {
		case modeScreenLocked:
			return fc.Device.ScreenLocked
		case modeScreenUnlocked:
			return !fc.Device.ScreenLocked
		case modePatchAge:
			return fc.Device.PatchAgeDays > p.a
		}
		return false
	case PredTravel:
		return fc.Device.VelocityKmh > p.a
	default:
		return false
	}
}

// compilePredicate parses a risk rule's spec for its predicate, for
// Rule.parse: the one parse serves both Validate and the compiler.
func compilePredicate(pred Predicate, spec string) (compiledPredicate, error) {
	p := compiledPredicate{pred: pred, days: dayMaskAll}
	switch pred {
	case PredTime:
		parts := strings.Fields(spec)
		if len(parts) == 0 || len(parts) > 2 {
			return p, fmt.Errorf("%w: time spec %q (want \"HH:MM-HH:MM\", \"weekday\", \"weekend\", or day + window)", ErrBadRule, spec)
		}
		sawDays, sawWindow := false, false
		for _, part := range parts {
			switch part {
			case "weekday":
				if sawDays {
					return p, fmt.Errorf("%w: time spec %q repeats day keyword", ErrBadRule, spec)
				}
				p.days, sawDays = dayMaskWeekday, true
			case "weekend":
				if sawDays {
					return p, fmt.Errorf("%w: time spec %q repeats day keyword", ErrBadRule, spec)
				}
				p.days, sawDays = dayMaskWeekend, true
			default:
				if sawWindow {
					return p, fmt.Errorf("%w: time spec %q repeats window", ErrBadRule, spec)
				}
				start, end, err := parseWindow(part)
				if err != nil {
					return p, err
				}
				p.a, p.b, sawWindow = start, end, true
			}
		}
	case PredNetwork:
		n, err := ParseNetworkClass(spec)
		if err != nil {
			return p, err
		}
		p.net = n
	case PredPosture:
		switch {
		case spec == "screen-locked":
			p.mode = modeScreenLocked
		case spec == "screen-unlocked":
			p.mode = modeScreenUnlocked
		case strings.HasPrefix(spec, "patch-age>"):
			days, err := strconv.Atoi(spec[len("patch-age>"):])
			if err != nil || days < 0 || days > 1<<20 {
				return p, fmt.Errorf("%w: posture spec %q: bad patch age", ErrBadRule, spec)
			}
			p.mode, p.a = modePatchAge, int32(days)
		default:
			return p, fmt.Errorf("%w: posture spec %q (want \"screen-locked\", \"screen-unlocked\", or \"patch-age>N\")", ErrBadRule, spec)
		}
	case PredTravel:
		switch {
		case spec == "impossible":
			p.a = ImpossibleTravelKmh
		case strings.HasPrefix(spec, ">"):
			kmh, err := strconv.Atoi(spec[1:])
			if err != nil || kmh < 0 || kmh > 1<<20 {
				return p, fmt.Errorf("%w: travel spec %q: bad velocity", ErrBadRule, spec)
			}
			p.a = int32(kmh)
		default:
			return p, fmt.Errorf("%w: travel spec %q (want \"impossible\" or \">N\")", ErrBadRule, spec)
		}
	default:
		return p, fmt.Errorf("%w: no predicate", ErrBadRule)
	}
	return p, nil
}

// parseWindow parses "HH:MM-HH:MM" into start/end minutes of day.
func parseWindow(s string) (start, end int32, err error) {
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return 0, 0, fmt.Errorf("%w: time window %q (want \"HH:MM-HH:MM\")", ErrBadRule, s)
	}
	start, err = parseClock(s[:dash])
	if err != nil {
		return 0, 0, err
	}
	end, err = parseClock(s[dash+1:])
	if err != nil {
		return 0, 0, err
	}
	return start, end, nil
}

// parseClock parses "HH:MM" into minutes of day.
func parseClock(s string) (int32, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, fmt.Errorf("%w: clock %q (want \"HH:MM\")", ErrBadRule, s)
	}
	h, err1 := strconv.Atoi(s[:colon])
	m, err2 := strconv.Atoi(s[colon+1:])
	if err1 != nil || err2 != nil || h < 0 || h > 23 || m < 0 || m > 59 ||
		len(s[:colon]) != 2 || len(s[colon+1:]) != 2 {
		return 0, fmt.Errorf("%w: clock %q (want \"HH:MM\", 00:00-23:59)", ErrBadRule, s)
	}
	return int32(h*60 + m), nil
}

// contextProgram is the compiled contextual half of a rule set: every risk
// predicate pre-parsed plus the effective thresholds. It is nil on
// compiledRules when the document has no risk rules, making the contextual
// feature literally free for call-stack-only policies.
type contextProgram struct {
	preds   []compiledPredicate
	warnAt  int
	blockAt int
	// edges are the ascending minutes of the week (0 = Monday 00:00) at which
	// some time predicate matches differently than the minute before (none
	// when no match depends on the clock); between two of them a device
	// context's score is constant.
	edges []int32
	// counts are the outcome counters of the engine that compiled it.
	counts *riskCounts
}

// checkRiskRules rejects a rule set with more risk rules than a score can
// sum: |score| ≤ MaxRiskWeight × n must fit the int32 a flow's Risk and
// its cache cell store.
func checkRiskRules(n int) error {
	if n > math.MaxInt32/MaxRiskWeight {
		return fmt.Errorf("%w: %d risk rules; their score would overflow int32", ErrBadRule, n)
	}
	return nil
}

// timeEdges derives a program's edges from matches itself, probing every
// minute of the week at compile time, so they cannot disagree with what the
// predicates do (day masks and midnight-wrapping windows included).
func timeEdges(preds []compiledPredicate) (edges []int32) {
	preds = slices.DeleteFunc(slices.Clone(preds), func(p compiledPredicate) bool { return p.pred != PredTime })
	prev := FlowContext{MinuteOfDay: minutesPerDay - 1, Weekday: 6}
	for m := int32(0); m < minutesPerWeek; m++ {
		cur := FlowContext{MinuteOfDay: uint16(m % minutesPerDay), Weekday: uint8(m / minutesPerDay)}
		for i := range preds {
			if p := &preds[i]; p.matches(&cur) != p.matches(&prev) {
				edges = append(edges, m)
				break
			}
		}
		prev = cur
	}
	return edges
}

// nextEdgeIn returns the whole minutes from fc's minute of the week to the
// next edge after it (1..minutesPerWeek), or 0 when the program has none.
func (cp *contextProgram) nextEdgeIn(fc *FlowContext) int32 {
	if len(cp.edges) == 0 {
		return 0
	}
	now := int32(fc.Weekday)*minutesPerDay + int32(fc.MinuteOfDay)
	i, _ := slices.BinarySearch(cp.edges, now+1)
	if i == len(cp.edges) {
		return cp.edges[0] + minutesPerWeek - now
	}
	return cp.edges[i] - now
}

// score sums the weights of the matching predicates. Allocation-free: pure
// field comparisons over pre-parsed specs.
func (cp *contextProgram) score(fc *FlowContext) int {
	total := 0
	for i := range cp.preds {
		p := &cp.preds[i]
		if p.matches(fc) {
			total += p.weight
		}
	}
	return total
}
