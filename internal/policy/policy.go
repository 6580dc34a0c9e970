// Package policy implements BorderPatrol's fine-grained policy model
// (paper §IV-B): rules of the form {[action][level][target]} evaluated
// against the app hash and decoded stack-trace signatures carried in each
// packet.
//
// Enforcement levels are ordered by granularity, ℓh < ℓk < ℓc < ℓm (hash,
// library, class, method). For a packet header H with app hash h and stack
// signatures s0..sn, a rule (α, L, θ) applies as:
//
//   - α = deny:  drop the packet if ∃ s ∈ H whose match with θ reaches
//     level ≥ L (blacklisting).
//   - α = allow: admit the packet iff ∀ s ∈ H match θ at level ≥ L
//     (whitelisting).
package policy

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"borderpatrol/internal/dex"
)

// Action is a policy enforcement action α.
type Action int

// Actions.
const (
	// Allow whitelists matching traffic.
	Allow Action = iota + 1
	// Deny blacklists matching traffic.
	Deny
)

// String names the action in grammar syntax.
func (a Action) String() string { return actionWords.name(int(a)) }

// Level is the enforcement granularity L. Higher values are finer.
type Level int

// Levels, ordered ℓh < ℓk < ℓc < ℓm per the paper.
const (
	// LevelHash matches the whole app by its apk hash.
	LevelHash Level = iota + 1
	// LevelLibrary matches a Java package-path prefix ("com/flurry").
	LevelLibrary
	// LevelClass matches a fully-qualified class path prefix.
	LevelClass
	// LevelMethod matches a full method signature.
	LevelMethod
)

// String names the level in grammar syntax.
func (l Level) String() string { return levelWords.name(int(l)) }

// ParseLevel parses a grammar level keyword.
func ParseLevel(s string) (Level, error) {
	v, err := levelWords.parse(s)
	return Level(v), err
}

// ParseAction parses a grammar action keyword.
func ParseAction(s string) (Action, error) {
	v, err := actionWords.parse(s)
	return Action(v), err
}

// keywords are the grammar's names for the values of one enum: names[v]
// is v's keyword ("" for none). A value without one renders as kind(v),
// and a parse error calls the enum what.
type keywords struct {
	kind, what string
	names      []string
}

// The grammar's keyword enums.
var (
	actionWords    = keywords{"action", "action", []string{Allow: "allow", Deny: "deny"}}
	levelWords     = keywords{"level", "level", []string{LevelHash: "hash", LevelLibrary: "library", LevelClass: "class", LevelMethod: "method"}}
	predicateWords = keywords{"predicate", "predicate", []string{PredTime: "time", PredNetwork: "network", PredPosture: "posture", PredTravel: "travel"}}
	thresholdWords = keywords{"threshold", "threshold kind", []string{ThresholdWarn: "warn", ThresholdBlock: "block"}}
	networkWords   = keywords{"network", "network class", []string{NetUnknown: "unknown", NetTrusted: "trusted", NetCellular: "cellular"}}
	verdictWords   = keywords{"verdict", "verdict", []string{VerdictAllow: "allow", VerdictDrop: "drop"}}
)

// name renders v: its keyword, or kind(v).
func (k *keywords) name(v int) string {
	if v >= 0 && v < len(k.names) && k.names[v] != "" {
		return k.names[v]
	}
	return fmt.Sprintf("%s(%d)", k.kind, v)
}

// parse returns the value whose keyword is s.
func (k *keywords) parse(s string) (int, error) {
	for v, name := range k.names {
		if name != "" && name == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: %s %q", ErrBadRule, k.what, s)
}

// Rule is one policy rule. The paper's access form is (α, L, θ); the
// contextual extension adds risk-predicate and threshold forms selected by
// Kind (see context.go). The zero Kind is KindAccess, so pre-contextual
// Rule literals keep their meaning.
type Rule struct {
	Action Action
	Level  Level
	Target string

	// Kind discriminates the rule form; zero is KindAccess.
	Kind Kind
	// Pred is the contextual dimension of a KindRisk rule; Target then
	// holds the predicate spec ("22:00-06:00", "trusted", ...).
	Pred Predicate
	// Weight is the risk contribution of a KindRisk rule (may be
	// negative), or the threshold value of a KindThreshold rule.
	Weight int
	// Thresh selects warn or block for a KindThreshold rule.
	Thresh ThresholdKind
}

// ErrBadRule reports an unparsable rule.
var ErrBadRule = errors.New("policy: malformed rule")

// String renders the rule in the grammar of its kind.
func (r Rule) String() string {
	switch r.Kind {
	case KindRisk:
		return fmt.Sprintf("{[risk][%s][%q][%d]}", r.Pred, r.Target, r.Weight)
	case KindThreshold:
		return fmt.Sprintf("{[threshold][%s][%d]}", r.Thresh, r.Weight)
	default:
		return fmt.Sprintf("{[%s][%s][%q]}", r.Action, r.Level, r.Target)
	}
}

// Validate rejects incomplete or inconsistent rules.
func (r Rule) Validate() error {
	_, err := r.parse()
	return err
}

// ruleTarget is a valid rule's parsed target: a risk rule's predicate, with
// its weight, a hash rule's app hash, or a method rule's signature.
type ruleTarget struct {
	pred compiledPredicate
	hash dex.TruncatedHash
	sig  dex.Signature
}

// parse validates the rule and returns its parsed target, for Validate,
// the document scanner and compileRules: a target is parsed in one place,
// once per compile.
func (r Rule) parse() (ruleTarget, error) {
	var t ruleTarget
	switch r.Kind {
	case KindAccess:
		// Validated below.
	case KindRisk:
		p, err := compilePredicate(r.Pred, r.Target)
		if err != nil {
			return t, err
		}
		if r.Weight < -MaxRiskWeight || r.Weight > MaxRiskWeight {
			return t, fmt.Errorf("%w: risk weight %d outside ±%d", ErrBadRule, r.Weight, MaxRiskWeight)
		}
		p.weight = r.Weight
		t.pred = p
		return t, nil
	case KindThreshold:
		if r.Thresh != ThresholdWarn && r.Thresh != ThresholdBlock {
			return t, fmt.Errorf("%w: %s has no threshold kind", ErrBadRule, r)
		}
		if r.Weight < 1 || r.Weight > MaxRiskThreshold {
			return t, fmt.Errorf("%w: threshold value %d outside 1..%d", ErrBadRule, r.Weight, MaxRiskThreshold)
		}
		return t, nil
	default:
		return t, fmt.Errorf("%w: unknown rule kind %d", ErrBadRule, int(r.Kind))
	}
	if r.Action != Allow && r.Action != Deny {
		return t, fmt.Errorf("%w: %s has no action", ErrBadRule, r)
	}
	if r.Level < LevelHash || r.Level > LevelMethod {
		return t, fmt.Errorf("%w: %s has no level", ErrBadRule, r)
	}
	if r.Target == "" {
		return t, fmt.Errorf("%w: %s has empty target", ErrBadRule, r)
	}
	switch r.Level {
	case LevelHash:
		target := r.Target
		if _, err := hex.DecodeString(target); err == nil && len(target) == 2*dex.HashSize {
			target = target[:2*dex.TruncatedHashSize] // a full hash matches on its prefix
		}
		h, err := dex.ParseTruncatedHash(target)
		if err != nil {
			return t, fmt.Errorf("%w: hash target %q is not a hash", ErrBadRule, r.Target)
		}
		t.hash = h
	case LevelMethod:
		sig, err := dex.ParseSignature(r.Target)
		if err != nil {
			return t, fmt.Errorf("%w: method target: %v", ErrBadRule, err)
		}
		t.sig = sig
	}
	return t, nil
}

// MatchLevel computes ℓθ: the highest level at which the rule's target
// matches the given stack signature (with appHash the packet's app
// identifier). Returns 0 when the target does not match at all.
func (r Rule) MatchLevel(appHash dex.TruncatedHash, sig dex.Signature) Level {
	switch r.Level {
	case LevelHash:
		// Hash targets compare against the packet's app identity; every
		// frame of a matching app "contains" the app at ℓh.
		target := r.Target
		if len(target) > 2*dex.TruncatedHashSize {
			target = target[:2*dex.TruncatedHashSize]
		}
		if strings.EqualFold(target, appHash.String()) {
			return LevelHash
		}
		return 0
	case LevelLibrary:
		if dex.PackagePrefixMatch(r.Target, sig.Package) {
			return LevelLibrary
		}
		return 0
	case LevelClass:
		if dex.PackagePrefixMatch(r.Target, sig.ClassPath()) {
			return LevelClass
		}
		return 0
	case LevelMethod:
		target, err := dex.ParseSignature(r.Target)
		if err != nil {
			return 0
		}
		if target == sig {
			return LevelMethod
		}
		// A merged (debug-stripped) frame over-approximates every overload
		// of the method: it must match a method target that differs only in
		// proto, otherwise stripping debug info would bypass policies.
		if sig.Merged() && target.Package == sig.Package &&
			target.Class == sig.Class && target.Name == sig.Name {
			return LevelMethod
		}
		return 0
	default:
		return 0
	}
}

// Matches reports whether the rule applies to the packet context per the
// paper's semantics: a deny rule matches when ∃ a signature at level ≥ L; an
// allow rule matches when ∀ signatures are at level ≥ L. For hash-level
// rules an empty stack still carries app identity, so the hash decides.
func (r Rule) Matches(appHash dex.TruncatedHash, stack []dex.Signature) bool {
	if r.Level == LevelHash {
		return r.MatchLevel(appHash, dex.Signature{}) >= r.Level
	}
	if len(stack) == 0 {
		return false
	}
	switch r.Action {
	case Deny:
		for _, sig := range stack {
			if r.MatchLevel(appHash, sig) >= r.Level {
				return true
			}
		}
		return false
	case Allow:
		for _, sig := range stack {
			if r.MatchLevel(appHash, sig) < r.Level {
				return false
			}
		}
		return true
	default:
		return false
	}
}
