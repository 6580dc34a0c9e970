package policy

import (
	"fmt"
	"strings"

	"borderpatrol/internal/dex"
)

// This file implements the rule-set compiler: the engine's hot path no
// longer scans rules linearly per packet. Compile (or NewEngine, for rules
// a caller holds) compiles the ordered rule list into exact-match maps
// (hash targets, method targets) and a package-prefix index (library and
// class targets), with every rule's target parsed once. Evaluate then runs
// a handful of map probes per frame — O(frames × path segments) instead of
// O(rules × frames) — and reconstructs the paper's first-decisive-rule-wins
// ordering by tracking the minimum original rule index across all matching
// compiled entries.
//
// The same compilation-ahead-of-enforcement idea appears in the P4
// follow-up work (Kang et al., "Programmable In-Network Security for
// Context-aware BYOD Policies"), where policies become switch match
// tables; here the match tables are Go maps.

// methodKey identifies a method irrespective of its proto, for matching
// merged (debug-stripped) frames against method-level deny targets.
type methodKey struct {
	pkg, class, name string
}

// allowMatcher is one compiled non-hash allow rule. Allow rules carry
// universal (∀-frame) semantics, so they cannot be folded into the
// per-frame deny indexes; instead they are kept in original order with
// pre-parsed targets and scanned only while their index could still beat
// the best deny/hash match — for typical blacklist-heavy policies the scan
// never runs.
type allowMatcher struct {
	idx    int
	level  Level
	target string        // library/class package-path target
	sig    dex.Signature // pre-parsed method target
}

// matchesAll reports whether every frame matches the allow target at the
// rule's level (Rule.Matches ∀ semantics, without re-parsing anything).
func (m *allowMatcher) matchesAll(stack []dex.Signature) bool {
	for i := range stack {
		sig := &stack[i]
		switch m.level {
		case LevelLibrary:
			if !dex.PackagePrefixMatch(m.target, sig.Package) {
				return false
			}
		case LevelClass:
			if !classPathPrefixMatch(m.target, sig) {
				return false
			}
		case LevelMethod:
			if !methodTargetMatch(&m.sig, sig) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// methodTargetMatch mirrors Rule.MatchLevel's LevelMethod semantics with a
// pre-parsed target: exact signature equality, or a merged (debug-stripped)
// frame matching any overload target of the same method.
func methodTargetMatch(target, sig *dex.Signature) bool {
	if *target == *sig {
		return true
	}
	return sig.Merged() && target.Package == sig.Package &&
		target.Class == sig.Class && target.Name == sig.Name
}

// classPathPrefixMatch reports dex.PackagePrefixMatch(prefix,
// sig.ClassPath()) without materializing the class path string. The only
// segment boundaries in Package+"/"+Class are those inside Package, the
// one before Class, and the end of the string.
func classPathPrefixMatch(prefix string, sig *dex.Signature) bool {
	if sig.Package == "" {
		return prefix == sig.Class
	}
	if len(prefix) <= len(sig.Package) {
		return dex.PackagePrefixMatch(prefix, sig.Package)
	}
	return len(prefix) == len(sig.Package)+1+len(sig.Class) &&
		prefix[:len(sig.Package)] == sig.Package &&
		prefix[len(sig.Package)] == '/' &&
		prefix[len(sig.Package)+1:] == sig.Class
}

// RuleSet is one compiled, immutable rule set: the ordered rules, each
// with its target parsed once, indexed for evaluation. An engine publishes
// whole RuleSets with an atomic pointer swap, so Evaluate runs without any
// lock. A RuleSet's targets share one string of their own, so a set kept
// alive by old verdicts never pins the document it was compiled from.
type RuleSet struct {
	rules []Rule
	// reasons[i] is rule i's Access reason, rendered on first read.
	reasons []reason

	// byHash maps a truncated app hash to the smallest index of a
	// hash-level rule (allow or deny) targeting it.
	byHash map[dex.TruncatedHash]int
	// prefix maps library- and class-level deny targets to their smallest
	// rule index; probed with every package-boundary prefix of a frame's
	// package (a class target can match inside a package path too).
	prefix map[string]int
	// classExact holds class-level deny targets split at their last slash,
	// matching a frame's full package+class path without concatenation.
	classExact map[[2]string]int
	// methodExact maps parsed method-level deny targets to their smallest
	// rule index, probed with the frame signature itself.
	methodExact map[dex.Signature]int
	// methodMerged maps every method-level deny target's proto-less key to
	// its smallest rule index, probed by merged (debug-stripped) frames.
	methodMerged map[methodKey]int
	// allows are the non-hash allow rules in original order.
	allows []allowMatcher

	// ctx is the compiled contextual program (risk predicates plus
	// effective thresholds), nil when the document has no risk rules —
	// call-stack-only policies pay nothing for the contextual dimension.
	ctx *contextProgram
}

// Len returns the number of rules in the set.
func (c *RuleSet) Len() int { return len(c.rules) }

// keepMin records idx for key unless a smaller (earlier) rule index is
// already present: the earliest matching rule is always the decisive one.
func keepMin[K comparable](m map[K]int, key K, idx int) {
	if prev, ok := m[key]; !ok || idx < prev {
		m[key] = idx
	}
}

// minRuleLen is the length of the shortest rule the grammar accepts
// ({[deny][class][x]}): no document holds more rules than its length over
// this.
const minRuleLen = 18

// Compile parses a policy document (ParsePolicyString's grammar, with its
// refusals) and compiles it in one pass: each rule is cut from the
// document in place and parsed once, and the indexes are built from the
// targets just parsed, sized to the rules that land in each.
func Compile(doc string) (*RuleSet, error) {
	b := newSetBuilder(min(strings.Count(doc, "{"), len(doc)/minRuleLen))
	if err := scanDocument(doc, b.add, nil); err != nil {
		return nil, err
	}
	return b.build()
}

// compileRules validates and compiles an ordered rule set a caller holds.
func compileRules(rules []Rule) (*RuleSet, error) {
	b := newSetBuilder(len(rules))
	for i := range rules {
		t, err := rules[i].parse()
		if err != nil {
			return nil, fmt.Errorf("policy: rule %d: %w", i, err)
		}
		b.add(rules[i], t)
	}
	return b.build()
}

// setBuilder collects a rule set's parsed rules, in order, and what build
// needs to size its indexes.
type setBuilder struct {
	rules []Rule
	// hashes are the hash-level rules' parsed targets, in rule order.
	hashes []dex.TruncatedHash
	// preds are the risk rules' compiled predicates, in rule order.
	preds []compiledPredicate
	// warnAt and blockAt are the last explicit thresholds, or the defaults.
	warnAt, blockAt int
	// targetBytes totals the rules' targets; deny counts the deny rules
	// of each level and allow the non-hash allow rules.
	targetBytes int
	deny        [LevelMethod + 1]int
	allow       int
}

// newSetBuilder starts a builder for about n rules.
func newSetBuilder(n int) setBuilder {
	return setBuilder{rules: make([]Rule, 0, n), warnAt: DefaultWarnRisk, blockAt: DefaultBlockRisk}
}

// add takes the next rule, with its target parsed by Rule.parse.
func (b *setBuilder) add(r Rule, t ruleTarget) {
	b.rules = append(b.rules, r)
	b.targetBytes += len(r.Target)
	switch {
	case r.Kind == KindRisk:
		b.preds = append(b.preds, t.pred)
	case r.Kind == KindThreshold:
		// The last explicit threshold rule of each kind wins.
		if r.Thresh == ThresholdWarn {
			b.warnAt = r.Weight
		} else {
			b.blockAt = r.Weight
		}
	case r.Level == LevelHash:
		b.hashes = append(b.hashes, t.hash)
	case r.Action == Allow:
		b.allow++
	default:
		b.deny[r.Level]++
	}
}

// build moves the rules' targets into one string of the set's own and
// indexes the rules from it. A method target's signature is cut from that
// string again (dex.ParseSignature, which Rule.parse already ran on it), so
// the index keys point there too.
func (b *setBuilder) build() (*RuleSet, error) {
	if err := checkRiskRules(len(b.preds)); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	c := &RuleSet{
		rules:        b.rules,
		reasons:      make([]reason, len(b.rules)),
		byHash:       make(map[dex.TruncatedHash]int, len(b.hashes)),
		prefix:       make(map[string]int, b.deny[LevelLibrary]+b.deny[LevelClass]),
		classExact:   make(map[[2]string]int, b.deny[LevelClass]),
		methodExact:  make(map[dex.Signature]int, b.deny[LevelMethod]),
		methodMerged: make(map[methodKey]int, b.deny[LevelMethod]),
		allows:       make([]allowMatcher, 0, b.allow),
	}
	var arena strings.Builder
	arena.Grow(b.targetBytes)
	for i := range c.rules {
		arena.WriteString(c.rules[i].Target)
	}
	targets, hashes := arena.String(), b.hashes
	for i := range c.rules {
		r := &c.rules[i]
		r.Target, targets = targets[:len(r.Target)], targets[len(r.Target):]
		if r.Kind != KindAccess {
			continue
		}
		if r.Level == LevelHash {
			keepMin(c.byHash, hashes[0], i)
			hashes = hashes[1:]
			continue
		}
		var sig dex.Signature
		if r.Level == LevelMethod {
			sig, _ = dex.ParseSignature(r.Target)
		}
		if r.Action == Allow {
			c.allows = append(c.allows, allowMatcher{idx: i, level: r.Level, target: r.Target, sig: sig})
			continue
		}
		switch r.Level {
		case LevelLibrary:
			keepMin(c.prefix, r.Target, i)
		case LevelClass:
			// A class target matches a frame either inside the frame's
			// package path (boundary prefix) or as the frame's exact
			// package+class path; index it for both probes.
			keepMin(c.prefix, r.Target, i)
			pkg, cls := splitClassTarget(r.Target)
			keepMin(c.classExact, [2]string{pkg, cls}, i)
		case LevelMethod:
			if !sig.Merged() {
				keepMin(c.methodExact, sig, i)
			}
			keepMin(c.methodMerged, methodKey{sig.Package, sig.Class, sig.Name}, i)
		}
	}
	if len(b.preds) > 0 {
		c.ctx = &contextProgram{preds: b.preds, warnAt: b.warnAt, blockAt: b.blockAt, edges: timeEdges(b.preds)}
	}
	return c, nil
}

// splitClassTarget splits a class-level target at its last slash into the
// package part and the class simple name ("com/a/B" → "com/a", "B").
func splitClassTarget(target string) (pkg, class string) {
	for i := len(target) - 1; i >= 0; i-- {
		if target[i] == '/' {
			return target[:i], target[i+1:]
		}
	}
	return "", target
}

// probeFrame returns the smallest deny-rule index matching one frame, or
// best if none beats it. It probes the method maps once and the prefix
// maps once per package segment — allocation-free.
func (c *RuleSet) probeFrame(sig *dex.Signature, best int) int {
	if sig.Merged() {
		if len(c.methodMerged) > 0 {
			if idx, ok := c.methodMerged[methodKey{sig.Package, sig.Class, sig.Name}]; ok && idx < best {
				best = idx
			}
		}
	} else if len(c.methodExact) > 0 {
		if idx, ok := c.methodExact[*sig]; ok && idx < best {
			best = idx
		}
	}

	// Library and class prefix targets both match at package-segment
	// boundaries of the frame's package path; enumerate each boundary
	// prefix once.
	if len(c.prefix) > 0 {
		pkg := sig.Package
		for i := 0; i <= len(pkg); i++ {
			if i != len(pkg) && pkg[i] != '/' {
				continue
			}
			if i == 0 {
				continue // empty prefix never matches
			}
			if idx, ok := c.prefix[pkg[:i]]; ok && idx < best {
				best = idx
			}
		}
	}
	// A class target can also name the frame's full package+class path.
	if len(c.classExact) > 0 {
		if idx, ok := c.classExact[[2]string{sig.Package, sig.Class}]; ok && idx < best {
			best = idx
		}
	}
	return best
}

// evaluate finds the decisive rule index for a packet context, or
// len(c.rules) when the default applies. It preserves the reference
// linear-scan ordering exactly: the result is the minimum index over all
// matching rules, and per Rule.Matches semantics only hash-level rules can
// match an empty stack.
func (c *RuleSet) evaluate(appHash dex.TruncatedHash, stack []dex.Signature) int {
	best := len(c.rules)
	if len(c.byHash) > 0 {
		if idx, ok := c.byHash[appHash]; ok {
			best = idx
		}
	}
	if len(stack) == 0 {
		return best
	}
	for i := range stack {
		best = c.probeFrame(&stack[i], best)
	}
	// Allow rules are ordered by index, so the first full match below the
	// current best is the smallest matching allow index.
	for i := range c.allows {
		a := &c.allows[i]
		if a.idx >= best {
			break
		}
		if a.matchesAll(stack) {
			best = a.idx
			break
		}
	}
	return best
}
