package policy

import (
	"fmt"

	"borderpatrol/internal/dex"
)

// This file implements the rule-set compiler: the engine's hot path no
// longer scans rules linearly per packet. At NewEngine/SetRules time the
// ordered rule list is compiled into exact-match maps (hash targets,
// method targets) and package-prefix indexes (library and class targets),
// with every rule's Reason string and parsed target precomputed. Evaluate
// then runs a handful of map probes per frame — O(frames × path segments)
// instead of O(rules × frames) — and reconstructs the paper's
// first-decisive-rule-wins ordering by tracking the minimum original rule
// index across all matching compiled entries.
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

// compiledRules is one immutable compiled rule set. The engine swaps whole
// compiledRules values atomically on SetRules, so Evaluate runs without
// any lock. Per-rule hit counters live here because SetRules resets them
// (the pre-compiler engine had the same semantics).
type compiledRules struct {
	rules   []Rule
	reasons []string // reasons[i] is the Access.Reason for rule i

	// byHash maps a truncated app hash to the smallest index of a
	// hash-level rule (allow or deny) targeting it.
	byHash map[dex.TruncatedHash]int
	// libPrefix maps library-level deny targets to their smallest rule
	// index; probed with every package-boundary prefix of a frame's package.
	libPrefix map[string]int
	// classPrefix holds class-level deny targets that can match inside a
	// frame's package path (same probe as libPrefix).
	classPrefix map[string]int
	// classExact holds class-level deny targets split at their last slash,
	// matching a frame's full package+class path without concatenation.
	classExact map[string]map[string]int
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

// keepMin records idx for key unless a smaller (earlier) rule index is
// already present: the earliest matching rule is always the decisive one.
func keepMin[K comparable](m map[K]int, key K, idx int) {
	if prev, ok := m[key]; !ok || idx < prev {
		m[key] = idx
	}
}

// compileRules validates and indexes an ordered rule set, parsing each
// rule's target once (Rule.parse). Its risk program, if any, counts its
// outcomes on counts.
func compileRules(rules []Rule, counts *riskCounts) (*compiledRules, error) {
	c := &compiledRules{
		rules:        append([]Rule(nil), rules...),
		reasons:      make([]string, len(rules)),
		byHash:       make(map[dex.TruncatedHash]int),
		libPrefix:    make(map[string]int),
		classPrefix:  make(map[string]int),
		classExact:   make(map[string]map[string]int),
		methodExact:  make(map[dex.Signature]int),
		methodMerged: make(map[methodKey]int),
	}
	var preds []compiledPredicate
	warnAt, blockAt := DefaultWarnRisk, DefaultBlockRisk
	for i := range c.rules {
		r := &c.rules[i]
		t, err := r.parse()
		if err != nil {
			return nil, fmt.Errorf("policy: rule %d: %w", i, err)
		}
		switch r.Kind {
		case KindRisk:
			c.reasons[i] = fmt.Sprintf("risk rule %s matched", r)
			preds = append(preds, t.pred)
			continue
		case KindThreshold:
			// The last explicit threshold rule of each kind wins.
			if r.Thresh == ThresholdWarn {
				warnAt = r.Weight
			} else {
				blockAt = r.Weight
			}
			c.reasons[i] = fmt.Sprintf("threshold rule %s", r)
			continue
		}
		switch r.Action {
		case Deny:
			c.reasons[i] = fmt.Sprintf("deny rule %s matched", r)
		case Allow:
			c.reasons[i] = fmt.Sprintf("allow rule %s satisfied by all frames", r)
		}

		if r.Level == LevelHash {
			keepMin(c.byHash, t.hash, i)
			continue
		}

		if r.Action == Allow {
			c.allows = append(c.allows, allowMatcher{idx: i, level: r.Level, target: r.Target, sig: t.sig})
			continue
		}

		switch r.Level {
		case LevelLibrary:
			keepMin(c.libPrefix, r.Target, i)
		case LevelClass:
			// A class target matches a frame either inside the frame's
			// package path (boundary prefix) or as the frame's exact
			// package+class path; index it for both probes.
			keepMin(c.classPrefix, r.Target, i)
			pkg, cls := splitClassTarget(r.Target)
			sub, ok := c.classExact[pkg]
			if !ok {
				sub = make(map[string]int)
				c.classExact[pkg] = sub
			}
			keepMin(sub, cls, i)
		case LevelMethod:
			if !t.sig.Merged() {
				keepMin(c.methodExact, t.sig, i)
			}
			keepMin(c.methodMerged, methodKey{t.sig.Package, t.sig.Class, t.sig.Name}, i)
		}
	}
	if err := checkRiskRules(len(preds)); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	if len(preds) > 0 {
		c.ctx = &contextProgram{preds: preds, warnAt: warnAt, blockAt: blockAt, edges: timeEdges(preds), counts: counts}
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
func (c *compiledRules) probeFrame(sig *dex.Signature, best int) int {
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
	// prefix once and probe both maps.
	if len(c.libPrefix) > 0 || len(c.classPrefix) > 0 {
		pkg := sig.Package
		for i := 0; i <= len(pkg); i++ {
			if i != len(pkg) && pkg[i] != '/' {
				continue
			}
			if i == 0 {
				continue // empty prefix never matches
			}
			prefix := pkg[:i]
			if idx, ok := c.libPrefix[prefix]; ok && idx < best {
				best = idx
			}
			if idx, ok := c.classPrefix[prefix]; ok && idx < best {
				best = idx
			}
		}
	}
	// A class target can also name the frame's full package+class path.
	if len(c.classExact) > 0 {
		if sub, ok := c.classExact[sig.Package]; ok {
			if idx, ok := sub[sig.Class]; ok && idx < best {
				best = idx
			}
		}
	}
	return best
}

// evaluate finds the decisive rule index for a packet context, or
// len(c.rules) when the default applies. It preserves the reference
// linear-scan ordering exactly: the result is the minimum index over all
// matching rules, and per Rule.Matches semantics only hash-level rules can
// match an empty stack.
func (c *compiledRules) evaluate(appHash dex.TruncatedHash, stack []dex.Signature) int {
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
