package policy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/metrics"
)

// Verdict is the engine's decision for one packet.
type Verdict int32

// Verdicts.
const (
	// VerdictAllow admits the packet.
	VerdictAllow Verdict = iota + 1
	// VerdictDrop discards the packet.
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string { return verdictWords.name(int(v)) }

// Decision is a flow's verdict plus the rule that produced it (nil for
// defaults): the Access reached for its app and stack, combined with the
// Risk its context scored (see Access.Decide).
type Decision struct {
	Verdict Verdict
	// Rule is the decisive rule; nil when the default applied (or when a
	// risk score, not one rule, decided).
	Rule *Rule
	// Risk is the risk program's part, zero when it did not run.
	Risk Risk
	// why and ctx are the Access's, for Reason.
	why *reason
	ctx *contextProgram
}

// Reason explains the decision for audit logs. It is rendered on demand:
// a risk block's from the score and the block threshold, an access
// verdict's as Access.Reason.
func (d Decision) Reason() string {
	if d.Risk.Blocked {
		return fmt.Sprintf("risk score %d >= block threshold %d", d.Risk.Score, d.ctx.blockAt)
	}
	return d.why.render(d.Rule)
}

// Access is stage 3's context-free half: the access rules' verdict on one
// app and stack under one rule set, with the decisive rule (nil for the
// default) and its reason. It keeps that rule set's risk program when the
// verdict admits, so Risk scores a flow against the rule set that reached
// it, whatever Publish runs meanwhile. An Access is immutable, and every
// flow of the app and stack under the rule set may share it.
type Access struct {
	Verdict Verdict
	Rule    *Rule
	why     *reason
	ctx     *contextProgram
}

// Reason explains the access verdict for audit logs: "default allow", a
// degraded posture's text, or its decisive rule's, which is rendered from
// the rule the first time it is read under its rule set and kept.
func (a *Access) Reason() string { return a.why.render(a.Rule) }

// reason is an Access's explanation: a fixed text, or its decisive rule's,
// rendered on first read so that compiling and evaluating format nothing.
type reason struct{ text atomic.Pointer[string] }

// fixedReason is a reason with its text.
func fixedReason(text string) *reason {
	r := new(reason)
	r.text.Store(&text)
	return r
}

// render returns the reason's text, rendering it from rule, the decisive
// rule it explains, on the first read ("" for no reason).
func (r *reason) render(rule *Rule) string {
	if r == nil {
		return ""
	}
	if p := r.text.Load(); p != nil {
		return *p
	}
	text := fmt.Sprintf("deny rule %s matched", rule)
	if rule.Action == Allow {
		text = fmt.Sprintf("allow rule %s satisfied by all frames", rule)
	}
	r.text.CompareAndSwap(nil, &text)
	return *r.text.Load()
}

// Risk is stage 3's context half: a flow's score under the risk program of
// the Access that reached it. The zero Risk is "not applied": no risk
// program, no flow context, or an access verdict that already drops.
type Risk struct {
	// Score is the summed weight of the matching risk predicates.
	Score int32
	// EdgeIn is the whole minutes from the flow context's minute to the
	// next one at which a time predicate can match differently: score and
	// verdict hold for every minute before it. Zero: no time predicate, the
	// outcome does not depend on the clock.
	EdgeIn int32
	// Applied reports that the risk program scored the flow.
	Applied bool
	// Warn flags an admitted flow whose score reached the warn threshold —
	// allow-with-warning, never a third verdict.
	Warn bool
	// Blocked reports that the score reached the block threshold: the flow
	// drops although the access rules admitted it.
	Blocked bool
}

// Engine evaluates ordered rules with a configurable default action. It is
// safe for concurrent use and lock-free on the evaluation path: Publish
// installs a compiled RuleSet with an atomic pointer swap — matching the
// paper's "reconfigurability" design goal (§IV), where administrators
// update policies centrally while traffic flows, without ever stalling it.
type Engine struct {
	// mu serializes writers (Publish, degraded transitions); readers
	// never take it.
	mu       sync.Mutex
	compiled atomic.Pointer[RuleSet]

	defaultV Verdict
	// defWhy is the default verdict's reason.
	defWhy *reason

	// generation counts rule-set replacements; flow-verdict caches key
	// their entries on it so Publish invalidates them without callbacks.
	generation atomic.Uint64

	// degraded, when non-nil, short-circuits every access evaluation to a
	// fixed verdict — the fail-open/fail-closed posture a policy store engages
	// when its backend has been unreachable past the staleness deadline.
	// Entering and leaving degraded mode bumps the generation, so cached
	// flow verdicts from the other mode can never be served.
	degraded atomic.Pointer[Access]

	evaluations  atomic.Uint64
	defaultHits  atomic.Uint64
	degradedHits atomic.Uint64

	risk riskCounts
}

// riskCounts are an engine's risk-program outcomes, shared by every rule
// set it publishes: each program points at its engine's.
type riskCounts struct {
	evaluations, warns, blocks atomic.Uint64
}

// NewEngine builds an engine with the given ordered rules, compiled for
// per-packet evaluation. defaultVerdict applies when no rule is decisive.
func NewEngine(rules []Rule, defaultVerdict Verdict) (*Engine, error) {
	if defaultVerdict != VerdictAllow && defaultVerdict != VerdictDrop {
		return nil, fmt.Errorf("policy: invalid default verdict %d", defaultVerdict)
	}
	c, err := compileRules(rules)
	if err != nil {
		return nil, err
	}
	e := &Engine{defaultV: defaultVerdict, defWhy: fixedReason("default " + defaultVerdict.String())}
	e.bind(c)
	e.compiled.Store(c)
	return e, nil
}

// bind points c's risk program, if any, at the engine's counters. A set
// published again is left untouched, since readers may hold it.
func (e *Engine) bind(c *RuleSet) {
	if c.ctx != nil && c.ctx.counts != &e.risk {
		c.ctx.counts = &e.risk
	}
}

// Publish atomically replaces the rule set with c (central
// reconfiguration). In-flight evaluations finish against the rule set they
// started with. A RuleSet belongs to one engine, whose counters its risk
// program counts on.
func (e *Engine) Publish(c *RuleSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bind(c)
	e.compiled.Store(c)
	// Bump the generation only after the new compiled set is visible: a
	// reader that observes the new generation is then guaranteed to
	// evaluate against (at least) the new rules, so a verdict cached under
	// the new generation can never reflect the old policy.
	e.generation.Add(1)
}

// RuleCount returns the number of rules in the published rule set.
func (e *Engine) RuleCount() int { return e.compiled.Load().Len() }

// Generation returns the number of rule-set replacements plus degraded-mode
// transitions so far. Verdict caches store it with each entry and treat any
// change as invalidation.
func (e *Engine) Generation() uint64 { return e.generation.Load() }

// SetDegraded forces every evaluation to the given verdict until
// ClearDegraded — the engine half of a policy store's fail-open
// (VerdictAllow) or fail-closed (VerdictDrop) posture when the last good
// policy is older than the staleness deadline. The override is published
// before the generation bump, mirroring Publish: any reader observing the
// new generation evaluates under the override, so a pre-degradation cached
// verdict can never be served once the transition is visible. Idempotent
// per (verdict, reason): re-asserting the same degraded state does not
// burn another generation.
func (e *Engine) SetDegraded(v Verdict, reason string) error {
	if v != VerdictAllow && v != VerdictDrop {
		return fmt.Errorf("policy: invalid degraded verdict %d", v)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.degraded.Load(); cur != nil && cur.Verdict == v && cur.Reason() == reason {
		return nil
	}
	e.degraded.Store(&Access{Verdict: v, why: fixedReason(reason)})
	e.generation.Add(1)
	return nil
}

// ClearDegraded lifts a degraded-mode override and returns to normal rule
// evaluation (no-op when not degraded). Leaving degraded mode bumps the
// generation so verdicts cached while degraded are invalidated.
func (e *Engine) ClearDegraded() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded.Swap(nil) != nil {
		e.generation.Add(1)
	}
}

// Evaluate decides the fate of a packet given its decoded context, the
// app's truncated hash and the stack-trace signatures, with no flow
// context: its Access, decided without a Risk.
func (e *Engine) Evaluate(appHash dex.TruncatedHash, stack []dex.Signature) Decision {
	a := e.Access(appHash, stack)
	return a.Decide(Risk{})
}

// Access runs the access rules on an app and stack under the current rule
// set (or the degraded override). Rules are evaluated in order; the first
// decisive rule wins (a matching deny drops, a fully-matching allow
// admits); otherwise the default applies. The rules were compiled ahead of
// time, so this is a few map and prefix probes with no locking, parsing,
// or allocation. The result depends on nothing else: the enforcer reaches
// it once per tag and engine generation, and shares it between the flows.
func (e *Engine) Access(appHash dex.TruncatedHash, stack []dex.Signature) Access {
	e.evaluations.Add(1)
	// Degraded-mode override: one pointer load, nil in normal operation.
	if dd := e.degraded.Load(); dd != nil {
		e.degradedHits.Add(1)
		return *dd
	}
	c := e.compiled.Load()
	a := Access{Verdict: e.defaultV, why: e.defWhy}
	if decisive := c.evaluate(appHash, stack); decisive < len(c.rules) {
		r := &c.rules[decisive]
		a = Access{Verdict: VerdictDrop, Rule: r, why: &c.reasons[decisive]}
		if r.Action == Allow {
			a.Verdict = VerdictAllow
		}
	} else {
		e.defaultHits.Add(1)
	}
	if a.Verdict == VerdictAllow {
		// Risk rules only ever tighten an allow.
		a.ctx = c.ctx
	}
	return a
}

// ReadsContext reports whether Risk scores a flow context: the access
// rules admitted under a rule set with a risk program. When false, every
// flow of the app and stack gets a's verdict and the zero Risk.
func (a *Access) ReadsContext() bool { return a.ctx != nil }

// Risk scores fc (nil: none) against the risk program of the rule set a
// was reached under — once per flow, at SYN time. Allocation-free.
func (a *Access) Risk(fc *FlowContext) Risk {
	cp := a.ctx
	if cp == nil || fc == nil {
		return Risk{}
	}
	score := cp.score(fc)
	r := Risk{Score: int32(score), EdgeIn: cp.nextEdgeIn(fc), Applied: true}
	cp.counts.evaluations.Add(1)
	switch {
	case score >= cp.blockAt:
		r.Blocked = true
		cp.counts.blocks.Add(1)
	case score >= cp.warnAt:
		r.Warn = true
		cp.counts.warns.Add(1)
	}
	return r
}

// Decide combines a with r, the Risk a returned for one flow, into that
// flow's Decision. A risk block drops the flow with no decisive rule, for
// a reason that cites the score and the block threshold. Deciding formats
// nothing: Decision.Reason renders on demand.
func (a *Access) Decide(r Risk) Decision {
	d := Decision{Verdict: a.Verdict, Rule: a.Rule, Risk: r, why: a.why, ctx: a.ctx}
	if r.Blocked {
		d.Verdict, d.Rule = VerdictDrop, nil
	}
	return d
}

// RegisterMetrics attaches the engine's evaluation counters to a registry:
// how many packets reached it, how each was decided (default verdict or
// degraded override; the rest matched a rule), and the contextual risk
// program's scores and outcomes.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("bp_policy_evaluations_total", "Packets that reached the compiled policy engine.", e.evaluations.Load)
	r.CounterFunc("bp_policy_default_hits_total", "Evaluations decided by the default verdict.", e.defaultHits.Load)
	r.CounterFunc("bp_policy_degraded_hits_total", "Packets decided by a degraded-posture override.", e.degradedHits.Load)
	r.CounterFunc("bp_context_evaluations_total",
		"Flows scored by the contextual risk program (once per flow, at SYN time).", e.risk.evaluations.Load)
	r.CounterFunc("bp_context_warns_total",
		"Risk evaluations that reached the warn threshold (admitted, flagged).", e.risk.warns.Load)
	r.CounterFunc("bp_context_blocks_total",
		"Risk evaluations that reached the block threshold (flow dropped).", e.risk.blocks.Load)
}
