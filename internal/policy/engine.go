package policy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/metrics"
)

// Verdict is the engine's decision for one packet.
type Verdict int

// Verdicts.
const (
	// VerdictAllow admits the packet.
	VerdictAllow Verdict = iota + 1
	// VerdictDrop discards the packet.
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAllow:
		return "allow"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Decision is a verdict plus the rule that produced it (nil for defaults).
type Decision struct {
	Verdict Verdict
	// Rule is the decisive rule; nil when the default applied (or when a
	// risk score, not one rule, decided).
	Rule *Rule
	// Reason is a human-readable explanation for audit logs.
	Reason string

	// RiskApplied reports that the contextual risk program ran for this
	// decision (risk rules loaded, flow context supplied, access rules
	// admitted the flow). RiskScore is then the summed predicate weights.
	RiskApplied bool
	// RiskWarn flags an admitted flow whose score reached the warn
	// threshold — allow-with-warning, never a third verdict.
	RiskWarn bool
	// RiskBlocked reports that the drop verdict came from the risk score
	// reaching the block threshold rather than an access rule.
	RiskBlocked bool
	// TimeEdgeIn is, when RiskApplied, the whole minutes from the flow
	// context's minute to the next one at which a time predicate can match
	// differently: score and verdict hold for every minute before it. Zero:
	// no time predicate, the decision does not depend on the clock.
	TimeEdgeIn int32
	// RiskScore is the flow's summed risk score when RiskApplied.
	RiskScore int
}

// Engine evaluates ordered rules with a configurable default action. It is
// safe for concurrent use and lock-free on the evaluation path: SetRules
// compiles the rule set into index structures and publishes the compiled
// form with an atomic pointer swap — matching the paper's
// "reconfigurability" design goal (§IV), where administrators update
// policies centrally while traffic flows, without ever stalling it.
type Engine struct {
	// mu serializes writers (SetRules); readers never take it.
	mu       sync.Mutex
	compiled atomic.Pointer[compiledRules]

	defaultV  Verdict
	defReason string

	// generation counts rule-set replacements; flow-verdict caches key
	// their entries on it so SetRules invalidates them without callbacks.
	generation atomic.Uint64

	// degraded, when non-nil, short-circuits every evaluation to a fixed
	// verdict — the fail-open/fail-closed posture a policy store engages
	// when its backend has been unreachable past the staleness deadline.
	// Entering and leaving degraded mode bumps the generation, so cached
	// flow verdicts from the other mode can never be served.
	degraded atomic.Pointer[Decision]

	evaluations  atomic.Uint64
	defaultHits  atomic.Uint64
	degradedHits atomic.Uint64

	riskEvaluations atomic.Uint64
	riskWarns       atomic.Uint64
	riskBlocks      atomic.Uint64
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
	e := &Engine{
		defaultV:  defaultVerdict,
		defReason: fmt.Sprintf("default %s", defaultVerdict),
	}
	e.compiled.Store(c)
	return e, nil
}

// SetRules atomically replaces the rule set (central reconfiguration).
// In-flight evaluations finish against the rule set they started with.
func (e *Engine) SetRules(rules []Rule) error {
	c, err := compileRules(rules)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compiled.Store(c)
	// Bump the generation only after the new compiled set is visible: a
	// reader that observes the new generation is then guaranteed to
	// evaluate against (at least) the new rules, so a verdict cached under
	// the new generation can never reflect the old policy.
	e.generation.Add(1)
	return nil
}

// Generation returns the number of rule-set replacements plus degraded-mode
// transitions so far. Verdict caches store it with each entry and treat any
// change as invalidation.
func (e *Engine) Generation() uint64 { return e.generation.Load() }

// SetDegraded forces every evaluation to the given verdict until
// ClearDegraded — the engine half of a policy store's fail-open
// (VerdictAllow) or fail-closed (VerdictDrop) posture when the last good
// policy is older than the staleness deadline. The override is published
// before the generation bump, mirroring SetRules: any reader observing the
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
	if cur := e.degraded.Load(); cur != nil && cur.Verdict == v && cur.Reason == reason {
		return nil
	}
	e.degraded.Store(&Decision{Verdict: v, Reason: reason})
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

// Degraded reports the active degraded-mode override, if any.
func (e *Engine) Degraded() (Decision, bool) {
	if d := e.degraded.Load(); d != nil {
		return *d, true
	}
	return Decision{}, false
}

// Rules returns a copy of the current rule set.
func (e *Engine) Rules() []Rule {
	return append([]Rule(nil), e.compiled.Load().rules...)
}

// Default returns the engine's default verdict.
func (e *Engine) Default() Verdict { return e.defaultV }

// Evaluate decides the fate of a packet given its decoded context: the
// app's truncated hash and the stack-trace signatures. Rules are evaluated
// in order; the first decisive rule wins (a matching deny drops, a
// fully-matching allow admits); otherwise the default applies. The rules
// were compiled ahead of time, so evaluation is a few map and prefix
// probes with no locking, parsing, or allocation.
func (e *Engine) Evaluate(appHash dex.TruncatedHash, stack []dex.Signature) Decision {
	d, _ := e.EvaluateWith(appHash, stack, nil)
	return d
}

// EvaluateFlow is Evaluate plus the contextual dimension: when fc is
// non-nil and the rule set carries risk rules, the flow's risk score is
// computed after — and only when — the access rules admit the flow, and
// folded into the decision (drop at the block threshold, RiskWarn at the
// warn threshold).
func (e *Engine) EvaluateFlow(appHash dex.TruncatedHash, stack []dex.Signature, fc *FlowContext) Decision {
	d, _ := e.EvaluateWith(appHash, stack, func() (FlowContext, bool) {
		if fc == nil {
			return FlowContext{}, false
		}
		return *fc, true
	})
	return d
}

// EvaluateWith is EvaluateFlow with the flow context built on demand: flow
// (nil: none) is called at most once, and only when the rule set this
// evaluation loaded carries risk rules, so the rule set that decides is the
// one that asked for the context, whatever SetRules runs meanwhile. flow
// reports false when it has no context to give. contextRead reports that
// the rule set received one: when false, the decision is a function of the
// app, the stack and the engine's generation alone, and a caller may share
// it between flows. The enforcer calls this once per flow miss while risk
// rules read device context, and once per tag and generation otherwise.
func (e *Engine) EvaluateWith(appHash dex.TruncatedHash, stack []dex.Signature, flow func() (FlowContext, bool)) (d Decision, contextRead bool) {
	// Degraded-mode override: one pointer load on the (cache-miss) path,
	// nil in normal operation.
	if dd := e.degraded.Load(); dd != nil {
		e.evaluations.Add(1)
		e.degradedHits.Add(1)
		return *dd, false
	}
	c := e.compiled.Load()
	var fc FlowContext
	if c.ctx != nil && flow != nil {
		fc, contextRead = flow()
	}
	decisive := c.evaluate(appHash, stack)

	e.evaluations.Add(1)
	if decisive < len(c.rules) {
		r := &c.rules[decisive]
		v := VerdictDrop
		if r.Action == Allow {
			v = VerdictAllow
		}
		d = Decision{Verdict: v, Rule: r, Reason: c.reasons[decisive]}
	} else {
		e.defaultHits.Add(1)
		d = Decision{Verdict: e.defaultV, Reason: e.defReason}
	}
	if contextRead && d.Verdict == VerdictAllow {
		score := c.ctx.score(&fc)
		d.RiskApplied = true
		d.RiskScore = score
		d.TimeEdgeIn = c.ctx.nextEdgeIn(&fc)
		e.riskEvaluations.Add(1)
		switch {
		case score >= c.ctx.blockAt:
			d.Verdict = VerdictDrop
			d.Rule = nil
			d.RiskBlocked = true
			d.Reason = fmt.Sprintf("risk score %d >= block threshold %d", score, c.ctx.blockAt)
			e.riskBlocks.Add(1)
		case score >= c.ctx.warnAt:
			d.RiskWarn = true
			e.riskWarns.Add(1)
		}
	}
	return d, contextRead
}

// ContextActive reports whether the current rule set carries risk rules. It
// is a separate load from any evaluation's, so a SetRules may land between
// the two: to build a context only when it is read, use EvaluateWith.
func (e *Engine) ContextActive() bool { return e.compiled.Load().ctx != nil }

// Thresholds returns the effective warn and block risk thresholds of the
// current rule set (defaults when no context program is active).
func (e *Engine) Thresholds() (warn, block int) {
	if ctx := e.compiled.Load().ctx; ctx != nil {
		return ctx.warnAt, ctx.blockAt
	}
	return DefaultWarnRisk, DefaultBlockRisk
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
		"Flows scored by the contextual risk program (once per flow, at SYN time).", e.riskEvaluations.Load)
	r.CounterFunc("bp_context_warns_total",
		"Risk evaluations that reached the warn threshold (admitted, flagged).", e.riskWarns.Load)
	r.CounterFunc("bp_context_blocks_total",
		"Risk evaluations that reached the block threshold (flow dropped).", e.riskBlocks.Load)
}
