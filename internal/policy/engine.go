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

// Decision is a flow's verdict plus the rule that produced it (nil for
// defaults): the Access reached for its app and stack, combined with the
// Risk its context scored (see Access.Decide).
type Decision struct {
	Verdict Verdict
	// Rule is the decisive rule; nil when the default applied (or when a
	// risk score, not one rule, decided).
	Rule *Rule
	// Reason is a human-readable explanation for audit logs.
	Reason string
	// Risk is the risk program's part, zero when it did not run.
	Risk Risk
}

// Access is stage 3's context-free half: the access rules' verdict on one
// app and stack under one rule set, with the decisive rule (nil for the
// default) and its reason. It keeps that rule set's risk program when the
// verdict admits, so Risk scores a flow against the rule set that reached
// it, whatever SetRules runs meanwhile. An Access is immutable, and every
// flow of the app and stack under the rule set may share it.
type Access struct {
	Verdict Verdict
	Rule    *Rule
	Reason  string
	ctx     *contextProgram
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
// set it compiles: each program points at its engine's.
type riskCounts struct {
	evaluations, warns, blocks atomic.Uint64
}

// NewEngine builds an engine with the given ordered rules, compiled for
// per-packet evaluation. defaultVerdict applies when no rule is decisive.
func NewEngine(rules []Rule, defaultVerdict Verdict) (*Engine, error) {
	if defaultVerdict != VerdictAllow && defaultVerdict != VerdictDrop {
		return nil, fmt.Errorf("policy: invalid default verdict %d", defaultVerdict)
	}
	e := &Engine{
		defaultV:  defaultVerdict,
		defReason: fmt.Sprintf("default %s", defaultVerdict),
	}
	c, err := compileRules(rules, &e.risk)
	if err != nil {
		return nil, err
	}
	e.compiled.Store(c)
	return e, nil
}

// SetRules atomically replaces the rule set (central reconfiguration).
// In-flight evaluations finish against the rule set they started with.
func (e *Engine) SetRules(rules []Rule) error {
	c, err := compileRules(rules, &e.risk)
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
	e.degraded.Store(&Access{Verdict: v, Reason: reason})
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
	a := Access{Verdict: e.defaultV, Reason: e.defReason}
	if decisive := c.evaluate(appHash, stack); decisive < len(c.rules) {
		r := &c.rules[decisive]
		a = Access{Verdict: VerdictDrop, Rule: r, Reason: c.reasons[decisive]}
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
// a reason that cites the score and the block threshold; it is formatted
// here, off the packet path.
func (a *Access) Decide(r Risk) Decision {
	d := Decision{Verdict: a.Verdict, Rule: a.Rule, Reason: a.Reason, Risk: r}
	if r.Blocked {
		d.Verdict, d.Rule = VerdictDrop, nil
		d.Reason = fmt.Sprintf("risk score %d >= block threshold %d", r.Score, a.ctx.blockAt)
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
