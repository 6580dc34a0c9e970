// Package enforcer implements BorderPatrol's Policy Enforcer (paper
// §IV-A3, §V-C): the network-side component that inspects every packet
// leaving the BYOD perimeter in three stages — (i) extraction of the app
// hash and index sequence from IP_OPTIONS, (ii) decoding indexes back to
// method signatures through the Offline Analyzer's database, and
// (iii) enforcement of the configured policy rules.
//
// Per the paper's deployment discussion (§VII "Compatibility"), packets
// without a BorderPatrol tag are dropped by default: inside the perimeter
// every work-profile packet must originate from a socket the Context
// Manager controls, so untagged traffic is either a personal app that has
// no business on the corporate network or an evasion attempt (e.g. native
// sockets).
//
// When a flow cache is configured (Config.Flows), the enforcer exploits
// the paper's §VI-D observation that every packet of a connection carries
// the same contextual tag: the first packet of a flow pays the
// extract–decode–evaluate pipeline, and every later packet is answered by
// a single flow-table probe keyed on the tuple and a digest of the raw tag
// — no tag decode, no stack decode, no policy evaluation. Stage 3 runs once
// per *flow* (the verdict depends on the source device's context); stages
// 1–2 run once per distinct *tag*, shared by every flow carrying it.
//
// A flow's cache cell holds no pointer (see flowVal): its verdict, and
// handles into two flowtable.Intern tables — the decoded tag (the verbatim
// tag bytes, app and stack) and the Decision, each shared by value by every
// flow that reached it. A hit is exact: the packet's tag bytes must equal
// the interned tag's verbatim, and both handles must still resolve, or the
// hit is a miss. A cached verdict self-invalidates when the policy engine,
// the signature database or the source device's context changes
// (generation counters) and, when a time-of-day predicate took part in it,
// at that predicate's next edge (Result.until): the fast path never serves
// a stale decision, and never another tag's stack or reason.
package enforcer

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// FlowCache caches one verdict per flow (see flowVal).
type FlowCache = flowtable.Table[flowVal]

// NewFlowCache builds a verdict cache for the enforcer.
func NewFlowCache(cfg flowtable.Config) *FlowCache {
	return flowtable.New[flowVal](cfg)
}

// flowVal is a cached flow's value: 16 bytes, no pointer. The Result it
// stands for is its verdict, cause and time edge plus the records its
// handles name in the enforcer's tag and decision tables.
type flowVal struct {
	until    uint32
	tag, dec flowtable.Handle
	verdict  uint8
	cause    uint8
}

// AuditSink receives enforcement decisions, on the packet path: it must
// never block (audit.Log sheds load instead).
type AuditSink interface {
	// Record captures one decision.
	Record(pkt *ipv4.Packet, res Result)
	// RecordBatch captures a burst; res[i] corresponds to pkts[i].
	RecordBatch(pkts []*ipv4.Packet, res []Result)
}

// Config selects enforcer behaviour for edge cases.
type Config struct {
	// AllowUntagged admits packets without a BorderPatrol option instead of
	// dropping them (useful for staged rollouts; the paper's deployment
	// drops them).
	AllowUntagged bool
	// AllowUnknownApps admits tagged packets whose app hash is not in the
	// database. The default (false) drops them: an unprovisioned or
	// repackaged app must not exfiltrate just by being unknown.
	AllowUnknownApps bool
	// Flows enables per-flow verdict caching (nil disables it).
	Flows *FlowCache
	// Audit receives every decision (nil disables auditing).
	Audit AuditSink
	// Context supplies per-device context for the policy's risk program
	// (nil disables the contextual dimension), read only on the miss path
	// when the rule set carries risk rules. A hit pays one atomic load: the
	// source device's stripe version, folded into the flow-cache generation,
	// so a device's context change invalidates its own cached verdicts.
	Context *devctx.Source
	// Clock supplies virtual time for the risk program's time predicates
	// (nil pins them to Monday 00:00), read once per Process/ProcessBatch.
	Clock devctx.Clock
}

// DropCause classifies why the enforcer dropped a packet.
type DropCause int32

// Drop causes.
const (
	// DropNone means the packet was accepted.
	DropNone DropCause = iota
	// DropUntagged is a packet without the BorderPatrol IP option.
	DropUntagged
	// DropMalformedTag is a tag that failed to decode.
	DropMalformedTag
	// DropUnknownApp is a tag whose app hash is not in the database.
	DropUnknownApp
	// DropBadIndex is a tag with an index outside the app's method table.
	DropBadIndex
	// DropPolicy is a packet denied by a policy rule (or default).
	DropPolicy
	// DropRisk is a flow denied by its contextual risk score reaching the
	// block threshold (access rules would have admitted it).
	DropRisk
	// DropSeqInjection is a response-direction TCP segment whose sequence
	// number broke the connection's continuity — the mid-stream injection
	// signature the gateway's conntrack checks for and counts as
	// bp_conntrack_responses_total{outcome="seq_drop"}.
	DropSeqInjection

	// dropCauseCount sizes per-cause counters; keep it last so new causes
	// automatically grow the counter array.
	dropCauseCount
)

var causeNames = [dropCauseCount]string{
	"accepted", "untagged", "malformed-tag", "unknown-app", "bad-index", "policy", "risk", "seq-injection",
}

// String names the drop cause.
func (c DropCause) String() string {
	if c >= 0 && c < dropCauseCount {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Result reports the enforcer's decision for one packet, with the decoded
// context for auditing and the Policy Extractor. Results of the flow cache
// share Stack across flows carrying the same tag and Decision across flows
// that reached an equal decision; treat both as read-only.
type Result struct {
	Verdict policy.Verdict
	Cause   DropCause
	// until is the virtual minute of the first time-predicate edge after this
	// verdict's evaluation: table and memo serve it before, never from then on
	// (zero: never lapses). It shares Cause's word, so a Result is no larger.
	until uint32
	// AppHash is the decoded app identity (zero when untagged).
	AppHash dex.TruncatedHash
	// Stack is the decoded stack trace (nil when undecodable).
	Stack []dex.Signature
	// Decision carries the policy engine's reasoning when it ran.
	Decision *policy.Decision
}

func (r *Result) lapsed(now time.Duration) bool {
	return r.until != 0 && now/time.Minute >= time.Duration(r.until)
}

// scratch is the pooled per-packet working set: the decoded tag and the
// stack-decode buffer. Pooling both keeps the miss path free of scratch
// allocations; only data that escapes into a Result is copied out.
type scratch struct {
	tag   tag.Tag
	stack []dex.Signature
}

// decodedTag is one interned outcome of stages 1–2: the app and stack a tag
// decoded to under one database generation (the record's generation in
// Enforcer.tags), so flows carrying the tag share one Stack. It answers only
// for a packet whose tag bytes equal its own verbatim. Failed decodes are
// neither interned nor cached: such a packet pays the decode every time.
type decodedTag struct {
	tagLen uint8
	tag    [flowtable.MaxTagBytes]byte
	app    dex.TruncatedHash
	stack  []dex.Signature
}

func (d *decodedTag) is(data []byte) bool { return string(d.tag[:d.tagLen]) == string(data) }

// internCells sizes the tag and decision tables: no workload's working set
// comes near it, so neither replaces a live record.
const internCells = 1 << 12

// decisionSeed keys decisionHash.
var decisionSeed = maphash.MakeSeed()

// decisionHash hashes every field of a decision that differs between
// evaluations of one rule set (the rule goes with its reason).
func decisionHash(d *policy.Decision) uint64 {
	h := maphash.String(decisionSeed, d.Reason)
	h ^= uint64(d.RiskScore)*0x9e3779b97f4a7c15 ^ uint64(uint32(d.TimeEdgeIn))<<8 ^ uint64(d.Verdict)
	if d.RiskWarn {
		h ^= 1 << 62
	}
	return h
}

// Latency sampling masks. Two time.Now calls per packet would cost about
// half a cache hit, so a packet is timed when a fastrand word masks to
// zero, drawn before the timed work (unbiased): 1 in 64 flow-table hits,
// 1 in 16 miss pipelines and 1 in 16 policy evaluations.
const hitSampleMask, missSampleMask, evalSampleMask = 63, 15, 15

// instruments is the enforcer's always-on telemetry: allocation-free
// histograms recorded with two atomic adds, so the gated benchmarks measure
// the instrumented path. They hold the sampled latency of a flow-table
// probe that hit, of the whole miss pipeline and of Evaluate alone; each
// ProcessBatch's wall time and burst size; and each evaluated flow's risk
// score (negative scores clamp to the zero bucket).
type instruments struct {
	hitLatency, missLatency, evalLatency, batchLatency, batchPackets, riskScore *metrics.Histogram
}

func newInstruments() instruments {
	return instruments{
		hitLatency:   metrics.NewHistogram(),
		missLatency:  metrics.NewHistogram(),
		evalLatency:  metrics.NewHistogram(),
		batchLatency: metrics.NewHistogram(),
		batchPackets: metrics.NewHistogram(),
		riskScore:    metrics.NewHistogram(),
	}
}

// Enforcer evaluates packets against a policy using a signature database.
// It is safe for concurrent use: counters are striped, scratch is pooled
// and the flow cache lock-striped, so parallel calls share no serialized
// state beyond the database's resolve RLock on misses.
type Enforcer struct {
	cfg    Config
	db     *analyzer.Database
	engine *policy.Engine
	flows  *FlowCache
	audit  AuditSink
	ctxSrc *devctx.Source
	clock  devctx.Clock

	scratches sync.Pool // *scratch, reused across packets
	// tags interns stages 1–2 per tag under a database generation, decisions
	// stage 3's outcomes under an engine generation; only the flow cache's
	// miss path fills them.
	tags      *flowtable.Intern[decodedTag]
	decisions *flowtable.Intern[policy.Decision]

	// Outcome counters are striped metrics counters (one atomic add per
	// packet, padded shards on multi-core), summed only at scrape time.
	accepted       *metrics.Counter
	dropped        *metrics.Counter
	droppedByCause [dropCauseCount]*metrics.Counter
	batchMemoHits  *metrics.Counter
	// verdictExpiries counts time-edge re-evaluations.
	verdictExpiries *metrics.Counter

	ins instruments
}

// New builds an enforcer.
func New(cfg Config, db *analyzer.Database, engine *policy.Engine) *Enforcer {
	e := &Enforcer{
		cfg:           cfg,
		db:            db,
		engine:        engine,
		flows:         cfg.Flows,
		audit:         cfg.Audit,
		ctxSrc:        cfg.Context,
		clock:         cfg.Clock,
		scratches:     sync.Pool{New: func() any { return new(scratch) }},
		accepted:      metrics.NewCounter(),
		dropped:       metrics.NewCounter(),
		batchMemoHits: metrics.NewCounter(),
		ins:           newInstruments(),

		tags:            flowtable.NewIntern[decodedTag](internCells),
		decisions:       flowtable.NewIntern[policy.Decision](internCells),
		verdictExpiries: metrics.NewCounter(),
	}
	for c := range e.droppedByCause {
		e.droppedByCause[c] = metrics.NewCounter()
	}
	return e
}

// Engine exposes the policy engine (for central reconfiguration).
func (e *Enforcer) Engine() *policy.Engine { return e.engine }

// generation packs the database's, the policy engine's and — when
// configured — the source device's stripe's (devctx.Stripe) counters into
// the cache generation, db<<42 | engine<<21 | context: a policy swap or a
// database mutation invalidates every cached verdict, a context change
// those of its stripe. A field aliases only when its counter advances by a
// multiple of 2²¹ (2²² for the database) between two packets of one cached
// flow while the others stand still.
func (e *Enforcer) generation(pkt *ipv4.Packet) uint64 {
	g := e.db.Generation()<<42 | (e.engine.Generation()&0x1fffff)<<21
	if e.ctxSrc != nil {
		g |= e.ctxSrc.GenerationFor(pkt.Header.Src) & 0x1fffff
	}
	return g
}

// now reads the enforcer's virtual clock (Monday 00:00 without one).
func (e *Enforcer) now() time.Duration {
	if e.clock == nil {
		return 0
	}
	return e.clock.Now()
}

// flowContext fills fc with the packet's SYN-time context — the source
// device's snapshot and the virtual clock — and returns it, or nil when no
// source is configured or no risk rule loaded.
func (e *Enforcer) flowContext(pkt *ipv4.Packet, fc *policy.FlowContext, now time.Duration) *policy.FlowContext {
	if e.ctxSrc == nil || !e.engine.ContextActive() {
		return nil
	}
	fc.Device, _ = e.ctxSrc.Lookup(pkt.Header.Src)
	fc.MinuteOfDay, fc.Weekday = policy.TimeOfVirtual(now)
	return fc
}

// flowKey fills the cache key for a tagged packet without decoding the
// tag: the tuple, with the ports peeked out of the TCP/UDP header (zero when
// the peek refuses the payload, as for non-first fragments), the protocol
// and the tag's digest. ok is false for oversized tags and non-IPv4
// endpoints, which bypass the cache.
func flowKey(k *flowtable.Key, pkt *ipv4.Packet, tagData []byte) (ok bool) {
	var info transport.Info
	transport.PeekPacket(pkt, &info)
	if k.Tuple, ok = transport.TupleOf(&pkt.Header, info.SrcPort, info.DstPort); !ok {
		return false
	}
	k.Proto = pkt.Header.Protocol
	return k.SetTag(tagData)
}

// Process enforces one packet: the public per-packet entry point, a burst
// of one without the memo. The verdict is decide's, the same function
// ProcessBatch runs per packet.
func (e *Enforcer) Process(pkt *ipv4.Packet) Result {
	res := e.decide(pkt, nil, e.now())
	e.count(&res)
	if e.audit != nil {
		e.audit.Record(pkt, res)
	}
	return res
}

// count updates the outcome counters for one processed packet.
func (e *Enforcer) count(res *Result) {
	if res.Verdict == policy.VerdictAllow {
		e.accepted.Inc()
	} else {
		e.dropped.Inc()
		if res.Cause >= 0 && int(res.Cause) < len(e.droppedByCause) {
			e.droppedByCause[res.Cause].Inc()
		}
	}
}

// flowMemo is ProcessBatch's same-flow memo: the last cacheable packet's
// key and tag bytes, the generation it was answered under, and its Result.
type flowMemo struct {
	key   flowtable.Key
	tag   []byte
	gen   uint64
	res   Result
	valid bool
}

// decide runs the three enforcement stages on one packet, short-circuited
// by the memo (when the caller carries one across a burst) and then by the
// flow cache (when one is configured). It is the only place a verdict is
// reached, so Process and ProcessBatch cannot disagree on a packet. now is
// the caller's one clock reading: memo, table and evaluation share it.
func (e *Enforcer) decide(pkt *ipv4.Packet, memo *flowMemo, now time.Duration) (res Result) {
	// Stage 1: extraction.
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		return e.untagged()
	}
	if e.flows == nil {
		return e.timedEvaluate(pkt, opt.Data, nil, now)
	}
	// Fast path: probe the flow table. The generation is read before the
	// probe (and before any evaluation) so that a concurrent
	// SetRules/AddEntry makes the inserted entry stale rather than letting
	// a pre-update verdict survive under the new generation.
	gen := e.generation(pkt)
	var key flowtable.Key
	if !flowKey(&key, pkt, opt.Data) {
		return e.timedEvaluate(pkt, opt.Data, nil, now)
	}
	if memo != nil && memo.valid && key == memo.key && gen == memo.gen &&
		string(opt.Data) == string(memo.tag) && !memo.res.lapsed(now) {
		e.batchMemoHits.Inc()
		return memo.res
	}
	// The sampling decision precedes the probe so the timed subset is an
	// unbiased slice of lookups; untimed packets pay one fastrand draw.
	var hitStart time.Time
	timed := rand.Uint32()&hitSampleMask == 0
	if timed {
		hitStart = time.Now()
	}
	_, ok := e.flows.Lookup(key, gen, func(v *flowVal) bool { return e.answer(v, opt.Data, &res) })
	if ok && res.lapsed(now) {
		// Past its time edge: re-evaluate, overwrite the cell in place.
		ok = false
		e.verdictExpiries.Inc()
	}
	if ok {
		if timed {
			e.ins.hitLatency.Record(time.Since(hitStart).Nanoseconds())
		}
	} else {
		var v flowVal
		res = e.timedEvaluate(pkt, opt.Data, &v, now)
		if v.dec != 0 {
			e.flows.Insert(key, gen, v)
		}
	}
	if memo != nil {
		memo.key, memo.tag, memo.gen, memo.res, memo.valid = key, opt.Data, gen, res, true
	}
	return res
}

// answer completes res from a cached flow's value, or reports false — a
// miss — when the packet's tag bytes are not the flow's interned tag (a
// digest collision) or a record the value names has been replaced.
func (e *Enforcer) answer(v *flowVal, data []byte, res *Result) bool {
	t := e.tags.Get(v.tag)
	if t == nil || !t.is(data) {
		return false
	}
	d := e.decisions.Get(v.dec)
	if d == nil {
		return false
	}
	*res = Result{Verdict: policy.Verdict(v.verdict), Cause: DropCause(v.cause), until: v.until,
		AppHash: t.app, Stack: t.stack, Decision: d}
	return true
}

// timedEvaluate runs the full miss pipeline, recording its latency for a
// sampled subset of calls.
func (e *Enforcer) timedEvaluate(pkt *ipv4.Packet, data []byte, v *flowVal, now time.Duration) Result {
	if rand.Uint32()&missSampleMask != 0 {
		return e.evaluateTag(pkt, data, v, now)
	}
	start := time.Now()
	res := e.evaluateTag(pkt, data, v, now)
	e.ins.missLatency.Record(time.Since(start).Nanoseconds())
	return res
}

func (e *Enforcer) untagged() Result {
	if e.cfg.AllowUntagged {
		return Result{Verdict: policy.VerdictAllow}
	}
	return Result{Verdict: policy.VerdictDrop, Cause: DropUntagged}
}

// decode runs stages 1–2 on a raw tag — through the tag table when v, the
// flow's cache value, is non-nil, whose tag handle it then sets. It fills in
// AppHash and Stack and reports true, or the packet's final Result and
// false.
func (e *Enforcer) decode(res *Result, data []byte, v *flowVal) bool {
	var h, dbGen uint64
	if v != nil {
		// Read before decoding: a record raced by a mutation is born stale.
		h, dbGen = flowtable.Digest(data), e.db.Generation()
		if d, hd := e.tags.Find(h, dbGen, func(d *decodedTag) bool { return d.is(data) }); d != nil {
			res.AppHash, res.Stack, v.tag = d.app, d.stack, hd
			return true
		}
	}
	sc := e.scratches.Get().(*scratch)
	defer e.scratches.Put(sc)

	if err := tag.DecodeInto(&sc.tag, data); err != nil {
		*res = Result{Verdict: policy.VerdictDrop, Cause: DropMalformedTag}
		return false
	}
	resolver, known := e.db.Resolve(sc.tag.AppHash)
	if !known {
		*res = Result{Verdict: policy.VerdictDrop, Cause: DropUnknownApp, AppHash: sc.tag.AppHash}
		if e.cfg.AllowUnknownApps {
			*res = Result{Verdict: policy.VerdictAllow, AppHash: sc.tag.AppHash}
		}
		return false
	}
	stack, err := resolver.DecodeStackInto(sc.stack[:0], sc.tag.Indexes)
	if err != nil {
		*res = Result{Verdict: policy.VerdictDrop, Cause: DropBadIndex, AppHash: sc.tag.AppHash}
		return false
	}
	sc.stack = stack // retain grown capacity for the next packet
	// The scratch buffer goes back to the pool; what escapes needs a copy.
	res.AppHash, res.Stack = sc.tag.AppHash, append(make([]dex.Signature, 0, len(stack)), stack...)
	if v != nil {
		d := decodedTag{tagLen: uint8(len(data)), app: res.AppHash, stack: res.Stack}
		copy(d.tag[:], data)
		_, v.tag = e.tags.Store(h, dbGen, d)
	}
	return true
}

// evaluateTag is the full miss path: decode the tag and the stack, then
// evaluate policy, with the risk program over the device's context when
// configured (the paper's "evaluate once at SYN time"). With v non-nil (a
// cacheable flow) the decision is interned and v filled, its decision
// handle nonzero exactly when the flow may be cached; uncached, the
// Decision is allocated per packet.
func (e *Enforcer) evaluateTag(pkt *ipv4.Packet, data []byte, v *flowVal, now time.Duration) (res Result) {
	if !e.decode(&res, data, v) {
		return res
	}

	// Stage 3: enforcement (latency sampled; see instruments). The flow
	// context — device posture, network class, velocity, virtual clock —
	// is built here, once per flow, and folded into the cached decision.
	// The engine generation is read before evaluating, as the database's
	// is before decoding.
	engGen := e.engine.Generation()
	var fcBuf policy.FlowContext
	fc := e.flowContext(pkt, &fcBuf, now)
	var decision policy.Decision
	if rand.Uint32()&evalSampleMask == 0 {
		evalStart := time.Now()
		decision = e.engine.EvaluateFlow(res.AppHash, res.Stack, fc)
		e.ins.evalLatency.Record(time.Since(evalStart).Nanoseconds())
	} else {
		decision = e.engine.EvaluateFlow(res.AppHash, res.Stack, fc)
	}
	if decision.RiskApplied {
		e.ins.riskScore.Record(int64(decision.RiskScore))
	}
	res.Verdict = decision.Verdict
	if decision.TimeEdgeIn > 0 {
		// Whole minutes, as policy.TimeOfVirtual counts them.
		res.until = uint32(now/time.Minute) + uint32(decision.TimeEdgeIn)
	}
	if decision.Verdict == policy.VerdictDrop {
		if decision.RiskBlocked {
			res.Cause = DropRisk
		} else {
			res.Cause = DropPolicy
		}
	}
	if v == nil {
		d := decision
		res.Decision = &d
		return res
	}
	h := decisionHash(&decision)
	d, hd := e.decisions.Find(h, engGen, func(d *policy.Decision) bool { return *d == decision })
	if d == nil {
		d, hd = e.decisions.Store(h, engGen, decision)
	}
	res.Decision = d
	*v = flowVal{until: res.until, tag: v.tag, dec: hd, verdict: uint8(res.Verdict), cause: uint8(res.Cause)}
	return res
}

// ProcessBatch enforces a batch of packets. With a flow cache, a packet of
// the same flow and tag as the one before it (a keep-alive train, an upload
// burst) reuses that packet's Result without probing the table; uncached,
// every packet pays the full pipeline. Results are appended to out (reusing
// its backing array) and returned; out[i] corresponds to pkts[i].
func (e *Enforcer) ProcessBatch(pkts []*ipv4.Packet, out []Result) []Result {
	if cap(out) < len(pkts) {
		out = make([]Result, 0, len(pkts))
	} else {
		out = out[:0]
	}
	batchStart := time.Now()
	now := e.now()
	var memo flowMemo
	for _, pkt := range pkts {
		res := e.decide(pkt, &memo, now)
		e.count(&res)
		out = append(out, res)
	}
	if e.audit != nil {
		e.audit.RecordBatch(pkts, out)
	}
	if len(pkts) > 0 {
		e.ins.batchLatency.Record(time.Since(batchStart).Nanoseconds())
		e.ins.batchPackets.Record(int64(len(pkts)))
	}
	return out
}

// EndFlow removes a packet's flow from the verdict cache, as the gateway
// does when it sees a connection close, and reports whether it was cached.
func (e *Enforcer) EndFlow(pkt *ipv4.Packet) bool {
	if e.flows == nil {
		return false
	}
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		return false
	}
	var key flowtable.Key
	if !flowKey(&key, pkt, opt.Data) {
		return false
	}
	return e.flows.Delete(key)
}

// SweepFlows reclaims verdict-cache entries idle past the TTL (flows whose
// teardown the gateway never saw) and returns how many.
func (e *Enforcer) SweepFlows() int {
	if e.flows == nil {
		return 0
	}
	return e.flows.Sweep()
}

// PurgeFlows empties the verdict cache, as a gateway restart that loses its
// RAM would.
func (e *Enforcer) PurgeFlows() {
	if e.flows != nil {
		e.flows.Purge()
	}
}

// RegisterMetrics attaches the enforcer's counters and histograms, its
// tables', the policy engine's and the context source's to a registry, as
// scrape-time closures that cost the packet path nothing.
func (e *Enforcer) RegisterMetrics(r *metrics.Registry) {
	const verdictHelp = "Enforcement verdicts by decision."
	r.CounterFunc("bp_enforcer_verdicts_total", verdictHelp, e.accepted.Value, metrics.L("decision", "allow"))
	r.CounterFunc("bp_enforcer_verdicts_total", verdictHelp, e.dropped.Value, metrics.L("decision", "drop"))
	for c := DropUntagged; c < dropCauseCount; c++ {
		r.CounterFunc("bp_enforcer_drops_total", "Dropped packets by cause.",
			e.droppedByCause[c].Value, metrics.L("cause", c.String()))
	}
	r.CounterFunc("bp_enforcer_batch_memo_hits_total",
		"Packets answered by the batch drain's same-flow memo without a flow-table probe.",
		e.batchMemoHits.Value)
	e.tags.RegisterMetrics(r, "bp_enforcer_decoded_tag", "decoded tag")
	e.decisions.RegisterMetrics(r, "bp_enforcer_decision", "decision")
	r.CounterFunc("bp_enforcer_verdict_expiries_total",
		"Cached verdicts re-evaluated because a time-of-day predicate's edge was reached.", e.verdictExpiries.Value)

	r.RegisterHistogram("bp_enforcer_cache_hit_latency_ns",
		"Flow-table probe latency on a hit (sampled 1/64).", e.ins.hitLatency)
	r.RegisterHistogram("bp_enforcer_cache_miss_latency_ns",
		"Full extract-decode-evaluate pipeline latency (sampled 1/16).", e.ins.missLatency)
	r.RegisterHistogram("bp_enforcer_evaluate_latency_ns",
		"Policy-engine Evaluate latency (sampled 1/16).", e.ins.evalLatency)
	r.RegisterHistogram("bp_enforcer_batch_latency_ns",
		"ProcessBatch wall time per burst.", e.ins.batchLatency)
	r.RegisterHistogram("bp_enforcer_batch_packets",
		"Packets per ProcessBatch burst.", e.ins.batchPackets)

	if e.flows != nil {
		e.flows.RegisterMetrics(r)
	}

	e.engine.RegisterMetrics(r)
	r.RegisterHistogram("bp_context_risk_score",
		"Per-flow contextual risk score at SYN-time evaluation.", e.ins.riskScore)
	if e.ctxSrc != nil {
		e.ctxSrc.RegisterMetrics(r)
	}
}
