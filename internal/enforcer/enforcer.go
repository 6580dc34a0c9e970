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
// a single flow-table probe keyed on the raw tag bytes — no tag decode,
// no stack decode, no policy evaluation. Stage 3 runs once per *flow* (the
// verdict depends on the source device's context); stages 1–2 run once per
// distinct *tag*, shared by every flow carrying it (see decodedTag). A cached
// verdict self-invalidates when the policy engine, the signature database or
// the source device's context changes (generation counters) and, when a
// time-of-day predicate took part in it, at that predicate's next edge
// (Result.until): the fast path never serves a stale decision.
package enforcer

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
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

// FlowCache caches one enforcement Result per flow. Cached Results share
// their Decision pointer across packets of the flow and their Stack slice
// across flows carrying the same tag; both are immutable once published.
type FlowCache = flowtable.Table[Result]

// NewFlowCache builds a verdict cache for the enforcer.
func NewFlowCache(cfg flowtable.Config) *FlowCache {
	return flowtable.New[Result](cfg)
}

// AuditSink receives enforcement decisions. Implementations must never
// block: the enforcer calls Record on the per-packet path and RecordBatch
// once per batched drain (audit.Log satisfies this with a bounded async
// pipeline that sheds load instead of stalling enforcement).
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
	// Flows enables per-flow verdict caching (nil disables it). The cache
	// is consulted before tag decoding; see the package comment.
	Flows *FlowCache
	// Audit receives every decision (nil disables auditing). Process
	// records per packet; ProcessBatch records once per burst.
	Audit AuditSink
	// Context supplies per-device context for the policy's risk program
	// (nil disables the contextual dimension). It is consulted only on the
	// SYN/cache-miss path — and only when the loaded rule set actually
	// carries risk rules — so the per-packet cache-hit path never touches
	// it beyond one atomic load: the version of the source device's stripe
	// is folded into the flow-cache generation, so a device-context change
	// invalidates that device's cached verdicts — the way a policy swap
	// invalidates everyone's — and leaves the other devices' flows cached.
	Context *devctx.Source
	// Clock supplies virtual time for the risk program's time-of-day and
	// weekday predicates (nil pins them to Monday 00:00), read once per
	// Process/ProcessBatch; it alone says when a verdict's time edge is reached.
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

// String names the drop cause.
func (c DropCause) String() string {
	switch c {
	case DropNone:
		return "accepted"
	case DropUntagged:
		return "untagged"
	case DropMalformedTag:
		return "malformed-tag"
	case DropUnknownApp:
		return "unknown-app"
	case DropBadIndex:
		return "bad-index"
	case DropPolicy:
		return "policy"
	case DropRisk:
		return "risk"
	case DropSeqInjection:
		return "seq-injection"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Result reports the enforcer's decision for one packet, with the decoded
// context for auditing and the Policy Extractor. Results served from the
// flow cache share Decision across packets of the flow and Stack across
// flows carrying the same tag; treat both as read-only.
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
// decoded to under one database generation, immutable once published, so
// flows carrying the tag share one Stack. The table (Enforcer.decoded) is a
// fixed direct-mapped array of internCells cells — its whole bound. A cell
// answers only for a packet whose tag bytes equal the resident's verbatim,
// under the database generation the resident was decoded in; any other
// successful decode mapping to the cell replaces the resident. A flood of
// crafted tags thus costs an uninterned miss plus one record each and is never
// served another tag's stack. Failed decodes are not interned.
type decodedTag struct {
	tagLen uint8
	tag    [flowtable.MaxTagBytes]byte
	dbGen  uint64
	app    dex.TruncatedHash
	stack  []dex.Signature
}

const internBits, internCells = 12, 1 << 12

// internCell picks a tag's cell from the top bits of a multiplicative mix:
// the digest's low bits depend only on the low bits of each eight tag bytes.
func internCell(digest uint64) uint64 {
	return (digest ^ digest>>29) * 0x9e3779b97f4a7c15 >> (64 - internBits)
}

// Latency sampling masks. The hot paths cannot afford two time.Now calls
// per packet (~40–50 ns against a ~100 ns cache-hit budget), so latency
// histograms are fed from a uniform sample: a packet is timed when a
// per-M fastrand word masks to zero. Sampling is unbiased (the decision
// is taken before the timed work starts) and the untimed packets pay only
// the ~2 ns rand draw and a branch.
const (
	// hitSampleMask times 1-in-64 cache-hit packets — the path runs
	// millions of times a second, so the histogram stays dense anyway.
	hitSampleMask = 63
	// missSampleMask times 1-in-16 full-pipeline misses (one per flow in
	// the steady state; floods still produce ample samples).
	missSampleMask = 15
	// evalSampleMask times 1-in-16 policy-engine evaluations.
	evalSampleMask = 15
)

// instruments is the enforcer's always-on latency telemetry. The
// histograms are allocation-free fixed arrays (~1 KiB each) recorded with
// two atomic adds, so they exist whether or not a registry ever scrapes
// them — the gated benchmarks measure the instrumented path.
type instruments struct {
	// hitLatency is the sampled latency of a flow-table probe that hit
	// (memo hits never probe, so they are not in it).
	hitLatency *metrics.Histogram
	// missLatency is the sampled full extract–decode–evaluate pipeline
	// latency (flow-cache misses and uncached configurations).
	missLatency *metrics.Histogram
	// evalLatency is the sampled policy-engine Evaluate latency (stage 3
	// alone, a subset of missLatency).
	evalLatency *metrics.Histogram
	// batchLatency is the whole-ProcessBatch wall time; batchPackets the
	// burst size, so ns/packet is derivable per quantile band.
	batchLatency *metrics.Histogram
	batchPackets *metrics.Histogram
	// riskScore is the per-flow contextual risk score, recorded once per
	// SYN-time evaluation (negative scores clamp to the zero bucket).
	riskScore *metrics.Histogram
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
// It is safe for concurrent use and scales across cores: counters are
// atomic, the per-packet scratch is pooled, and the optional flow cache is
// lock-striped, so parallel Process calls share no globally serialized
// state beyond the database's single resolve RLock on cache misses.
type Enforcer struct {
	cfg    Config
	db     *analyzer.Database
	engine *policy.Engine
	flows  *FlowCache
	audit  AuditSink
	ctxSrc *devctx.Source
	clock  devctx.Clock

	scratches sync.Pool // *scratch, reused across packets
	// decoded interns stages 1–2 per tag; nil (decode every packet) uncached.
	decoded *[internCells]atomic.Pointer[decodedTag]

	// Outcome counters are striped metrics counters (one atomic add per
	// packet, padded shards on multi-core), summed only at scrape time.
	accepted       *metrics.Counter
	dropped        *metrics.Counter
	droppedByCause [dropCauseCount]*metrics.Counter
	batchMemoHits  *metrics.Counter
	// Miss path only: interned-decode hits and misses, time-edge re-evaluations.
	decodedHits, decodedMisses, verdictExpiries *metrics.Counter

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

		decodedHits:     metrics.NewCounter(),
		decodedMisses:   metrics.NewCounter(),
		verdictExpiries: metrics.NewCounter(),
	}
	if e.flows != nil {
		e.decoded = new([internCells]atomic.Pointer[decodedTag])
	}
	for c := range e.droppedByCause {
		e.droppedByCause[c] = metrics.NewCounter()
	}
	return e
}

// Engine exposes the policy engine (for central reconfiguration).
func (e *Enforcer) Engine() *policy.Engine { return e.engine }

// FlowCacheEnabled reports whether per-flow verdict caching is active.
func (e *Enforcer) FlowCacheEnabled() bool { return e.flows != nil }

// generation combines the policy engine's, the signature database's and —
// when configured — the packet's source device's context version into the
// cache generation. A policy swap or a database mutation invalidates every
// cached verdict; a device-context change invalidates the verdicts of the
// devices on that device's stripe (devctx.Stripe) and nobody else's. The
// layout is db<<42 | engine<<21 | context: the engine counter and the
// stripe version keep their low 21 bits each, the database counter the 22
// bits above them. A field aliases only when its counter advances by an
// exact multiple of its wrap bound — 2²¹ (~2M) policy swaps, 2²¹ context
// changes on one stripe or 2²² (~4M) database mutations — between two
// packets of one cached flow while the other two fields stand still, which
// cannot happen in a deployment's lifetime. Reading the stripe version is
// an address hash and one atomic load on the per-packet path — no lock, no
// map.
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
// device's context snapshot plus the virtual wall-clock position — and
// returns it, or returns nil when the contextual dimension is inactive
// (no source configured, or no risk rules loaded). Runs only on the
// cache-miss path.
func (e *Enforcer) flowContext(pkt *ipv4.Packet, fc *policy.FlowContext, now time.Duration) *policy.FlowContext {
	if e.ctxSrc == nil || !e.engine.ContextActive() {
		return nil
	}
	fc.Device, _ = e.ctxSrc.Lookup(pkt.Header.Src)
	fc.MinuteOfDay, fc.Weekday = policy.TimeOfVirtual(now)
	return fc
}

// flowKey fills the cache key for a tagged packet without decoding the
// tag: the flow's tuple, with the real transport ports peeked (zero-alloc,
// structural checks only) out of the TCP/UDP header, so every connection
// is its own flow and teardown on FIN cannot evict a sibling's verdict;
// the protocol; and the raw tag bytes plus their digest. Ports stay zero
// when the peek refuses the payload (non-first fragments, anything not a
// header this model emits), so garbage bytes are never keyed as ports. ok
// is false for oversized tags and non-IPv4 endpoints, which bypass the
// cache. k is filled in place so the hot path never copies the 64-byte Key.
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
	e.count(res)
	if e.audit != nil {
		e.audit.Record(pkt, res)
	}
	return res
}

// count updates the outcome counters for one processed packet (the
// processed total is derived as accepted+dropped, keeping the hot path at
// one counter update per packet).
func (e *Enforcer) count(res Result) {
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
// key, the generation it was answered under, and its Result (which carries
// its own time edge). Consecutive packets of one flow (a keep-alive train,
// an upload burst) are answered from it without probing the flow table.
type flowMemo struct {
	key   flowtable.Key
	gen   uint64
	res   Result
	valid bool
}

// decide runs the three enforcement stages on one packet, short-circuited
// by the memo (when the caller carries one across a burst) and then by the
// flow cache (when one is configured). It is the only place a verdict is
// reached, so Process and ProcessBatch cannot disagree on a packet. now is
// the caller's one clock reading: memo, table and evaluation share it.
func (e *Enforcer) decide(pkt *ipv4.Packet, memo *flowMemo, now time.Duration) Result {
	// Stage 1: extraction.
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		return e.untagged()
	}
	if e.flows == nil {
		return e.timedEvaluate(pkt, opt.Data, nil, now)
	}
	// Fast path: probe the flow table on the raw tag bytes. The generation
	// is read before the probe (and before any evaluation) so that a
	// concurrent SetRules/AddEntry makes the inserted entry stale rather
	// than letting a pre-update verdict survive under the new generation.
	gen := e.generation(pkt)
	var key flowtable.Key
	if !flowKey(&key, pkt, opt.Data) {
		return e.timedEvaluate(pkt, opt.Data, nil, now)
	}
	if memo != nil && memo.valid && key == memo.key && gen == memo.gen && !memo.res.lapsed(now) {
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
	res, ok := e.flows.Lookup(key, gen)
	if ok && res.lapsed(now) {
		// Past its time edge: re-evaluate, overwrite the slot in place.
		ok = false
		e.verdictExpiries.Inc()
	}
	if ok {
		if timed {
			e.ins.hitLatency.Record(time.Since(hitStart).Nanoseconds())
		}
	} else {
		res = e.timedEvaluate(pkt, opt.Data, &key, now)
		e.flows.Insert(key, gen, res)
	}
	if memo != nil {
		memo.key, memo.gen, memo.res, memo.valid = key, gen, res, true
	}
	return res
}

// timedEvaluate runs the full miss pipeline, recording its latency for a
// sampled subset of calls.
func (e *Enforcer) timedEvaluate(pkt *ipv4.Packet, data []byte, key *flowtable.Key, now time.Duration) Result {
	if rand.Uint32()&missSampleMask != 0 {
		return e.evaluateTag(pkt, data, key, now)
	}
	start := time.Now()
	res := e.evaluateTag(pkt, data, key, now)
	e.ins.missLatency.Record(time.Since(start).Nanoseconds())
	return res
}

func (e *Enforcer) untagged() Result {
	if e.cfg.AllowUntagged {
		return Result{Verdict: policy.VerdictAllow}
	}
	return Result{Verdict: policy.VerdictDrop, Cause: DropUntagged}
}

// decode runs stages 1–2 on a raw tag — through the intern table when key,
// the packet's cache key, is non-nil. It fills in AppHash and Stack and
// reports true, or the packet's final Result and false.
func (e *Enforcer) decode(res *Result, key *flowtable.Key, data []byte) bool {
	var cell *atomic.Pointer[decodedTag]
	var dbGen uint64
	if key != nil {
		cell = &e.decoded[internCell(key.Digest)]
		// Read before decoding: a record raced by a mutation is born stale.
		dbGen = e.db.Generation()
		if d := cell.Load(); d != nil && d.dbGen == dbGen && d.tagLen == key.TagLen && d.tag == key.Tag {
			e.decodedHits.Inc()
			res.AppHash, res.Stack = d.app, d.stack
			return true
		}
		e.decodedMisses.Inc()
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
	if cell != nil {
		cell.Store(&decodedTag{tagLen: key.TagLen, tag: key.Tag, dbGen: dbGen, app: res.AppHash, stack: res.Stack})
	}
	return true
}

// evaluateTag is the full miss path: decode the tag and the stack, evaluate
// policy — including, when configured, the contextual risk program over the
// source device's context (the paper's "evaluate once at SYN time" point:
// whatever this returns is what the flow cache serves for the rest of the
// flow, or until the time edge it reports). Per flow only the Decision is
// freshly allocated, and the Stack when the tag was not interned.
func (e *Enforcer) evaluateTag(pkt *ipv4.Packet, data []byte, key *flowtable.Key, now time.Duration) (res Result) {
	if !e.decode(&res, key, data) {
		return res
	}

	// Stage 3: enforcement (latency sampled; see instruments). The flow
	// context — device posture, network class, velocity, virtual clock —
	// is built here, once per flow, and folded into the cached decision.
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
	res.Verdict, res.Decision = decision.Verdict, &decision
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
	return res
}

// ProcessBatch enforces a batch of packets, amortizing work across packets
// of the same flow when a flow cache is configured: consecutive packets
// with identical flow keys (the common shape of a keep-alive train or an
// upload burst) reuse the previous packet's Result without even probing
// the flow table, and the flow table covers non-adjacent repeats. With
// caching disabled every packet pays the full pipeline — the uncached
// configuration is a true per-packet baseline. Results are appended to
// out (reusing its backing array) and returned; out[i] corresponds to
// pkts[i]. Safe for concurrent use — a per-core worker pool can split one
// queue drain into independent ProcessBatch calls.
func (e *Enforcer) ProcessBatch(pkts []*ipv4.Packet, out []Result) []Result {
	if cap(out) < len(pkts) {
		out = make([]Result, 0, len(pkts))
	} else {
		out = out[:0]
	}
	// Per-burst timing: two clock reads and two histogram records for the
	// whole batch (~1 ns/packet at the default burst size), not per packet.
	batchStart := time.Now()
	now := e.now()
	var memo flowMemo
	for _, pkt := range pkts {
		res := e.decide(pkt, &memo, now)
		e.count(res)
		out = append(out, res)
	}
	if e.audit != nil {
		// One audit charge for the whole burst (a single stripe lock in the
		// async pipeline), not one per packet.
		e.audit.RecordBatch(pkts, out)
	}
	if len(pkts) > 0 {
		e.ins.batchLatency.Record(time.Since(batchStart).Nanoseconds())
		e.ins.batchPackets.Record(int64(len(pkts)))
	}
	return out
}

// EndFlow removes a packet's flow from the verdict cache — the explicit
// teardown the gateway calls when it observes a connection close, so dead
// flows free their slot immediately instead of waiting for TTL or
// eviction pressure. The next packet on the same flow re-resolves through
// the full pipeline. Reports whether a cached verdict was removed.
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

// SweepFlows reclaims verdict-cache entries idle past the TTL (half-open flows
// whose teardown the gateway never saw — a lost FIN, a silently dead
// device). Returns how many entries it freed; zero when caching is off or
// the cache has no TTL.
func (e *Enforcer) SweepFlows() int {
	if e.flows == nil {
		return 0
	}
	return e.flows.Sweep()
}

// PurgeFlows empties the verdict cache — the gateway calls this when it
// restarts, modelling the total loss of its RAM tables: every live flow's
// next packet re-resolves through the full extract–decode–evaluate
// pipeline.
func (e *Enforcer) PurgeFlows() {
	if e.flows != nil {
		e.flows.Purge()
	}
}

// RegisterMetrics attaches the enforcer's instruments — verdict and
// drop-cause counters, the sampled latency histograms, the flow-cache
// counters, and the policy engine's evaluation counters — to a registry.
// Everything except the histograms is exported through scrape-time
// closures over counters the enforcer already maintains, so registration
// adds zero hot-path cost.
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
	r.CounterFunc("bp_enforcer_decoded_tag_hits_total",
		"Flow misses whose tag and stack decode the per-tag intern table answered.", e.decodedHits.Value)
	r.CounterFunc("bp_enforcer_decoded_tag_misses_total",
		"Flow misses that decoded their tag and stack (new tag, replaced cell or database change).", e.decodedMisses.Value)
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

	// The policy engine's counters, the contextual-risk families among them,
	// and (when a source is wired) the device-side context series.
	e.engine.RegisterMetrics(r)
	r.RegisterHistogram("bp_context_risk_score",
		"Per-flow contextual risk score at SYN-time evaluation.", e.ins.riskScore)
	if e.ctxSrc != nil {
		e.ctxSrc.RegisterMetrics(r)
	}
}
