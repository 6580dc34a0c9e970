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
// — no tag decode, no stack decode, no policy evaluation. Stages 1–2 and
// stage 3's access half (policy.Access) run once per distinct *tag*,
// database generation and engine generation: the tag's interned record
// carries the app, the stack and the Access, shared by every flow carrying
// it. Only the risk half (policy.Access.Risk) runs once per *flow*, and
// only when the Access admits under a rule set with a risk program: it
// reads the device's context and the virtual time from the context source.
//
// A flow's cache cell holds no pointer (see flowVal): its verdict, its risk
// score and flags, and a handle into the tag table. A hit is exact: the
// packet's tag bytes must equal the interned tag's verbatim, and the handle
// must still resolve, or the hit is a miss. A cached verdict
// self-invalidates when the policy engine, the signature database or the
// source device's context changes (generation counters) and, when a
// time-of-day predicate took part in it, at that predicate's next edge
// (Result.until): the fast path never serves a stale decision, and never
// another tag's stack or reason.
package enforcer

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/netip"
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
// stands for is its verdict, cause, time edge and risk score and flags plus
// the record its handle names in the enforcer's tag table.
type flowVal struct {
	until          uint32
	tag            flowtable.Handle
	score          int32
	verdict, cause uint8
	applied, warn  bool // the Risk's; Blocked is cause == DropRisk
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
	// Flows enables per-flow verdict caching (nil disables it).
	Flows *FlowCache
	// Audit is offered every decision, one per processed packet, on every
	// path that answers one (nil disables auditing). The sink may shed
	// under load: audit.Log keeps or drops each offer and counts both, so
	// bp_audit_recorded_total + bp_audit_dropped_total == offered.
	Audit AuditSink
	// Context supplies per-device context and the virtual time for the
	// policy's risk program. Required: New panics without one. The device's
	// context is read only on the miss path when the rule set carries risk
	// rules, the clock once per Process/ProcessBatch. A hit pays one atomic
	// load: the source device's stripe version, folded into the flow-cache
	// generation, so a device's context change invalidates its own cached
	// verdicts.
	Context *devctx.Source
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

	// dropCauseCount sizes per-cause counters; keep it last so new causes
	// automatically grow the counter array.
	dropCauseCount
)

var causeNames = [dropCauseCount]string{
	"accepted", "untagged", "malformed-tag", "unknown-app", "bad-index", "policy", "risk",
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
// share Stack and Access across flows carrying the same tag; treat both as
// read-only.
type Result struct {
	Verdict policy.Verdict
	Cause   DropCause
	// until is the virtual minute of the first time-predicate edge after this
	// verdict's evaluation: table and memo serve it before, never from then on
	// (zero: never lapses).
	until uint32
	// Risk is the flow's risk half, zero when no risk program scored it. Its
	// EdgeIn is zero: until holds the edge. The 4-byte fields come first,
	// so a Result is 64 bytes.
	Risk policy.Risk
	// AppHash is the decoded app identity (zero when untagged).
	AppHash dex.TruncatedHash
	// Stack is the decoded stack trace (nil when undecodable).
	Stack []dex.Signature
	// Access is stage 3's access half when the policy engine ran (nil
	// otherwise): Access.Decide(Risk) renders the reason and decisive rule.
	Access *policy.Access
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

// decodedTag is one interned tag: the app and stack it decoded to under the
// database generation dbGen (stages 1–2) and stage 3's access half under the
// engine generation the record is stored at in Enforcer.tags. Flows
// carrying the tag share its Stack and Access: a new flow of the tag runs
// at most the risk half. It answers only for a packet whose tag bytes equal
// its own verbatim, under both generations compared in full. Failed decodes
// are neither interned nor cached: such a packet pays the decode every
// time.
type decodedTag struct {
	tagLen uint8
	tag    [flowtable.MaxTagBytes]byte
	app    dex.TruncatedHash
	stack  []dex.Signature
	dbGen  uint64
	access policy.Access
}

func (d *decodedTag) is(data []byte) bool { return string(d.tag[:d.tagLen]) == string(data) }

// internCells sizes the tag table: no workload's working set comes near
// it, so it replaces no live record.
const internCells = 1 << 12

// Latency sampling masks. Two time.Now calls per packet would cost about
// half a cache hit, so a packet is timed when a fastrand word masks to
// zero, drawn before the timed work (unbiased): 1 in 64 flow-table hits,
// 1 in 16 miss pipelines and 1 in 16 access evaluations.
const hitSampleMask, missSampleMask, evalSampleMask = 63, 15, 15

// instruments is the enforcer's always-on telemetry: allocation-free
// histograms recorded with two atomic adds, so the gated benchmarks measure
// the instrumented path. They hold the sampled latency of a flow-table
// probe that hit, of the whole miss pipeline and of the access evaluation
// alone; each ProcessBatch's wall time and burst size; and each scored
// flow's risk score (negative scores clamp to the zero bucket).
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
// state beyond the database's resolve RLock on misses. A call tallies its
// counts and adds each to its counter once, at its return: a
// ProcessBatch's counts become visible to a scrape when it returns, and a
// burst worker writes no counter line per packet.
type Enforcer struct {
	cfg    Config
	db     *analyzer.Database
	engine *policy.Engine
	flows  *FlowCache
	audit  AuditSink
	ctxSrc *devctx.Source
	// current is keyGeneration as a func value, made once: the flow table
	// takes it with every call to tell the cells that can never answer.
	current func(flowtable.Key) uint64

	scratches sync.Pool // *scratch, reused across packets
	// tags interns stages 1–2 and the access half per tag under a database
	// and an engine generation; only the flow cache's miss path fills it.
	tags *flowtable.Intern[decodedTag]

	// Outcome counters are striped metrics counters (padded shards on
	// multi-core), summed only at scrape time; each call adds its tally.
	accepted       *metrics.Counter
	dropped        *metrics.Counter
	droppedByCause [dropCauseCount]*metrics.Counter
	batchMemoHits  *metrics.Counter
	// verdictExpiries counts time-edge re-evaluations.
	verdictExpiries *metrics.Counter
	// tagHits, tagMisses and tagReplacements count the tag table's finds
	// and the stores that replaced a record of the current generation.
	tagHits, tagMisses, tagReplacements *metrics.Counter

	ins instruments
}

// New builds an enforcer. It panics when cfg has no Context.
func New(cfg Config, db *analyzer.Database, engine *policy.Engine) *Enforcer {
	if cfg.Context == nil {
		panic("enforcer: Config.Context is required")
	}
	e := &Enforcer{
		cfg:           cfg,
		db:            db,
		engine:        engine,
		flows:         cfg.Flows,
		audit:         cfg.Audit,
		ctxSrc:        cfg.Context,
		scratches:     sync.Pool{New: func() any { return new(scratch) }},
		accepted:      metrics.NewCounter(),
		dropped:       metrics.NewCounter(),
		batchMemoHits: metrics.NewCounter(),
		ins:           newInstruments(),

		tags:            flowtable.NewIntern[decodedTag](internCells),
		verdictExpiries: metrics.NewCounter(),
		tagHits:         metrics.NewCounter(),
		tagMisses:       metrics.NewCounter(),
		tagReplacements: metrics.NewCounter(),
	}
	for c := range e.droppedByCause {
		e.droppedByCause[c] = metrics.NewCounter()
	}
	e.current = e.keyGeneration
	return e
}

// generation packs the database's, the policy engine's and the source
// device's stripe's (devctx.Stripe) counters into the cache generation,
// db<<42 | engine<<21 | context: a policy swap or a database mutation
// invalidates every cached verdict, a context change those of its stripe.
// A field aliases only when its counter advances by a multiple of 2²¹
// (2²² for the database) between two packets of one cached flow while the
// others stand still.
func (e *Enforcer) generation(src netip.Addr) uint64 {
	return e.db.Generation()<<42 | (e.engine.Generation()&0x1fffff)<<21 | e.ctxSrc.GenerationFor(src)&0x1fffff
}

// keyGeneration is generation for a cached flow, from its key's source
// address: the generation the flow's next packet will be looked up under.
// A cell stamped with another can never answer again, and the flow table
// reclaims it (see flowtable, Invalidation).
func (e *Enforcer) keyGeneration(k flowtable.Key) uint64 {
	var src [4]byte
	binary.BigEndian.PutUint32(src[:], k.Src)
	return e.generation(netip.AddrFrom4(src))
}

// risk scores the packet's flow against a: the source device's snapshot and
// the virtual clock, read only when a reads context (the zero Risk
// otherwise).
func (e *Enforcer) risk(a *policy.Access, pkt *ipv4.Packet, now time.Duration) policy.Risk {
	if !a.ReadsContext() {
		return policy.Risk{}
	}
	var fc policy.FlowContext
	fc.Device, _ = e.ctxSrc.Lookup(pkt.Header.Src)
	fc.MinuteOfDay, fc.Weekday = policy.TimeOfVirtual(now)
	r := a.Risk(&fc)
	e.ins.riskScore.Record(int64(r.Score))
	return r
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
	var n tally
	res := e.decide(pkt, nil, &n, e.ctxSrc.Now())
	n.count(&res)
	e.add(&n)
	if e.audit != nil {
		e.audit.Record(pkt, res)
	}
	return res
}

// tally is one call's counts, kept in locals until e.add publishes them.
type tally struct {
	accepted, dropped, memoHits, expiries uint64
	tagHits, tagMisses, tagReplacements   uint64
	byCause                               [dropCauseCount]uint64
}

// count tallies one processed packet's outcome.
func (n *tally) count(res *Result) {
	if res.Verdict == policy.VerdictAllow {
		n.accepted++
	} else {
		n.dropped++
		if res.Cause >= 0 && int(res.Cause) < len(n.byCause) {
			n.byCause[res.Cause]++
		}
	}
}

// add publishes a call's tally: one add per counter it moved.
func (e *Enforcer) add(n *tally) {
	addNonzero(e.accepted, n.accepted)
	addNonzero(e.dropped, n.dropped)
	addNonzero(e.batchMemoHits, n.memoHits)
	addNonzero(e.verdictExpiries, n.expiries)
	addNonzero(e.tagHits, n.tagHits)
	addNonzero(e.tagMisses, n.tagMisses)
	addNonzero(e.tagReplacements, n.tagReplacements)
	for c, k := range n.byCause {
		addNonzero(e.droppedByCause[c], k)
	}
}

func addNonzero(c *metrics.Counter, n uint64) {
	if n != 0 {
		c.Add(n)
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
// the caller's one clock reading: memo, table and evaluation share it. The
// memo, expiry and tag-table counts go to the caller's tally n.
func (e *Enforcer) decide(pkt *ipv4.Packet, memo *flowMemo, n *tally, now time.Duration) (res Result) {
	// Stage 1: extraction.
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		return e.untagged()
	}
	if e.flows == nil {
		return e.timedEvaluate(pkt, opt.Data, nil, n, now)
	}
	// Fast path: probe the flow table. The generation is read before the
	// probe (and before any evaluation) so that a concurrent
	// SetRules/AddEntry makes the inserted entry stale rather than letting
	// a pre-update verdict survive under the new generation.
	gen := e.generation(pkt.Header.Src)
	var key flowtable.Key
	if !flowKey(&key, pkt, opt.Data) {
		return e.timedEvaluate(pkt, opt.Data, nil, n, now)
	}
	if memo != nil && memo.valid && key == memo.key && gen == memo.gen &&
		string(opt.Data) == string(memo.tag) && !memo.res.lapsed(now) {
		n.memoHits++
		return memo.res
	}
	// The sampling decision precedes the probe so the timed subset is an
	// unbiased slice of lookups; untimed packets pay one fastrand draw.
	var hitStart time.Time
	timed := rand.Uint32()&hitSampleMask == 0
	if timed {
		hitStart = time.Now()
	}
	_, ok := e.flows.Lookup(key, gen, e.current, func(v *flowVal) bool { return e.answer(v, opt.Data, &res) })
	if ok && res.lapsed(now) {
		// Past its time edge: re-evaluate, overwrite the cell in place.
		ok = false
		n.expiries++
	}
	if ok {
		if timed {
			e.ins.hitLatency.Record(time.Since(hitStart).Nanoseconds())
		}
	} else {
		var v flowVal
		res = e.timedEvaluate(pkt, opt.Data, &v, n, now)
		if v.tag != 0 {
			e.flows.Insert(key, gen, e.current, v)
		}
	}
	if memo != nil {
		memo.key, memo.tag, memo.gen, memo.res, memo.valid = key, opt.Data, gen, res, true
	}
	return res
}

// answer completes res from a cached flow's value, or reports false — a
// miss — when the packet's tag bytes are not the flow's interned tag (a
// digest collision) or the record the value names has been replaced.
func (e *Enforcer) answer(v *flowVal, data []byte, res *Result) bool {
	t := e.tags.Get(v.tag)
	if t == nil || !t.is(data) {
		return false
	}
	*res = Result{Verdict: policy.Verdict(v.verdict), Cause: DropCause(v.cause), until: v.until,
		AppHash: t.app, Stack: t.stack, Access: &t.access, Risk: policy.Risk{Score: v.score,
			Applied: v.applied, Warn: v.warn, Blocked: DropCause(v.cause) == DropRisk}}
	return true
}

// timedEvaluate runs the full miss pipeline, recording its latency for a
// sampled subset of calls.
func (e *Enforcer) timedEvaluate(pkt *ipv4.Packet, data []byte, v *flowVal, n *tally, now time.Duration) Result {
	if rand.Uint32()&missSampleMask != 0 {
		return e.evaluateTag(pkt, data, v, n, now)
	}
	start := time.Now()
	res := e.evaluateTag(pkt, data, v, n, now)
	e.ins.missLatency.Record(time.Since(start).Nanoseconds())
	return res
}

func (e *Enforcer) untagged() Result {
	if e.cfg.AllowUntagged {
		return Result{Verdict: policy.VerdictAllow}
	}
	return Result{Verdict: policy.VerdictDrop, Cause: DropUntagged}
}

// decode runs stages 1–2 on a raw tag. It fills in AppHash and Stack and
// reports true, or the packet's final Result and false.
func (e *Enforcer) decode(res *Result, data []byte) bool {
	sc := e.scratches.Get().(*scratch)
	defer e.scratches.Put(sc)

	if err := tag.DecodeInto(&sc.tag, data); err != nil {
		*res = Result{Verdict: policy.VerdictDrop, Cause: DropMalformedTag}
		return false
	}
	resolver, known := e.db.Resolve(sc.tag.AppHash)
	if !known {
		*res = Result{Verdict: policy.VerdictDrop, Cause: DropUnknownApp, AppHash: sc.tag.AppHash}
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
	return true
}

// evaluateTag is the full miss path: decode the tag and the stack, and run
// the access rules on them, then score the flow's device context when the
// Access admits under a risk program (the paper's "evaluate once at SYN
// time"). With v non-nil (a cacheable flow) the first three go through the
// tag table, once per tag and generation, and v is filled, its tag handle
// nonzero exactly when the flow may be cached; uncached, every packet pays
// all three stages and its Access is allocated per packet. The tag table's
// finds and replacements go to n.
func (e *Enforcer) evaluateTag(pkt *ipv4.Packet, data []byte, v *flowVal, n *tally, now time.Duration) (res Result) {
	var h, dbGen, engGen uint64
	var rec *decodedTag
	if v != nil {
		// Both generations are read before the work they stamp: a record
		// raced by a mutation or a swap is born stale.
		h, dbGen, engGen = flowtable.Digest(data), e.db.Generation(), e.engine.Generation()
		rec, v.tag = e.tags.Find(h, engGen, func(d *decodedTag) bool { return d.dbGen == dbGen && d.is(data) })
		if rec != nil {
			n.tagHits++
		} else {
			n.tagMisses++
		}
	}
	if rec != nil {
		res.AppHash, res.Stack, res.Access = rec.app, rec.stack, &rec.access
	} else {
		if !e.decode(&res, data) {
			return res
		}
		// Stage 3's access half (latency sampled; see instruments).
		var access policy.Access
		if rand.Uint32()&evalSampleMask == 0 {
			evalStart := time.Now()
			access = e.engine.Access(res.AppHash, res.Stack)
			e.ins.evalLatency.Record(time.Since(evalStart).Nanoseconds())
		} else {
			access = e.engine.Access(res.AppHash, res.Stack)
		}
		if v == nil {
			a := access // only an uncached packet allocates its Access
			res.Access = &a
		} else {
			// Stored once, after the access half, so the record is immutable.
			r := decodedTag{tagLen: uint8(len(data)), app: res.AppHash, stack: res.Stack, dbGen: dbGen, access: access}
			copy(r.tag[:], data)
			var replaced bool
			rec, v.tag, replaced = e.tags.Store(h, engGen, r)
			if replaced {
				n.tagReplacements++
			}
			res.Access = &rec.access
		}
	}

	// Stage 3's risk half: the flow context — device posture, network
	// class, velocity, virtual clock — under the Access's own rule set.
	res.Risk = e.risk(res.Access, pkt, now)
	res.Verdict = res.Access.Verdict
	switch {
	case res.Risk.Blocked:
		res.Verdict, res.Cause = policy.VerdictDrop, DropRisk
	case res.Verdict == policy.VerdictDrop:
		res.Cause = DropPolicy
	}
	if res.Risk.EdgeIn > 0 {
		// Whole minutes, as policy.TimeOfVirtual counts them.
		res.until = uint32(now/time.Minute) + uint32(res.Risk.EdgeIn)
		res.Risk.EdgeIn = 0
	}
	if v != nil {
		*v = flowVal{until: res.until, tag: v.tag, score: res.Risk.Score, verdict: uint8(res.Verdict),
			cause: uint8(res.Cause), applied: res.Risk.Applied, warn: res.Risk.Warn}
	}
	return res
}

// ProcessBatch enforces a batch of packets. With a flow cache, a packet of
// the same flow and tag as the one before it (a keep-alive train, an upload
// burst) reuses that packet's Result without probing the table; uncached,
// every packet pays the full pipeline. Results are appended to out (reusing
// its backing array) and returned; out[i] corresponds to pkts[i]. The
// burst's counts are tallied in locals and reach the registry when it
// returns, one add per counter.
func (e *Enforcer) ProcessBatch(pkts []*ipv4.Packet, out []Result) []Result {
	if cap(out) < len(pkts) {
		out = make([]Result, 0, len(pkts))
	} else {
		out = out[:0]
	}
	batchStart := time.Now()
	now := e.ctxSrc.Now()
	var memo flowMemo
	var n tally
	for _, pkt := range pkts {
		res := e.decide(pkt, &memo, &n, now)
		n.count(&res)
		out = append(out, res)
	}
	e.add(&n)
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

// SweepFlows reclaims every verdict-cache entry that can never answer again
// and returns how many: flows idle past the TTL (their teardown was never
// seen), and flows cached under a generation that a policy swap, a database
// mutation or a context flip on their device's stripe has since moved. A
// shard already reclaims its own before its index doubles; the sweep frees
// what no insert passes over.
func (e *Enforcer) SweepFlows() int {
	if e.flows == nil {
		return 0
	}
	return e.flows.Sweep(e.current)
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
	r.CounterFunc("bp_enforcer_decoded_tag_hits_total", "Lookups answered by an interned decoded tag.", e.tagHits.Value)
	r.CounterFunc("bp_enforcer_decoded_tag_misses_total", "Lookups that found no interned decoded tag and built one.", e.tagMisses.Value)
	r.CounterFunc("bp_enforcer_decoded_tag_replacements_total",
		"Interned decoded tags of the current generation replaced by a newcomer.", e.tagReplacements.Value)
	r.CounterFunc("bp_enforcer_verdict_expiries_total",
		"Cached verdicts re-evaluated because a time-of-day predicate's edge was reached.", e.verdictExpiries.Value)

	r.RegisterHistogram("bp_enforcer_cache_hit_latency_ns",
		"Flow-table probe latency on a hit (sampled 1/64).", e.ins.hitLatency)
	r.RegisterHistogram("bp_enforcer_cache_miss_latency_ns",
		"Full extract-decode-evaluate pipeline latency (sampled 1/16).", e.ins.missLatency)
	r.RegisterHistogram("bp_enforcer_evaluate_latency_ns",
		"Policy-engine access evaluation latency (sampled 1/16).", e.ins.evalLatency)
	r.RegisterHistogram("bp_enforcer_batch_latency_ns",
		"ProcessBatch wall time per burst.", e.ins.batchLatency)
	r.RegisterHistogram("bp_enforcer_batch_packets",
		"Packets per ProcessBatch burst.", e.ins.batchPackets)

	if e.flows != nil {
		e.flows.RegisterMetrics(r)
	}

	e.engine.RegisterMetrics(r)
	r.RegisterHistogram("bp_context_risk_score",
		"Per-flow contextual risk score at SYN-time scoring.", e.ins.riskScore)
	e.ctxSrc.RegisterMetrics(r)
}
