package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"os"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/audit"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/dns"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// spanKind names a timed call. Spans are recorded from here, around the
// calls into each layer; spans inside the program are a later change.
type spanKind uint8

const (
	// On T0, the whole path: the timed region of the untraced run.
	spInvoke spanKind = iota
	spDeliver
	spReload
	spFlip
	// On the twins, the same operation's packets one level down.
	spGateway   // T1: Gateway.ProcessBatch, child of spDeliver
	spEnforcer  // T2: Enforcer.ProcessBatch, child of spGateway
	spSanitizer // T2: Sanitizer.Process over the accepted, child of spGateway
	spConntrack // T2: Conntrack.Observe over the accepted, child of spGateway
	spServe     // T3: gateway-less DeliverBatch of T1's survivors, child of spDeliver
	// Probes: direct calls that re-measure a slice of a layer on the same
	// input. They are siblings, never subtracted from a parent.
	spAudit
	spTagDecode
	spStackDecode
	spEvaluate
	spParseTCP
	spParseRequest
	spZoneHandler
	spConnect
	spConnectBare
	spSend
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"android.invoke", "netsim.deliver", "policystore.reload", "devctx.set_network",
	"netsim.gateway", "enforcer.batch", "sanitizer.process", "netsim.conntrack_observe", "netsim.serve",
	"audit.record", "tag.decode", "analyzer.decode_stack", "policy.evaluate",
	"transport.parse_tcp", "httpsim.parse_request", "dns.zone_handler",
	"netstack.connect", "netstack.connect_bare", "kernel.send",
}

// span is one timed call: what, for which operation, caused by which
// span (-1: top level or probe), over how many items (packets or calls),
// from when to when (ns since the recorder's epoch).
type span struct {
	kind       spanKind
	op         uint32
	parent     int32
	items      uint32
	start, end int64
}

// recorder keeps spans in a preallocated slice; nothing is aggregated or
// written until the workload ends.
type recorder struct {
	epoch time.Time
	spans []span
}

// maxSpans bounds a traced run: 32 B each, pointer-free.
const maxSpans = 1 << 22

func (r *recorder) add(kind spanKind, op int, parent int32, items int, iv interval) int32 {
	if r == nil || iv.start.IsZero() {
		return -1
	}
	r.spans = append(r.spans, span{kind: kind, op: uint32(op), parent: parent, items: uint32(items),
		start: int64(iv.start.Sub(r.epoch)), end: int64(iv.end.Sub(r.epoch))})
	return int32(len(r.spans) - 1)
}

// full reports whether another chunk's spans might not fit.
func (r *recorder) full() bool { return r != nil && cap(r.spans)-len(r.spans) < 1<<14 }

// layerSum is one span kind's aggregate. self is the total minus the
// children measured on the same input.
type layerSum struct{ ns, self, spans, items int64 }

func (r *recorder) aggregate() [numSpanKinds]layerSum {
	var sum [numSpanKinds]layerSum
	for _, s := range r.spans {
		d := s.end - s.start
		l := &sum[s.kind]
		l.ns += d
		l.self += d
		l.spans++
		l.items += int64(s.items)
		if s.parent >= 0 {
			sum[r.spans[s.parent].kind].self -= d
		}
	}
	return sum
}

func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		err = enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Op     uint32 `json:"op"`
			Parent int32  `json:"parent"`
			Items  uint32 `json:"items"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, spanNames[s.kind], s.op, s.parent, s.items, s.start, s.end})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// The framework prologue and java.net epilogue android.App.Invoke wraps
// around an app's call path; none resolves against an app's dex, so the
// Context Manager filters them out as it does Invoke's own.
var (
	prologue = []dex.Frame{
		{Class: "com/android/internal/os/ZygoteInit", Method: "main", File: "ZygoteInit.java", Line: 801},
		{Class: "android/app/ActivityThread", Method: "main", File: "ActivityThread.java", Line: 6119},
		{Class: "android/os/Looper", Method: "loop", File: "Looper.java", Line: 154},
		{Class: "android/os/Handler", Method: "dispatchMessage", File: "Handler.java", Line: 102},
	}
	epilogue = []dex.Frame{
		{Class: "java/net/Socket", Method: "connect", File: "Socket.java", Line: 586},
		{Class: "java/net/AbstractPlainSocketImpl", Method: "connect", File: "AbstractPlainSocketImpl.java", Line: 334},
	}
)

// probeEvery is how many device operations share one socket probe
// (Connect on the provisioned and on a bare device, then the Sends).
const probeEvery = 8

// chunkPackets is how much T0 runs undisturbed before the twins catch
// up: the longer, the closer T0 stays to an untraced run.
const chunkPackets = 4 * burstSize

// tracedOp is what T0 did with one operation, kept for the twins.
type tracedOp struct {
	op        int
	fn        int32
	pkts      []*ipv4.Packet
	delivered []bool
	ctl       control
	// gwClock is T0's virtual time when its gateway saw the burst.
	gwClock time.Duration
	deliver int32 // span indexes
	gateway int32
	surv    []*ipv4.Packet
}

// tracer drives the twin testbeds. Built from one seed and fed every
// operation's packets at a different depth, their stateful layers evolve
// as T0's do: T0 the whole path, T1 Gateway.ProcessBatch, T2
// Enforcer.ProcessBatch then the sanitizer and conntrack loops, T3 the
// gateway-less serve of T1's survivors.
type tracer struct {
	e              *env
	t0, t1, t2, t3 *experiments.Testbed
	rec            *recorder
	ct             *netsim.Conntrack
	audit          *audit.Log
	bare           *android.Device
	zoneHandler    func([]byte) []byte
	chunkOps       int
	mismatches     int
	tot            totals
	mark           scrape

	chunk   []tracedOp
	results []enforcer.Result
	closes  []*ipv4.Packet
	// Probe scratch.
	tagData [][]byte
	tags    []tag.Tag
	stacks  [][]dex.Signature
	segs    []*transport.TCPSegment
	queries [][]byte
	sink    int
}

func newTracer(e *env) *tracer {
	tr := &tracer{e: e, t0: e.tbs[0], t1: e.tbs[1], t2: e.tbs[2], t3: e.tbs[3]}
	// T3 serves without a gateway: what is left of DeliverBatch when no
	// packet is enforced, sanitized or checked on the way back.
	tr.t3.Network.Gateway = nil
	tr.ct = netsim.NewConntrack(tr.t2.Network.Clock)
	tr.audit = audit.New(nil, 256)
	tr.bare = android.NewDevice(android.Config{
		Addr:   netip.MustParseAddr("10.66.0.3"),
		Kernel: kernel.Config{AllowUnprivilegedIPOptions: true, SetOptionsOncePerSocket: true},
	})
	if e.udp {
		tr.zoneHandler = dns.ZoneHandler(e.zone)
	}
	tr.chunkOps = chunkPackets / burstSize
	if !e.pooled {
		tr.chunkOps = max(1, chunkPackets/e.phases())
	}
	tr.chunk = make([]tracedOp, tr.chunkOps)
	return tr
}

func (tr *tracer) close() { _ = tr.audit.Close() }

// drive runs operations [from, ...) through T0 and the twins, chunk by
// chunk: until `to` when seconds is 0, else to the first boundary past
// the deadline. With a nil recorder it is the twins' warm-up.
func (tr *tracer) drive(from, to int, seconds float64) error {
	e := tr.e
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var out opOut
	for op, done := from, false; !done; {
		n := 0
		for n < tr.chunkOps && !done {
			c := &tr.chunk[n]
			clock := tr.t0.Network.Clock.Now()
			if err := e.step(tr.t0, op, &out); err != nil {
				return err
			}
			// Pooled bursts share the env's buffer: keep a copy.
			c.op, c.pkts, c.ctl = op, append(c.pkts[:0], out.pkts...), out.control
			c.fn = -1
			if !e.pooled {
				c.fn = e.sched[op%len(e.sched)]
			}
			c.delivered = c.delivered[:0]
			for _, d := range out.dels {
				c.delivered = append(c.delivered, d.Delivered)
			}
			c.gwClock = clock + tr.preGateway(len(out.pkts))
			if tr.rec != nil {
				tr.tot.add(&out)
				tr.rec.add(spInvoke, op, -1, len(out.pkts), out.invoke)
				tr.rec.add(spReload, op, -1, 1, out.reload)
				tr.rec.add(spFlip, op, -1, 1, out.flip)
				c.deliver = tr.rec.add(spDeliver, op, -1, len(out.pkts), out.deliver)
				if tr.tot.ops == e.heapOps {
					tr.mark = scrapeRegistry(tr.t0.Metrics)
				}
			}
			n++
			op++
			if seconds > 0 {
				done = (e.atBoundary(op-1-e.warmOps) && !out.deliver.end.Before(deadline)) || tr.rec.full()
			} else {
				done = op >= to
			}
		}
		if err := tr.twins(tr.chunk[:n]); err != nil {
			return err
		}
	}
	return nil
}

// preGateway is the virtual time DeliverBatch charges a burst of n before
// its gateway runs (TAP NIC, one queue hop, enforcer and sanitizer
// stages): what the twins' clocks must read for TTLs and TIME_WAIT to
// expire as they do on T0.
func (tr *tracer) preGateway(n int) time.Duration {
	m := tr.t0.Network.Model
	return m.NFQueueHopPerPacket + time.Duration(n)*(m.TapPerPacket+m.EnforcerPerPacket+m.SanitizerPerPacket)
}

func advanceTo(c *netsim.Clock, t time.Duration) { c.Advance(t - c.Now()) }

func (tr *tracer) twins(chunk []tracedOp) error {
	e := tr.e
	// T1: the gateway.
	for i := range chunk {
		c := &chunk[i]
		if err := e.follow(tr.t1, c.ctl); err != nil {
			return err
		}
		advanceTo(tr.t1.Network.Clock, c.gwClock)
		var iv interval
		iv.start = time.Now()
		outs, err := tr.t1.Network.Gateway.ProcessBatch(c.pkts)
		iv.end = time.Now()
		if err != nil {
			return err
		}
		c.gateway = tr.rec.add(spGateway, c.op, c.deliver, len(c.pkts), iv)
		c.surv = c.surv[:0]
		for p, o := range outs {
			if (o.Out != nil) != c.delivered[p] {
				tr.mismatches++
			}
			if o.Out != nil {
				c.surv = append(c.surv, o.Out)
			}
		}
	}
	// T2: the gateway's stages, each timed once per burst.
	san := tr.t2.Network.Gateway.Sanitizer()
	for i := range chunk {
		c := &chunk[i]
		if err := e.follow(tr.t2, c.ctl); err != nil {
			return err
		}
		advanceTo(tr.t2.Network.Clock, c.gwClock)
		var enf, sz, ct, au interval
		enf.start = time.Now()
		tr.results = tr.t2.Enforcer.ProcessBatch(c.pkts, tr.results)
		enf.end = time.Now()
		accepted := 0
		for p, r := range tr.results {
			ok := r.Verdict != policy.VerdictDrop
			if ok != c.delivered[p] {
				tr.mismatches++
			}
			if ok {
				accepted++
			}
		}
		sz.start = time.Now()
		for p, r := range tr.results {
			if r.Verdict != policy.VerdictDrop {
				san.Process(c.pkts[p].Clone())
			}
		}
		sz.end = time.Now()
		tr.closes = tr.closes[:0]
		ct.start = time.Now()
		for p, r := range tr.results {
			if r.Verdict != policy.VerdictDrop && tr.ct.Observe(c.pkts[p]) {
				tr.closes = append(tr.closes, c.pkts[p])
			}
		}
		ct.end = time.Now()
		for _, pkt := range tr.closes {
			tr.t2.Enforcer.EndFlow(pkt)
		}
		au.start = time.Now()
		tr.audit.RecordBatch(c.pkts, tr.results)
		au.end = time.Now()
		tr.rec.add(spEnforcer, c.op, c.gateway, len(c.pkts), enf)
		tr.rec.add(spSanitizer, c.op, c.gateway, accepted, sz)
		tr.rec.add(spConntrack, c.op, c.gateway, accepted, ct)
		tr.rec.add(spAudit, c.op, -1, len(c.pkts), au)
	}
	// T3: the serve. Its policy engine follows the swaps because the
	// evaluate probe below runs on it.
	for i := range chunk {
		c := &chunk[i]
		if err := e.follow(tr.t3, c.ctl); err != nil {
			return err
		}
		if len(c.surv) == 0 {
			continue
		}
		var iv interval
		iv.start = time.Now()
		dels := tr.t3.Network.DeliverBatch(c.surv)
		iv.end = time.Now()
		tr.rec.add(spServe, c.op, c.deliver, len(c.surv), iv)
		for _, d := range dels {
			if !d.Delivered {
				tr.mismatches++
			}
		}
	}
	tr.probeMissPath(chunk)
	tr.probeParsers(chunk)
	if !e.pooled {
		for i := range chunk {
			if chunk[i].op%probeEvery == 0 {
				if err := tr.probeSocket(&chunk[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// probeMissPath walks every flow-first packet of the chunk through the
// three steps of the enforcer's miss path, each step one timed loop.
func (tr *tracer) probeMissPath(chunk []tracedOp) {
	e := tr.e
	tr.tagData = tr.tagData[:0]
	for i := range chunk {
		c := &chunk[i]
		firsts := c.pkts[:1]
		if e.pooled {
			if e.burstPhase(c.op) != 0 {
				continue
			}
			firsts = c.pkts
		}
		for _, pkt := range firsts {
			if opt, ok := pkt.Header.FindOption(ipv4.OptSecurity); ok {
				tr.tagData = append(tr.tagData, opt.Data)
			}
		}
	}
	n := len(tr.tagData)
	if n == 0 {
		return
	}
	for len(tr.tags) < n {
		tr.tags = append(tr.tags, tag.Tag{})
		tr.stacks = append(tr.stacks, nil)
	}
	op := chunk[0].op
	var iv interval
	iv.start = time.Now()
	for i, data := range tr.tagData {
		if tag.DecodeInto(&tr.tags[i], data) != nil {
			tr.mismatches++
		}
	}
	iv.end = time.Now()
	tr.rec.add(spTagDecode, op, -1, n, iv)

	db, engine := tr.t3.DB, tr.t3.Engine
	iv.start = time.Now()
	for i := range tr.tagData {
		resolver, ok := db.Resolve(tr.tags[i].AppHash)
		if !ok {
			tr.mismatches++
			continue
		}
		tr.stacks[i], _ = resolver.DecodeStackInto(tr.stacks[i][:0], tr.tags[i].Indexes)
	}
	iv.end = time.Now()
	tr.rec.add(spStackDecode, op, -1, n, iv)

	iv.start = time.Now()
	for i := range tr.tagData {
		tr.sink += int(engine.Evaluate(tr.tags[i].AppHash, tr.stacks[i]).Verdict)
	}
	iv.end = time.Now()
	tr.rec.add(spEvaluate, op, -1, n, iv)
}

// probeParsers runs the server's parsers over T1's sanitized survivors.
func (tr *tracer) probeParsers(chunk []tracedOp) {
	op := chunk[0].op
	var iv interval
	if tr.e.udp {
		tr.queries = tr.queries[:0]
		for i := range chunk {
			for _, pkt := range chunk[i].surv {
				if dg, err := transport.ParseUDP(pkt.Payload); err == nil {
					tr.queries = append(tr.queries, dg.Payload)
				}
			}
		}
		iv.start = time.Now()
		for _, q := range tr.queries {
			tr.sink += len(tr.zoneHandler(q))
		}
		iv.end = time.Now()
		tr.rec.add(spZoneHandler, op, -1, len(tr.queries), iv)
		return
	}
	tr.segs = tr.segs[:0]
	n := 0
	iv.start = time.Now()
	for i := range chunk {
		for _, pkt := range chunk[i].surv {
			n++
			if seg, err := transport.ParseTCP(pkt.Payload); err == nil && len(seg.Payload) > 0 {
				tr.segs = append(tr.segs, seg)
			}
		}
	}
	iv.end = time.Now()
	tr.rec.add(spParseTCP, op, -1, n, iv)
	iv.start = time.Now()
	for _, seg := range tr.segs {
		if req, err := httpsim.ParseRequest(seg.Payload); err == nil {
			tr.sink += len(req.Body)
		}
	}
	iv.end = time.Now()
	tr.rec.add(spParseRequest, op, -1, len(tr.segs), iv)
}

// probeSocket repeats an operation's socket calls on T1's provisioned
// device (otherwise idle) and its Connect on a bare device with no module
// loaded: the difference is the Context Manager's tagging.
func (tr *tracer) probeSocket(c *tracedOp) error {
	f := tr.e.fns[c.fn]
	fn := &tr.e.corpus[f.app].Functionalities[f.idx]
	app := tr.t1.Apps[f.app]
	seg, err := transport.ParseTCP(c.pkts[1].Payload)
	if err != nil {
		return err
	}
	th := app.Thread()
	th.PushAll(prologue)
	th.PushAll(fn.CallPath)
	th.PushAll(epilogue)
	sock := tr.t1.Device.Stack().NewJavaSocket(app.UID)
	var iv interval
	iv.start = time.Now()
	err = sock.Connect(fn.Op.Endpoint)
	iv.end = time.Now()
	th.PopN(len(prologue) + len(fn.CallPath) + len(epilogue))
	if err != nil {
		return err
	}
	tr.rec.add(spConnect, c.op, -1, 1, iv)
	if _, err := sock.Handshake(); err != nil {
		return err
	}
	iv.start = time.Now()
	for r := 0; r < tr.e.requests; r++ {
		if _, err := sock.Send(seg.Payload); err != nil {
			return err
		}
	}
	iv.end = time.Now()
	tr.rec.add(spSend, c.op, -1, tr.e.requests, iv)
	if _, err := sock.Finish(); err != nil {
		return err
	}
	if err := sock.Close(); err != nil {
		return err
	}

	plain := tr.bare.Stack().NewJavaSocket(app.UID)
	iv.start = time.Now()
	err = plain.Connect(fn.Op.Endpoint)
	iv.end = time.Now()
	if err != nil {
		return err
	}
	tr.rec.add(spConnectBare, c.op, -1, 1, iv)
	return plain.Close()
}

// runTraced measures the per-layer metrics. An untraced reference phase
// on its own testbed comes first (tracing overhead is measured against
// it, and the collector and tail readings are its); then the twins run
// the same seeded stream with spans on.
func runTraced(w *workload, cfg config, traceOut string) (*report, error) {
	rep := newReport(w, cfg, true)
	const refShare = 0.35

	ref, err := setUp(w, cfg, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := ref.warmUp(ref.tbs[0]); err != nil {
		ref.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ref.countOps = max(ref.countOps/4, 1)
	ph, err := ref.measure(ref.tbs[0], cfg.seconds*refShare, 0, make([]int64, 0, cfg.bufferCap(ref.countOps, maxSamples)))
	ref.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	e, err := setUp(w, cfg, 4)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer e.close()
	tr := newTracer(e)
	defer tr.close()
	if err := tr.drive(0, e.warmOps, 0); err != nil {
		return nil, fmt.Errorf("%s: twin warm-up: %w", w.name, err)
	}
	reg0 := scrapeRegistry(tr.t0.Metrics)
	tracedOps := max(e.countOps/4, 1)
	// At most a dozen spans per operation, probes included.
	tr.rec = &recorder{epoch: time.Now(), spans: make([]span, 0, cfg.bufferCap(12*tracedOps+64, maxSpans))}
	if err := tr.drive(e.warmOps, e.warmOps+tracedOps, cfg.seconds*(1-refShare)); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	reg1 := scrapeRegistry(tr.t0.Metrics)
	if tr.mark == nil {
		tr.mark = reg1
	}
	if traceOut != "" {
		if err := tr.rec.dump(traceOut); err != nil {
			return nil, err
		}
	}

	t := &tr.tot
	rep.ops, rep.pkts, rep.failed = ph.ops+t.ops, ph.pkts+t.pkts, ph.failed+t.failed // both phases
	if rep.failed > 0 {
		rep.problem("%d packets met another fate than the oracle's", rep.failed)
	}
	if tr.mismatches > 0 {
		rep.problem("%d twin verdicts differ from T0's", tr.mismatches)
	}
	sum := tr.rec.aggregate()
	pkts := float64(t.pkts)
	perPkt := func(k spanKind) float64 { return float64(sum[k].ns) / pkts }
	perItem := func(k spanKind) float64 { return ratio(float64(sum[k].ns), float64(sum[k].items)) }
	na := func(k spanKind) string {
		if sum[k].items == 0 {
			return "no such call on this workload"
		}
		return fmt.Sprintf("n=%d", sum[k].items)
	}
	d := func(keys ...string) float64 { return reg1.get(keys...) - reg0.get(keys...) }
	processed := d(famAllow, famDrop)

	rep.set("android.invoke_ns_per_pkt", perPkt(spInvoke), "")
	bare, tagged := perItem(spConnectBare), perItem(spConnect)
	rep.set("netstack.connect_us", bare/1e3, na(spConnectBare))
	rep.set("contextmgr.tag_us", (tagged-bare)/1e3, na(spConnect))
	rep.set("kernel.send_ns", perItem(spSend), na(spSend))
	rep.set("netsim.deliver_ns_per_pkt", perPkt(spDeliver), "")
	rep.set("netsim.gateway_ns_per_pkt", perPkt(spGateway), "")
	rep.set("enforcer.batch_ns_per_pkt", perPkt(spEnforcer), "")
	rep.set("enforcer.miss_share", ratio(d(famMisses), processed), "")
	rep.set("enforcer.memo_hit_share", ratio(d(famMemo), processed), "")
	rep.set("flowtable.hit_share", ratio(d(famHits), processed), "")
	rep.set("flowtable.live_entries", tr.mark.get(famLive), fmt.Sprintf("after %d operations", min(e.heapOps, t.ops)))
	rep.set("flowtable.evictions_per_kpkt", ratio(d(famEvictions), processed/1000), "")
	rep.set("tag.decode_ns", perItem(spTagDecode), na(spTagDecode))
	rep.set("analyzer.decode_stack_ns", perItem(spStackDecode), na(spStackDecode))
	rep.set("policy.evaluate_ns", perItem(spEvaluate), na(spEvaluate))
	rep.set("sanitizer.process_ns", perItem(spSanitizer), na(spSanitizer))
	rep.set("netsim.conntrack_observe_ns", perItem(spConntrack), na(spConntrack))
	rep.set("netsim.conntrack_open_at_mark", tr.mark.get(famOpen), fmt.Sprintf("after %d operations", min(e.heapOps, t.ops)))
	rep.set("kernel.netfilter_ns_per_pkt", float64(sum[spGateway].self)/pkts, "by difference")
	rep.set("netsim.serve_ns_per_pkt", perPkt(spServe), "")
	rep.set("transport.parse_tcp_ns", perItem(spParseTCP), na(spParseTCP))
	rep.set("httpsim.parse_request_ns", perItem(spParseRequest), na(spParseRequest))
	rep.set("dns.zone_handler_ns", perItem(spZoneHandler), na(spZoneHandler))
	rep.set("netsim.response_ns_per_pkt", float64(sum[spDeliver].self)/pkts, "by difference")
	rep.set("audit.record_ns", perItem(spAudit), na(spAudit))

	// Control plane, collector, generator and tail: from the untraced
	// reference phase.
	swap, _ := quantile(sortedCopy(ph.reloads), 0.5)
	rep.set("policystore.swap_ms_p50", swap/1e6, fmt.Sprintf("n=%d", len(ph.reloads)))
	rep.set("devctx.flip_us", ratio(float64(ph.flipNs), float64(ph.flips))/1e3, fmt.Sprintf("n=%d", ph.flips))
	sorted := sortedCopy(ph.samples)
	p50, _ := quantile(sorted, 0.5)
	rep.set("enforcer.invalidation_burst_ratio", mean(ph.afterInvalidation)/p50, fmt.Sprintf("n=%d", len(ph.afterInvalidation)))
	rep.set("runtime.gc_cpu_share", ratio(ph.gc1.gcCPU-ph.gc0.gcCPU, ph.gc1.totalCPU-ph.gc0.totalCPU), "")
	rep.set("runtime.gc_cycles", float64(ph.gc1.cycles-ph.gc0.cycles), fmt.Sprintf("in %.1f s", float64(ph.timedNs()+ph.genNs)/1e9))
	rep.set("loadgen.gen_ns_per_pkt", float64(ph.genNs)/float64(ph.pkts), "")
	for _, tail := range []struct {
		name string
		q    float64
	}{{"loadgen.op_us_p99", 0.99}, {"loadgen.op_us_p999", 0.999}} {
		v, ok := quantile(sorted, tail.q)
		if !ok {
			rep.set(tail.name, math.NaN(), fmt.Sprintf("withheld: fewer than %d of n=%d samples lie beyond it", minBeyond, len(sorted)))
			continue
		}
		rep.set(tail.name, v/1e3, fmt.Sprintf("n=%d", len(sorted)))
	}

	untraced := float64(ph.timedNs()) / float64(ph.pkts)
	traced := float64(t.timedNs()) / pkts
	rep.set("trace.overhead_share", (traced-untraced)/untraced, fmt.Sprintf("%.0f ns/pkt traced, %.0f untraced", traced, untraced))
	byDiff := sum[spGateway].self + sum[spDeliver].self
	rep.set("trace.by_difference_share", float64(byDiff)/float64(t.timedNs()), "")
	rep.budget = budget(w.name, sum, pkts)
	// A layer that exists only by difference reads as zero within the
	// twins' noise floor (churn has no response segment to build); well
	// below zero means the twins no longer do T0's work on T0's input.
	for _, k := range []spanKind{spGateway, spDeliver} {
		if sum[k].self < -sum[k].ns/50 {
			rep.budget = append(rep.budget, fmt.Sprintf("%-10s   WARNING: %s is smaller than its children by %.0f ns per packet, more than 2 %% of it",
				w.name, spanNames[k], -float64(sum[k].self)/pkts))
		}
	}
	rep.counters["traced_operations"] = float64(t.ops)
	rep.counters["traced_packets"] = float64(t.pkts)
	rep.counters["spans"] = float64(len(tr.rec.spans))
	rep.counters["twin_mismatches"] = float64(tr.mismatches)
	return rep, nil
}

// budget renders the cost tree per packet attempted: each parent is the
// sum of its children, two of which exist only by difference.
func budget(name string, sum [numSpanKinds]layerSum, pkts float64) []string {
	ns := func(v int64) float64 { return float64(v) / pkts }
	top := sum[spInvoke].ns + sum[spDeliver].ns + sum[spReload].ns + sum[spFlip].ns
	return []string{
		fmt.Sprintf("%-10s budget, ns per packet attempted: operation %.0f = invoke %.0f + deliver %.0f + reload %.0f + flip %.0f",
			name, ns(top), ns(sum[spInvoke].ns), ns(sum[spDeliver].ns), ns(sum[spReload].ns), ns(sum[spFlip].ns)),
		fmt.Sprintf("%-10s   deliver %.0f = gateway %.0f + serve %.0f + response (by difference) %.0f",
			name, ns(sum[spDeliver].ns), ns(sum[spGateway].ns), ns(sum[spServe].ns), ns(sum[spDeliver].self)),
		fmt.Sprintf("%-10s   gateway %.0f = enforcer %.0f + sanitizer %.0f + conntrack %.0f + netfilter (by difference) %.0f",
			name, ns(sum[spGateway].ns), ns(sum[spEnforcer].ns), ns(sum[spSanitizer].ns), ns(sum[spConntrack].ns), ns(sum[spGateway].self)),
	}
}
