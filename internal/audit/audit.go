// Package audit provides the enforcement audit trail for BorderPatrol
// gateways. The paper's centralized-management argument (§VII "Ease of
// use": administrators configure and update all policies in one spot)
// implies operators need to see what the enforcer decided and why; this
// package records one structured entry per packet decision as JSON lines,
// suitable for log shipping, and keeps a bounded in-memory tail for
// interactive inspection.
//
// # Hot path vs drain path
//
// Record and RecordBatch are called from the per-packet enforcement path,
// so they do no JSON encoding and take no global lock: each call appends a
// compact struct capture of the decision (addresses, hash, verdict, and
// references to the immutable Stack/Access the flow cache already
// shares) to one of several producer stripes under that stripe's mutex. A
// background drainer periodically swaps the stripe buffers out, orders the
// captures by sequence number, builds the JSON entries, and writes them to
// the configured io.Writer in one burst — so the enforcement path is
// charged a stripe append (tens of ns, zero allocations steady-state) and
// the encode cost is paid off the packet path, batched per burst.
//
// # Backpressure
//
// The producer buffers are bounded (Config.QueueCap). If the drainer falls
// behind — a slow disk, a stalled shipper — Record counts the overflowing
// entry in bp_audit_dropped_total and returns; enforcement never blocks on the
// audit trail, and the gap is visible both in that count and as a hole in
// the entry sequence numbers. The one concession a producer makes is a
// yield, never a wait: a call that takes the queue past half of QueueCap,
// and past each further eighth, wakes the drainer and runtime.Gosched()s
// before it returns, because a producer that never parks would otherwise
// keep the woken drainer in the run queue until the scheduler preempts it
// (~10 ms — a whole QueueCap of packets at a few hundred thousand per
// second). One yield is not enough: Gosched is a hint the scheduler may
// answer by resuming the caller or running a collector worker instead.
//
// # Delivery guarantees
//
// Entries become visible to the writer, Tail and DropsByApp when a drain
// runs: automatically once a stripe accumulates Config.BatchSize entries,
// on Flush, and on Close (flush-on-close). Tail and DropsByApp flush
// before reading, so interactive inspection always sees every record
// accepted so far. Each drain burst is sorted by the sequence number
// assigned at Record time; ordering across bursts is best-effort — a
// producer preempted between taking its sequence number and landing the
// entry can surface one burst late, so a sequence gap in the stream means
// a record that was dropped under backpressure *or, rarely, one still in
// flight* (bp_audit_dropped_total is the authoritative drop count). Records racing
// Close may be dropped (and counted).
//
// Entries are stringified for the writer only: the tail and the per-app
// drop counters stay in captured form until Tail or DropsByApp is called,
// so a log with no writer never renders an entry nobody reads.
package audit

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// Entry is one enforcement decision record.
type Entry struct {
	// Seq is the record number assigned at Record time. A gap usually
	// means a record dropped under backpressure (bp_audit_dropped_total is
	// the authoritative count); rarely it is a record that surfaced in a later
	// drain burst (see the package comment on ordering).
	Seq uint64 `json:"seq"`
	// Src and Dst identify the flow.
	Src string `json:"src"`
	Dst string `json:"dst"`
	// App is the truncated apk hash in hex ("" when untagged).
	App string `json:"app,omitempty"`
	// Verdict is "allow" or "drop".
	Verdict string `json:"verdict"`
	// Cause classifies drops (policy, untagged, unknown-app, ...).
	Cause string `json:"cause,omitempty"`
	// Rule is the decisive policy rule, when one matched.
	Rule string `json:"rule,omitempty"`
	// Stack is the decoded context, innermost frame first.
	Stack []string `json:"stack,omitempty"`
	// PayloadBytes is the packet payload size.
	PayloadBytes int `json:"payload_bytes"`
}

// rawEntry is the compact hot-path capture of one decision: fixed-size
// values plus references to the Result's immutable Stack slice and
// Access — nothing is stringified until the drainer builds the Entry.
type rawEntry struct {
	seq      uint64
	src, dst netip.Addr
	app      dex.TruncatedHash
	verdict  policy.Verdict
	cause    enforcer.DropCause
	access   *policy.Access
	risk     policy.Risk
	stack    []dex.Signature
	payload  int
}

// stripe is one producer buffer. Stripes are selected by flow endpoints,
// so concurrent Record calls from different flows rarely share a lock.
type stripe struct {
	mu  sync.Mutex
	buf []rawEntry
	// pad keeps neighbouring stripe locks off one cache line.
	_ [40]byte
}

// Config sizes an audit log.
type Config struct {
	// Writer receives JSON lines, one per entry, flushed per drain burst
	// (nil disables file output).
	Writer io.Writer
	// TailCap bounds the in-memory tail (0 disables it).
	TailCap int
	// QueueCap bounds the pending (recorded but not yet drained) entries
	// across all stripes; beyond it Record counts drops instead of
	// blocking (default 4096).
	QueueCap int
	// BatchSize is the per-stripe fill level that wakes the background
	// drainer (default 256, clamped to the per-stripe capacity).
	BatchSize int
	// Stripes is the number of producer buffers, rounded up to a power of
	// two (default 8).
	Stripes int
}

// Log records enforcement decisions asynchronously. A nil *Log is a valid
// no-op sink. It implements enforcer.AuditSink.
type Log struct {
	w          io.Writer
	tailCap    int
	batchSize  int
	perStripe  int
	queueCap   int
	stripeMask uint32
	stripes    []stripe

	// pendingCount approximately tracks entries awaiting a drain so a
	// saturated queue sheds load with one atomic read instead of probing
	// every (full) stripe lock. The per-stripe caps remain the hard
	// memory bound; this counter only short-circuits the full case.
	pendingCount atomic.Int64

	notify   chan struct{}
	flushReq chan chan struct{}
	quit     chan struct{}
	done     chan struct{}
	closed   atomic.Bool

	seq     atomic.Uint64 // entries that received a sequence number
	dropped atomic.Uint64 // entries discarded: the queue was full or the log closed
	drained atomic.Uint64 // entries the background drainer has processed
	flushes atomic.Uint64 // drain bursts that did work

	// batchSizes distributes drain-burst sizes: a healthy pipeline drains
	// near BatchSize; a starved one drains dribbles, a backlogged one
	// drains the whole queue. Recorded on the drainer goroutine only.
	batchSizes *metrics.Histogram

	// Drainer-owned scratch: swapped-out stripe buffers are merged into
	// batch, then cleared and handed back as spares; order is batch sorted
	// by sequence number, as pointers, so that the sort moves one word per
	// swap instead of a whole entry.
	batch  []rawEntry
	order  []*rawEntry
	spares [][]rawEntry
	encBuf bytes.Buffer
	enc    *json.Encoder

	// mu guards the drainer-published read-side state. tail is a ring once
	// it holds tailCap entries: tailHead is then the oldest one.
	mu         sync.Mutex
	tail       []rawEntry
	tailHead   int
	dropsByApp map[dex.TruncatedHash]uint64
	writeErr   error
}

// New builds a log writing JSON lines to w (nil w keeps only the tail),
// with default queue sizing. See NewWithConfig for the full knobs.
func New(w io.Writer, tailCap int) *Log {
	return NewWithConfig(Config{Writer: w, TailCap: tailCap})
}

// NewWithConfig builds a log and starts its background drainer. Callers
// that care about every entry reaching the writer must Close (or Flush)
// before discarding the log.
func NewWithConfig(cfg Config) *Log {
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = 4096
	}
	n := cfg.Stripes
	if n <= 0 {
		n = 8
	}
	p := 1
	for p < n {
		p <<= 1
	}
	per := queueCap / p
	if per < 1 {
		per = 1
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 256
	}
	if batch > per {
		batch = per
	}
	l := &Log{
		w:          cfg.Writer,
		tailCap:    cfg.TailCap,
		batchSize:  batch,
		perStripe:  per,
		queueCap:   per * p,
		stripeMask: uint32(p - 1),
		stripes:    make([]stripe, p),
		notify:     make(chan struct{}, 1),
		flushReq:   make(chan chan struct{}),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		spares:     make([][]rawEntry, p),
		dropsByApp: make(map[dex.TruncatedHash]uint64),
		batchSizes: metrics.NewHistogram(),
	}
	for i := range l.stripes {
		l.stripes[i].buf = make([]rawEntry, 0, per)
		l.spares[i] = make([]rawEntry, 0, per)
	}
	l.enc = json.NewEncoder(&l.encBuf)
	go l.run()
	return l
}

// stripeFor selects the home producer buffer for a packet's flow, so
// packets of one flow normally stay FIFO within their stripe and
// concurrent flows spread. Under pressure a full home stripe spills to
// the next one (see Record), so QueueCap genuinely bounds the whole
// queue, not one stripe's share of it.
func (l *Log) stripeFor(pkt *ipv4.Packet) uint32 {
	var h uint32
	if pkt.Header.Src.Is4() {
		a := pkt.Header.Src.As4()
		h = binary.LittleEndian.Uint32(a[:])
	}
	if pkt.Header.Dst.Is4() {
		a := pkt.Header.Dst.As4()
		h ^= binary.LittleEndian.Uint32(a[:]) * 0x9e3779b1
	}
	h ^= h >> 16
	return h & l.stripeMask
}

// capture fills a rawEntry from one decision (no allocation: the Stack
// slice and Access pointer are shared with the immutable Result).
func capture(e *rawEntry, seq uint64, pkt *ipv4.Packet, res enforcer.Result) {
	e.seq = seq
	e.src = pkt.Header.Src
	e.dst = pkt.Header.Dst
	e.app = res.AppHash
	e.verdict = res.Verdict
	e.cause = res.Cause
	e.access, e.risk = res.Access, res.Risk
	e.stack = res.Stack
	e.payload = len(pkt.Payload)
}

// Record captures one enforcement decision. It never blocks and never
// encodes: the entry lands on a producer stripe and is JSON-encoded by the
// background drainer. A full home stripe spills to the next ones, so an
// entry is only counted as dropped and discarded once every stripe
// is full — i.e. once the whole QueueCap is exhausted. The most it does
// besides is yield to the drainer as the queue fills past half (see
// Backpressure in the package comment).
//
// The closed check runs under the stripe lock: Close sets the flag before
// the drainer's final sweep locks each stripe, so an append that won the
// lock first is swept by that sweep, and one that lost it observes the
// flag and counts a drop — no entry can be stranded unaccounted.
func (l *Log) Record(pkt *ipv4.Packet, res enforcer.Result) {
	if l == nil {
		return
	}
	seq := l.seq.Add(1)
	if l.pendingCount.Load() >= int64(l.queueCap) {
		// Saturated: shed with one atomic read (no lock probing) and kick
		// the drainer so capacity recovers.
		l.dropped.Add(1)
		l.wake()
		return
	}
	home := l.stripeFor(pkt)
	for i := uint32(0); i <= l.stripeMask; i++ {
		s := &l.stripes[(home+i)&l.stripeMask]
		s.mu.Lock()
		if l.closed.Load() {
			s.mu.Unlock()
			l.dropped.Add(1)
			return
		}
		if len(s.buf) >= l.perStripe {
			s.mu.Unlock()
			continue
		}
		s.buf = append(s.buf, rawEntry{})
		capture(&s.buf[len(s.buf)-1], seq, pkt, res)
		n := len(s.buf)
		s.mu.Unlock()
		if n >= l.batchSize {
			l.wake()
		}
		l.landed(1)
		return
	}
	// Every stripe filled while we probed: shed the entry.
	l.dropped.Add(1)
	l.wake()
}

// RecordBatch captures a burst of decisions, normally under a single
// stripe lock acquisition, so the audit cost of a batched gateway drain is
// charged once per burst rather than once per packet; when the home stripe
// fills mid-burst the remainder spills onto the next stripes (one lock
// each). res[i] must correspond to pkts[i]; extra packets without results
// are ignored.
func (l *Log) RecordBatch(pkts []*ipv4.Packet, res []enforcer.Result) {
	if l == nil || len(pkts) == 0 || len(res) == 0 {
		return
	}
	n := len(pkts)
	if n > len(res) {
		n = len(res)
	}
	base := l.seq.Add(uint64(n)) - uint64(n)
	if l.pendingCount.Load() >= int64(l.queueCap) {
		l.dropped.Add(uint64(n))
		l.wake()
		return
	}
	home := l.stripeFor(pkts[0])
	kept := 0
	for i := uint32(0); i <= l.stripeMask && kept < n; i++ {
		s := &l.stripes[(home+i)&l.stripeMask]
		s.mu.Lock()
		if l.closed.Load() {
			s.mu.Unlock()
			break
		}
		for kept < n && len(s.buf) < l.perStripe {
			s.buf = append(s.buf, rawEntry{})
			capture(&s.buf[len(s.buf)-1], base+uint64(kept)+1, pkts[kept], res[kept])
			kept++
		}
		filled := len(s.buf)
		s.mu.Unlock()
		if filled >= l.batchSize {
			l.wake()
		}
	}
	l.landed(kept)
	if kept < n {
		l.dropped.Add(uint64(n - kept))
		l.wake()
	}
}

// landed counts n entries just appended as pending and, on each call that
// fills another eighth of the queue beyond half, wakes the drainer and
// yields to it (see the package comment on backpressure).
func (l *Log) landed(n int) {
	now := l.pendingCount.Add(int64(n))
	eighth := int64(l.queueCap / 8)
	if eighth == 0 || now < 4*eighth {
		return
	}
	if now/eighth != (now-int64(n))/eighth {
		l.wake()
		runtime.Gosched()
	}
}

// wake nudges the drainer without blocking the packet path.
func (l *Log) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// run is the background drainer loop.
func (l *Log) run() {
	defer close(l.done)
	for {
		select {
		case <-l.notify:
			l.drain()
		case ack := <-l.flushReq:
			l.drain()
			close(ack)
		case <-l.quit:
			l.drain()
			return
		}
	}
}

// drain swaps out every stripe buffer, orders the captured entries by
// sequence number, publishes them — still in captured form — to the tail
// and per-app counters, and, when a writer is configured, encodes the
// burst and writes its JSON lines with a single Write call.
func (l *Log) drain() {
	batch := l.batch[:0]
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		if len(s.buf) == 0 {
			s.mu.Unlock()
			continue
		}
		taken := s.buf
		s.buf = l.spares[i]
		s.mu.Unlock()
		batch = append(batch, taken...)
		// Clear the swapped buffer so its Access/Stack references do not
		// pin results past their drain, then hand it back as the spare.
		clear(taken)
		l.spares[i] = taken[:0]
	}
	if len(batch) == 0 {
		l.batch = batch
		return
	}
	l.pendingCount.Add(-int64(len(batch)))
	order := l.order[:0]
	for i := range batch {
		order = append(order, &batch[i])
	}
	slices.SortFunc(order, func(a, b *rawEntry) int { return cmp.Compare(a.seq, b.seq) })

	l.encBuf.Reset()
	l.mu.Lock()
	for _, raw := range order {
		if raw.verdict == policy.VerdictDrop && raw.app != (dex.TruncatedHash{}) {
			l.dropsByApp[raw.app]++
		}
		if l.w != nil {
			if err := l.enc.Encode(buildEntry(raw)); err != nil && l.writeErr == nil {
				l.writeErr = fmt.Errorf("audit: encode: %w", err)
			}
		}
	}
	// Only the last tailCap entries of a burst can survive in the tail.
	for _, raw := range order[max(0, len(order)-l.tailCap):] {
		if len(l.tail) < l.tailCap {
			l.tail = append(l.tail, *raw)
		} else {
			l.tail[l.tailHead] = *raw
			l.tailHead = (l.tailHead + 1) % l.tailCap
		}
	}
	l.mu.Unlock()

	if l.w != nil && l.encBuf.Len() > 0 {
		if _, err := l.w.Write(l.encBuf.Bytes()); err != nil {
			l.mu.Lock()
			if l.writeErr == nil {
				l.writeErr = fmt.Errorf("audit: write: %w", err)
			}
			l.mu.Unlock()
		}
	}
	l.drained.Add(uint64(len(batch)))
	l.flushes.Add(1)
	l.batchSizes.Record(int64(len(batch)))
	clear(batch)
	clear(order)
	l.batch, l.order = batch[:0], order[:0]
}

// buildEntry stringifies one raw capture into its JSON-facing form.
func buildEntry(raw *rawEntry) Entry {
	e := Entry{
		Seq:          raw.seq,
		Src:          raw.src.String(),
		Dst:          raw.dst.String(),
		Verdict:      raw.verdict.String(),
		PayloadBytes: raw.payload,
	}
	var zero dex.TruncatedHash
	if raw.app != zero {
		e.App = raw.app.String()
	}
	if raw.verdict == policy.VerdictDrop {
		e.Cause = raw.cause.String()
	}
	if raw.access != nil {
		if rule := raw.access.Decide(raw.risk).Rule; rule != nil {
			e.Rule = rule.String()
		}
	}
	if len(raw.stack) > 0 {
		e.Stack = make([]string, len(raw.stack))
		for i, s := range raw.stack {
			e.Stack[i] = s.String()
		}
	}
	return e
}

// Flush forces a drain of everything recorded so far and waits for it,
// then reports the sticky write error, if any. Safe to call concurrently;
// a no-op after Close (Close already flushed).
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	ack := make(chan struct{})
	select {
	case l.flushReq <- ack:
		<-ack
	case <-l.done:
	}
	return l.Err()
}

// Close drains every pending entry (flush-on-close), stops the background
// drainer, and reports the sticky write error. Records racing Close may be
// dropped and counted. Idempotent.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	if l.closed.CompareAndSwap(false, true) {
		close(l.quit)
	}
	<-l.done
	return l.Err()
}

// Tail returns the most recent entries (up to the tail capacity), flushing
// first so everything recorded is visible.
func (l *Log) Tail() []Entry {
	if l == nil {
		return nil
	}
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.tail) == 0 {
		return nil
	}
	out := make([]Entry, len(l.tail))
	for i := range out {
		out[i] = buildEntry(&l.tail[(l.tailHead+i)%len(l.tail)])
	}
	return out
}

// DropsByApp returns a copy of the per-app drop counters, flushing first.
func (l *Log) DropsByApp() map[string]uint64 {
	if l == nil {
		return nil
	}
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.dropsByApp))
	for k, v := range l.dropsByApp {
		out[k.String()] = v
	}
	return out
}

// Err returns the first write error encountered, if any. Errors surface
// once the failing entry is drained (Flush forces that).
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErr
}

// recorded counts the entries accepted onto producer stripes. dropped is
// loaded before seq: every drop takes its seq first, so a seq read after
// the dropped read can only over-count recorded entries, never underflow.
func (l *Log) recorded() uint64 {
	dropped := l.dropped.Load()
	return l.seq.Load() - dropped
}

// pending approximates the entries awaiting a drain.
func (l *Log) pending() uint64 {
	recorded, drained := l.recorded(), l.drained.Load()
	if recorded < drained {
		return 0
	}
	return recorded - drained
}

// RegisterMetrics attaches the audit pipeline's counters — recorded and
// dropped entries, queue depth, and the drain-burst-size histogram — to a
// registry. A no-op on a nil log, so enforcement-off deployments can
// register unconditionally.
func (l *Log) RegisterMetrics(r *metrics.Registry) {
	if l == nil {
		return
	}
	r.CounterFunc("bp_audit_recorded_total", "Decisions accepted onto producer stripes.",
		l.recorded)
	r.CounterFunc("bp_audit_dropped_total", "Decisions shed because the bounded queue was full.",
		l.dropped.Load)
	r.CounterFunc("bp_audit_drained_total", "Entries the background drainer has written out.",
		l.drained.Load)
	r.CounterFunc("bp_audit_flushes_total", "Drain bursts that did work.", l.flushes.Load)
	r.GaugeFunc("bp_audit_queue_depth", "Entries recorded but not yet drained.",
		func() float64 { return float64(l.pending()) })
	r.RegisterHistogram("bp_audit_batch_entries", "Entries per drain burst.", l.batchSizes)
	if rw, ok := l.w.(*RotatingWriter); ok {
		rw.RegisterMetrics(r)
	}
}

// ReadEntries parses a JSON-lines audit stream.
func ReadEntries(r io.Reader) ([]Entry, error) {
	dec := json.NewDecoder(r)
	var out []Entry
	for dec.More() {
		var e Entry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("audit: parse: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// SrcAddr parses an entry's source back into an address (convenience for
// tooling; returns the zero Addr on malformed input).
func (e Entry) SrcAddr() netip.Addr {
	a, err := netip.ParseAddr(e.Src)
	if err != nil {
		return netip.Addr{}
	}
	return a
}
