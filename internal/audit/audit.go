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
// RecordBatch is called once per gateway burst (Record is a burst of
// one), so it does no JSON encoding: under one mutex it takes the burst's
// sequence numbers and appends a compact struct capture of each decision
// (addresses, hash, verdict, and references to the immutable Stack/Access
// the flow cache already shares) to one bounded queue. A background
// drainer swaps the queue out, builds the JSON entries, and writes them to
// the configured io.Writer in one burst — so the enforcement path is
// charged one lock and a copy per entry (zero allocations steady-state)
// and the encode cost is paid off the packet path, batched per burst.
//
// # Backpressure
//
// The queue is bounded (queueCap entries). If the drainer falls behind — a
// slow disk, a stalled shipper — RecordBatch counts the entries that do
// not fit in bp_audit_dropped_total and returns; enforcement never blocks
// on the audit trail, and the gap is visible both in that count and as a
// hole in the entry sequence numbers. The one concession a producer makes
// is a yield, never a wait: a call that takes the queue past half of
// queueCap, and past each further eighth, wakes the drainer and
// runtime.Gosched()s before it returns, because a producer that never
// parks would otherwise keep the woken drainer in the run queue until the
// scheduler preempts it (~10 ms — a whole queue of packets at a few
// hundred thousand per second). One yield is not enough: Gosched is a
// hint the scheduler may answer by resuming the caller or running a
// collector worker instead.
//
// # Delivery guarantees
//
// Entries become visible to the writer and Tail when a drain runs:
// automatically once the queue holds batchSize entries, on Flush,
// and on Close (flush-on-close). Tail flushes before reading, so
// interactive inspection always sees every record accepted so far.
// Sequence numbers are taken under the same lock that appends, so the
// queue, and with it the written stream, is always in sequence order,
// across drains too: a gap in the stream means exactly the entries shed
// under backpressure, and the gaps add up to bp_audit_dropped_total.
// Records racing Close may be dropped (and counted).
//
// Entries are stringified for the writer only: the tail stays in
// captured form until Tail is called, so a log with no writer never
// renders an entry nobody reads.
package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// Entry is one enforcement decision record.
type Entry struct {
	// Seq is the record number assigned at Record time. A gap means a
	// shed record: the queue was full or the log closed
	// (bp_audit_dropped_total counts them).
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

// rawEntry is the hot-path capture of one decision: the Result copied
// whole (its Stack and Access are immutable and shared) plus the packet
// fields an Entry needs — nothing is stringified until the drainer builds
// the Entry.
type rawEntry struct {
	seq      uint64
	res      enforcer.Result
	src, dst netip.Addr
	payload  int
}

// queueCap bounds the queue of recorded entries awaiting a drain (the
// drainer holds at most one more queue while it writes a burst); beyond it
// Record counts drops instead of blocking. batchSize is the queue fill
// level that wakes the background drainer.
const (
	queueCap  = 4096
	batchSize = 256
)

// Log records enforcement decisions asynchronously. A nil *Log is a valid
// no-op sink. It implements enforcer.AuditSink.
type Log struct {
	w       io.Writer
	tailCap int

	// qmu guards queue, the captured entries awaiting a drain, in
	// sequence order; sequence numbers are taken under it.
	qmu   sync.Mutex
	queue []rawEntry

	notify   chan struct{}
	flushReq chan chan struct{}
	quit     chan struct{}
	done     chan struct{}
	closed   atomic.Bool

	// recorded counts the entries accepted onto the queue (it moves under
	// qmu only) and dropped the entries shed because the queue was full or
	// the log closed. An entry's sequence number is one more than the
	// recorded and dropped entries before it, so each shed entry is a gap.
	recorded atomic.Uint64
	dropped  atomic.Uint64
	drained  atomic.Uint64 // entries the background drainer has written out
	flushes  atomic.Uint64 // drain bursts that did work

	// batchSizes distributes drain-burst sizes: a healthy pipeline drains
	// near batchSize; a starved one drains dribbles, a backlogged one
	// drains the whole queue. Recorded on the drainer goroutine only.
	batchSizes *metrics.Histogram

	// Drainer-owned scratch: spare is the empty buffer swapped in for
	// the queue at each drain.
	spare  []rawEntry
	encBuf bytes.Buffer
	enc    *json.Encoder

	// mu guards the drainer-published read-side state. tail is a ring once
	// it holds tailCap entries: tailHead is then the oldest one.
	mu       sync.Mutex
	tail     []rawEntry
	tailHead int
	writeErr error
}

// New builds a log writing JSON lines to w, one per entry, flushed per
// drain burst (nil w keeps only the tail), with an in-memory tail of
// tailCap entries (0 keeps none), and starts its background drainer.
// Callers that care about every entry reaching the writer must Close (or
// Flush) before discarding the log.
func New(w io.Writer, tailCap int) *Log {
	l := &Log{
		w:          w,
		tailCap:    tailCap,
		queue:      make([]rawEntry, 0, queueCap),
		spare:      make([]rawEntry, 0, queueCap),
		notify:     make(chan struct{}, 1),
		flushReq:   make(chan chan struct{}),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		batchSizes: metrics.NewHistogram(),
	}
	l.enc = json.NewEncoder(&l.encBuf)
	go l.run()
	return l
}

// capture fills a rawEntry from one decision (no allocation: the Stack
// slice and Access pointer are shared with the immutable Result).
func capture(e *rawEntry, seq uint64, pkt *ipv4.Packet, res *enforcer.Result) {
	e.seq, e.res = seq, *res
	e.src, e.dst = pkt.Header.Src, pkt.Header.Dst
	e.payload = len(pkt.Payload)
}

// Record captures one enforcement decision: a RecordBatch of one.
func (l *Log) Record(pkt *ipv4.Packet, res enforcer.Result) {
	pkts, results := [1]*ipv4.Packet{pkt}, [1]enforcer.Result{res}
	l.RecordBatch(pkts[:], results[:])
}

// RecordBatch captures a burst of decisions under one lock acquisition,
// so the audit cost of a batched gateway drain is charged once per burst
// rather than once per packet. It never blocks and never encodes: the
// burst takes a consecutive range of sequence numbers, the entries that
// fit under queueCap are appended to the queue, and the rest are counted
// as dropped. The most it does besides is yield to the drainer as the
// queue fills past half (see Backpressure in the package comment).
// res[i] must correspond to pkts[i]; extra packets without results are
// ignored.
//
// The closed check runs under the queue lock: Close sets the flag before
// the drainer's final sweep takes that lock, so a burst that won the lock
// first is swept by that sweep, and one that lost it observes the flag
// and counts its drops — no entry can be stranded unaccounted.
func (l *Log) RecordBatch(pkts []*ipv4.Packet, res []enforcer.Result) {
	n := min(len(pkts), len(res))
	if l == nil || n == 0 {
		return
	}
	l.qmu.Lock()
	base := l.recorded.Load() + l.dropped.Load()
	before := len(l.queue)
	kept := 0
	if !l.closed.Load() {
		kept = min(n, queueCap-before)
		l.queue = l.queue[:before+kept]
		for i := range kept {
			capture(&l.queue[before+i], base+uint64(i)+1, pkts[i], &res[i])
		}
		l.recorded.Add(uint64(kept))
	}
	if kept < n {
		l.dropped.Add(uint64(n - kept))
	}
	l.qmu.Unlock()
	// The call that takes the queue to batchSize wakes the drainer (a full
	// queue got there since its last drain, so a shed needs no wake); each
	// call that fills another eighth of the queue beyond half wakes it and
	// yields to it (see the package comment on backpressure).
	const eighth = queueCap / 8
	after := before + kept
	yield := after >= 4*eighth && after/eighth != before/eighth
	if (after >= batchSize && before < batchSize) || yield {
		l.wake()
	}
	if yield {
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

// drain swaps out the queue, publishes its entries — still in captured
// form and already in sequence order — to the tail, and, when a writer is
// configured, encodes the burst and writes its JSON lines with a single
// Write call.
func (l *Log) drain() {
	l.qmu.Lock()
	batch := l.queue
	l.queue = l.spare
	l.qmu.Unlock()
	if len(batch) == 0 {
		l.spare = batch
		return
	}

	l.encBuf.Reset()
	l.mu.Lock()
	if l.w != nil {
		for i := range batch {
			if err := l.enc.Encode(buildEntry(&batch[i])); err != nil && l.writeErr == nil {
				l.writeErr = fmt.Errorf("audit: encode: %w", err)
			}
		}
	}
	// Only the last tailCap entries of a burst can survive in the tail.
	for _, raw := range batch[max(0, len(batch)-l.tailCap):] {
		if len(l.tail) < l.tailCap {
			l.tail = append(l.tail, raw)
		} else {
			l.tail[l.tailHead] = raw
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
	// Clear the swapped buffer so its Access/Stack references do not pin
	// results past their drain, then keep it as the next spare.
	clear(batch)
	l.spare = batch[:0]
}

// buildEntry stringifies one raw capture into its JSON-facing form.
func buildEntry(raw *rawEntry) Entry {
	e := Entry{
		Seq:          raw.seq,
		Src:          raw.src.String(),
		Dst:          raw.dst.String(),
		Verdict:      raw.res.Verdict.String(),
		PayloadBytes: raw.payload,
	}
	res := &raw.res
	var zero dex.TruncatedHash
	if res.AppHash != zero {
		e.App = res.AppHash.String()
	}
	if res.Verdict == policy.VerdictDrop {
		e.Cause = res.Cause.String()
	}
	if res.Access != nil {
		if rule := res.Access.Decide(res.Risk).Rule; rule != nil {
			e.Rule = rule.String()
		}
	}
	if len(res.Stack) > 0 {
		e.Stack = make([]string, len(res.Stack))
		for i, s := range res.Stack {
			// JSON would replace the bytes of a frame name that is not
			// UTF-8; quoted, it keeps them, and no signature starts with
			// a quote.
			if e.Stack[i] = s.String(); !utf8.ValidString(e.Stack[i]) {
				e.Stack[i] = strconv.Quote(e.Stack[i])
			}
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

// pending counts the entries recorded but not yet drained: the queue and
// the burst the drainer is writing. drained is loaded first, so a drain
// racing the read can only make it over-count, never underflow.
func (l *Log) pending() uint64 {
	drained := l.drained.Load()
	return l.recorded.Load() - drained
}

// RegisterMetrics attaches the audit pipeline's counters — recorded and
// dropped entries, queue depth, and the drain-burst-size histogram — to a
// registry. A no-op on a nil log, so enforcement-off deployments can
// register unconditionally.
func (l *Log) RegisterMetrics(r *metrics.Registry) {
	if l == nil {
		return
	}
	r.CounterFunc("bp_audit_recorded_total", "Decisions accepted onto the queue.",
		l.recorded.Load)
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
