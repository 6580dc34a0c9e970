package audit

import (
	"bytes"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// count reads one of the log's bp_audit_* series by its name suffix
// ("recorded_total", "queue_depth").
func count(l *Log, series string) uint64 {
	r := metrics.NewRegistry()
	l.RegisterMetrics(r)
	v, _ := r.Value("bp_audit_" + series)
	return uint64(v)
}

func samplePacket() *ipv4.Packet {
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr("10.66.0.2"),
			Dst: netip.MustParseAddr("203.0.113.7"),
		},
		Payload: make([]byte, 42),
	}
}

func dropResult() enforcer.Result {
	var h dex.TruncatedHash
	for i := range h {
		h[i] = 0xab
	}
	rule := policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}
	sig, _ := dex.ParseSignature("Lcom/flurry/sdk/Agent;->beacon()V")
	return enforcer.Result{
		Verdict: policy.VerdictDrop,
		Cause:   enforcer.DropPolicy,
		AppHash: h,
		Stack:   []dex.Signature{sig},
		Access: &policy.Access{
			Verdict: policy.VerdictDrop,
			Rule:    &rule,
		},
	}
}

func TestRecordAndTail(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 10)
	defer l.Close()
	l.Record(samplePacket(), dropResult())
	l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})

	tail := l.Tail() // flushes
	if len(tail) != 2 || tail[0].Seq != 1 || tail[1].Seq != 2 {
		t.Fatalf("tail = %+v", tail)
	}
	e := tail[0]
	if e.Verdict != "drop" || e.Cause != "policy" {
		t.Fatalf("entry = %+v", e)
	}
	if e.App == "" || len(e.Stack) != 1 || !strings.Contains(e.Rule, "com/flurry") {
		t.Fatalf("entry context = %+v", e)
	}
	if e.PayloadBytes != 42 {
		t.Fatalf("payload bytes = %d", e.PayloadBytes)
	}
	if tail[1].Verdict != "allow" || tail[1].Cause != "" {
		t.Fatalf("allow entry = %+v", tail[1])
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}

	// JSON lines round trip.
	entries, err := ReadEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Cause != "policy" {
		t.Fatalf("parsed = %+v", entries)
	}
	if entries[0].SrcAddr() != netip.MustParseAddr("10.66.0.2") {
		t.Fatal("src addr lost")
	}
}

func TestTailBounded(t *testing.T) {
	l := New(nil, 3)
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	}
	tail := l.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail len = %d", len(tail))
	}
	if tail[0].Seq != 8 || tail[2].Seq != 10 {
		t.Fatalf("tail seqs = %d..%d", tail[0].Seq, tail[2].Seq)
	}
}

// TestTailBoundedAcrossDrains drives the tail across several drain bursts
// (every drain trims to tailCap) and checks the bound holds when entries
// arrive in multiple sweeps rather than one.
func TestTailBoundedAcrossDrains(t *testing.T) {
	l := New(nil, 5)
	defer l.Close()
	for round := 0; round < 4; round++ {
		for i := 0; i < 7; i++ {
			l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	tail := l.Tail()
	if len(tail) != 5 {
		t.Fatalf("tail len = %d", len(tail))
	}
	if tail[4].Seq != 28 || tail[0].Seq != 24 {
		t.Fatalf("tail seqs = %d..%d", tail[0].Seq, tail[4].Seq)
	}
}

func TestReadEntriesErrors(t *testing.T) {
	if _, err := ReadEntries(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	entries, err := ReadEntries(strings.NewReader(""))
	if err != nil || len(entries) != 0 {
		t.Errorf("empty stream: %v %v", entries, err)
	}
}

func TestMalformedSrcAddr(t *testing.T) {
	e := Entry{Src: "garbage"}
	if e.SrcAddr().IsValid() {
		t.Error("malformed address parsed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "disk full" }

// TestWriteErrorSticky locks in the failure mode the async rewrite must
// keep: the first write error is recorded, survives later successful
// drains, and is what Flush and Close report.
func TestWriteErrorSticky(t *testing.T) {
	l := New(failWriter{}, 0)
	l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	if err := l.Flush(); err == nil {
		t.Fatal("write error not surfaced by Flush")
	}
	first := l.Err()
	if first == nil || !strings.Contains(first.Error(), "disk full") {
		t.Fatalf("Err() = %v", first)
	}
	// More records and drains do not clear or replace the sticky error.
	l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	l.Flush()
	if l.Err() != first {
		t.Fatalf("sticky error replaced: %v", l.Err())
	}
	if err := l.Close(); err != first {
		t.Fatalf("Close() = %v, want sticky error", err)
	}
}

// TestConcurrentRecord hammers Record and RecordBatch from many goroutines
// (run with -race in CI): every accepted entry must surface exactly once
// after a flush, in sequence order, with no tearing.
func TestConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	const workers, perWorker = 8, 500 // fewer entries than the queue holds
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkt := samplePacket()
			pkt.Header.Dst = netip.AddrFrom4([4]byte{198, 18, byte(w), 1})
			res := []enforcer.Result{{Verdict: policy.VerdictAllow}}
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					l.Record(pkt, res[0])
				} else {
					l.RecordBatch([]*ipv4.Packet{pkt}, res)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); rec != workers*perWorker || drop != 0 {
		t.Fatalf("recorded/dropped = %d/%d, want %d/0", rec, drop, workers*perWorker)
	}
	entries, err := ReadEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != workers*perWorker {
		t.Fatalf("wrote %d entries, want %d", len(entries), workers*perWorker)
	}
	// Exactly-once delivery in sequence order: with nothing shed, the
	// stream is 1..N.
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

// TestSeqOrderAcrossDrains races bursts from several goroutines into the
// queue while the drainer is parked in its writer, so the bursts run past
// queueCap and the queue sheds; then it releases the drainer and keeps
// bursting, with flushes between bursts, so the stream spans many drains.
// The written stream must rise strictly across every drain, and its gaps —
// before the first entry, between entries and after the last — must add up
// to exactly the shed count, with the sheds falling between written entries.
func TestSeqOrderAcrossDrains(t *testing.T) {
	w := newStallWriter()
	l := New(w, 0)
	defer w.Release()
	stallDrainer(t, l, w) // seq 1, swept: the queue is empty
	const workers, bursts, burstLen = 4, 250, 5
	const offered = 1 + 2*workers*bursts*burstLen // the stall's entry, two rounds
	round := func(flushEvery int) {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pkts := make([]*ipv4.Packet, burstLen)
				res := make([]enforcer.Result, burstLen)
				for i := range pkts {
					pkts[i] = samplePacket()
					res[i] = enforcer.Result{Verdict: policy.VerdictAllow}
				}
				for i := 0; i < bursts; i++ {
					l.RecordBatch(pkts, res)
					if flushEvery > 0 && i%flushEvery == flushEvery-1 {
						l.Flush() // a drain between bursts, beside the background ones
					}
				}
			}()
		}
		wg.Wait()
	}
	// Round one: the drainer is parked, so the queue fills to queueCap and
	// every entry past it is shed.
	round(0)
	const shedParked = workers*bursts*burstLen - queueCap
	if drop := count(l, "dropped_total"); shedParked <= 0 || drop != shedParked {
		t.Fatalf("parked round shed %d, want %d", drop, shedParked)
	}
	// Round two: the drainer runs again and the bursts race its drains.
	w.Release()
	round(10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	var gaps, inner, last uint64
	for i, e := range entries {
		if e.Seq <= last {
			t.Fatalf("entry %d has seq %d after seq %d", i, e.Seq, last)
		}
		if i > 0 {
			inner += e.Seq - last - 1
		}
		gaps += e.Seq - last - 1
		last = e.Seq
	}
	gaps += offered - last
	drop := count(l, "dropped_total")
	if gaps != drop {
		t.Fatalf("seq gaps add up to %d, dropped_total = %d", gaps, drop)
	}
	// The parked round's sheds come before round two's written entries, so
	// they are gaps between written entries, not a missing tail.
	if inner < shedParked {
		t.Fatalf("gaps between written entries add up to %d, want at least %d", inner, shedParked)
	}
	if flushes := count(l, "flushes_total"); flushes < 10 {
		t.Fatalf("%d drains, want the stream to span many", flushes)
	}
	t.Logf("%d written, %d shed, %d drains", len(entries), drop, count(l, "flushes_total"))
}

// stallWriter blocks the drainer inside its first Write until released,
// so backpressure tests can fill the bounded queue deterministically:
// once `started` fires, the single drainer goroutine is provably parked
// in Write and cannot free capacity until `release` is closed.
type stallWriter struct {
	started     chan struct{}
	release     chan struct{}
	startOnce   sync.Once
	releaseOnce sync.Once

	mu  sync.Mutex
	buf bytes.Buffer
}

func newStallWriter() *stallWriter {
	return &stallWriter{started: make(chan struct{}), release: make(chan struct{})}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.startOnce.Do(func() { close(w.started) })
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// Release unparks the drainer; safe to call more than once.
func (w *stallWriter) Release() { w.releaseOnce.Do(func() { close(w.release) }) }

// stallDrainer records one entry, wakes the drainer, and waits until it is
// parked in the writer: from then on pending capacity can only shrink via
// drops.
func stallDrainer(t *testing.T, l *Log, w *stallWriter) {
	t.Helper()
	l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	l.wake() // one entry is short of batchSize
	select {
	case <-w.started:
	case <-time.After(5 * time.Second):
		t.Fatal("drainer never reached the writer")
	}
}

// TestBackpressureCountsDrops fills the bounded queue while the drainer is
// stalled in a blocked Write and checks overflow is counted, then that
// capacity recovers once the drainer resumes.
func TestBackpressureCountsDrops(t *testing.T) {
	w := newStallWriter()
	l := New(w, 0)
	defer l.Close()
	defer w.Release()     // never leave the drainer parked if an assert fails
	stallDrainer(t, l, w) // 1 recorded + swept, drainer parked, queue empty
	pkt := samplePacket()
	for i := 0; i < queueCap+10; i++ {
		l.Record(pkt, enforcer.Result{Verdict: policy.VerdictAllow})
	}
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); rec != queueCap+1 || drop != 10 {
		t.Fatalf("recorded/dropped = %d/%d, want %d/10", rec, drop, queueCap+1)
	}
	w.Release()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Record(pkt, enforcer.Result{Verdict: policy.VerdictAllow})
	if rec := count(l, "recorded_total"); rec != queueCap+2 {
		t.Fatalf("queue did not recover after drain: %d recorded", rec)
	}
}

// TestRecordFillsWholeQueueCap: queueCap bounds the whole queue — a
// single flow fills all of it before anything is shed, and nothing past
// it is kept. The drainer is stalled so the fill and the overflow are
// deterministic.
func TestRecordFillsWholeQueueCap(t *testing.T) {
	w := newStallWriter()
	l := New(w, 0)
	defer l.Close()
	defer w.Release()
	stallDrainer(t, l, w)
	pkt := samplePacket()
	for i := 0; i < queueCap; i++ {
		l.Record(pkt, enforcer.Result{Verdict: policy.VerdictAllow})
	}
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); rec != queueCap+1 || drop != 0 {
		t.Fatalf("single-flow fill shed early: recorded/dropped = %d/%d", rec, drop)
	}
	l.Record(pkt, enforcer.Result{Verdict: policy.VerdictAllow})
	if drop := count(l, "dropped_total"); drop != 1 {
		t.Fatalf("overflow past queueCap not counted: %d dropped", drop)
	}
	// Resume the drainer: every accepted entry surfaces.
	w.Release()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if drained, pending := count(l, "drained_total"), count(l, "queue_depth"); drained != queueCap+1 || pending != 0 {
		t.Fatalf("post-release drained/pending = %d/%d, want %d/0", drained, pending, queueCap+1)
	}
}

// TestRecordBatchFillsWholeQueueCap: a burst lands whole as long as the
// queue's capacity allows, and the part past it is shed. The drainer is
// stalled so the fill is deterministic.
func TestRecordBatchFillsWholeQueueCap(t *testing.T) {
	w := newStallWriter()
	l := New(w, 0)
	defer w.Release()
	stallDrainer(t, l, w) // seq 1, swept: the queue is empty
	pkts := make([]*ipv4.Packet, queueCap-40)
	res := make([]enforcer.Result, len(pkts))
	for i := range pkts {
		pkts[i] = samplePacket()
		res[i] = enforcer.Result{Verdict: policy.VerdictAllow}
	}
	l.RecordBatch(pkts, res)
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); rec != queueCap-39 || drop != 0 {
		t.Fatalf("burst shed despite free capacity: recorded/dropped = %d/%d", rec, drop)
	}
	l.RecordBatch(pkts[:50], res[:50])
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); rec != queueCap+1 || drop != 10 {
		t.Fatalf("burst past capacity: recorded/dropped = %d/%d, want %d/10", rec, drop, queueCap+1)
	}
	w.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(&w.buf)
	if err != nil || len(entries) != queueCap+1 {
		t.Fatalf("bursts wrote %d entries (%v), want %d", len(entries), err, queueCap+1)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

// TestRecordRacingCloseNeverStrands: every record concurrent with Close
// must end up either drained or counted as dropped — Pending must settle
// at zero (the closed check runs under the queue lock, ahead of the final
// sweep).
func TestRecordRacingCloseNeverStrands(t *testing.T) {
	for round := 0; round < 20; round++ {
		l := New(nil, 0)
		pkt := samplePacket()
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-start
			for i := 0; i < 200; i++ {
				l.Record(pkt, enforcer.Result{Verdict: policy.VerdictAllow})
			}
		}()
		close(start)
		l.Close()
		<-done
		rec, drop := count(l, "recorded_total"), count(l, "dropped_total")
		if rec+drop != 200 {
			t.Fatalf("round %d: recorded %d + dropped %d != 200", round, rec, drop)
		}
		if pending := count(l, "queue_depth"); pending != 0 {
			t.Fatalf("round %d: %d entries stranded after Close", round, pending)
		}
	}
}

// TestBackgroundDrainerFlushesOnBatch verifies the drainer runs without
// any explicit Flush once the queue crosses the batch threshold — the
// "Record is off the JSON-encode critical path" half of the design.
func TestBackgroundDrainerFlushesOnBatch(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := New(w, 0)
	defer l.Close()
	pkt := samplePacket()
	for i := 0; i < batchSize; i++ {
		l.Record(pkt, enforcer.Result{Verdict: policy.VerdictAllow})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drainer never wrote without an explicit flush")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	entries, err := ReadEntries(bytes.NewReader(buf.Bytes()))
	mu.Unlock()
	if err != nil || len(entries) != batchSize {
		t.Fatalf("background drain wrote %d entries (%v), want %d", len(entries), err, batchSize)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFlushOnClose: entries recorded but never flushed must reach the
// writer when the log is closed.
func TestFlushOnClose(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	for i := 0; i < 5; i++ {
		l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(&buf)
	if err != nil || len(entries) != 5 {
		t.Fatalf("close flushed %d entries (%v), want 5", len(entries), err)
	}
	// Records after close are counted as drops, not silently lost.
	l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	if drop := count(l, "dropped_total"); drop != 1 {
		t.Fatalf("post-close record not counted: %d dropped", drop)
	}
	// Close is idempotent, Flush after close does not hang.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordBatchSingleCharge checks a whole burst lands with one seq
// range and per-burst ordering intact.
func TestRecordBatchSingleCharge(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	pkts := make([]*ipv4.Packet, 16)
	res := make([]enforcer.Result, 16)
	for i := range pkts {
		pkts[i] = samplePacket()
		res[i] = enforcer.Result{Verdict: policy.VerdictAllow}
	}
	l.RecordBatch(pkts, res)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(&buf)
	if err != nil || len(entries) != 16 {
		t.Fatalf("batch wrote %d entries (%v)", len(entries), err)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

// TestNilLogIsNoop keeps the documented contract that a nil *Log is a
// valid sink.
func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	l.Record(samplePacket(), enforcer.Result{Verdict: policy.VerdictAllow})
	l.RecordBatch(nil, nil)
	if l.Tail() != nil || l.Err() != nil {
		t.Fatal("nil log returned data")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	l.RegisterMetrics(r)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil log registered series")
	}
}

// TestRecordBatchNoShedSingleP pins the yields past half of queueCap: on
// one P a producer that never parks would keep the woken drainer in the
// run queue until the scheduler preempts it, a whole queue of entries
// later. With them the drainer runs before the queue fills and nothing is
// shed.
func TestRecordBatchNoShedSingleP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := New(nil, 256)
	defer l.Close()
	pkts := make([]*ipv4.Packet, 34)
	res := make([]enforcer.Result, len(pkts))
	for i := range pkts {
		pkts[i] = samplePacket()
		res[i] = dropResult()
	}
	const bursts = 20000
	for i := 0; i < bursts; i++ {
		l.RecordBatch(pkts, res)
		l.Record(pkts[0], res[0])
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); drop != 0 || rec != bursts*uint64(len(pkts)+1) {
		t.Fatalf("tight single-P producer shed entries: recorded/dropped = %d/%d", rec, drop)
	}
}

// TestTailOnlyDrainAllocFree pins that a log with no writer renders
// nothing: draining costs a fixed few allocations per burst (the flush
// handshake), none per entry, whatever the entries carry.
func TestTailOnlyDrainAllocFree(t *testing.T) {
	l := New(nil, 256)
	defer l.Close()
	pkts := make([]*ipv4.Packet, 1024)
	res := make([]enforcer.Result, len(pkts))
	for i := range pkts {
		pkts[i] = samplePacket()
		res[i] = dropResult()
	}
	perBurst := testing.AllocsPerRun(50, func() {
		l.RecordBatch(pkts, res)
		l.Flush()
	})
	if perEntry := perBurst / float64(len(pkts)); perEntry >= 0.01 {
		t.Fatalf("tail-only record+drain: %.0f allocs per %d-entry burst (%.3f per entry), want 0 per entry",
			perBurst, len(pkts), perEntry)
	}
	if drop := count(l, "dropped_total"); drop != 0 {
		t.Fatalf("shed %d entries", drop)
	}
}
