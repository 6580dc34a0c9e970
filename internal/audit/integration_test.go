package audit

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// buildAuditedEnforcer assembles an enforcer with a flow cache and this
// log as its audit sink, plus a benign tagged packet, at the §VI-B1
// validation rule scale.
func buildAuditedEnforcer(tb testing.TB, l *Log, cached bool) (*enforcer.Enforcer, *ipv4.Packet) {
	tb.Helper()
	apk := &dex.APK{
		PackageName: "com.corp.app",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{{
			Package: "com/corp/app",
			Name:    "Main",
			Methods: []dex.MethodDef{
				{Name: "sync", Proto: "()V", File: "M.java", StartLine: 1, EndLine: 10},
				{Name: "push", Proto: "()V", File: "M.java", StartLine: 11, EndLine: 20},
			},
		}}}},
	}
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		tb.Fatal(err)
	}
	rules := make([]policy.Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, policy.Rule{
			Action: policy.Deny,
			Level:  policy.LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	eng, err := policy.NewEngine(rules, policy.VerdictAllow)
	if err != nil {
		tb.Fatal(err)
	}
	clock := netsim.NewClock()
	cfg := enforcer.Config{Audit: l, Context: devctx.NewSource(clock)}
	if cached {
		cfg.Flows = enforcer.NewFlowCache(flowtable.Config{Clock: clock})
	}
	e := enforcer.New(cfg, db, eng)

	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{0, 1}}
	payload, err := tg.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	seg := transport.TCPSegment{
		SrcPort: 40001, DstPort: 443, Seq: 1,
		Flags: transport.FlagPSH | transport.FlagACK, Window: 65535,
		Payload: []byte("POST /x HTTP/1.1\r\n\r\n"),
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: seg.Marshal(),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	return e, pkt
}

// TestEnforcerRecordsThroughSink: every Process lands one entry with the
// decision's full context once flushed.
func TestEnforcerRecordsThroughSink(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 16)
	defer l.Close()
	e, pkt := buildAuditedEnforcer(t, l, true)

	for i := 0; i < 3; i++ { // miss, then cache hits — all audited
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			t.Fatal("benign packet dropped")
		}
	}
	tail := l.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail = %d entries, want 3", len(tail))
	}
	for i, entry := range tail {
		if entry.Verdict != "allow" || entry.App == "" || entry.Src != "10.66.0.2" {
			t.Fatalf("entry %d = %+v", i, entry)
		}
	}
	if rec, drop := count(l, "recorded_total"), count(l, "dropped_total"); rec != 3 || drop != 0 {
		t.Fatalf("recorded/dropped = %d/%d, want 3/0", rec, drop)
	}
}

// TestEnforcerBatchRecordsOnce: a ProcessBatch burst reaches the sink as
// one RecordBatch, entries aligned with the batch order.
func TestEnforcerBatchRecordsOnce(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	defer l.Close()
	e, pkt := buildAuditedEnforcer(t, l, true)

	batch := make([]*ipv4.Packet, 32)
	for i := range batch {
		batch[i] = pkt
	}
	out := e.ProcessBatch(batch, nil)
	if len(out) != 32 {
		t.Fatalf("results = %d", len(out))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(&buf)
	if err != nil || len(entries) != 32 {
		t.Fatalf("audited %d entries (%v), want 32", len(entries), err)
	}
	for i, entry := range entries {
		if entry.Seq != uint64(i+1) || entry.Verdict != "allow" {
			t.Fatalf("entry %d = %+v", i, entry)
		}
	}
}

// BenchmarkProcessFlowHitAudited is the acceptance benchmark: audited
// per-packet enforcement on the cache-hit path must stay allocation-free,
// with the JSON encode entirely off this path (the stats-only drain keeps
// the background side allocation-free too, so the number isolates what
// enforcement itself pays: one flow probe + one queue append).
func BenchmarkProcessFlowHitAudited(b *testing.B) {
	l := New(nil, 0)
	defer l.Close()
	e, pkt := buildAuditedEnforcer(b, l, true)
	e.Process(pkt) // warm the flow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(count(l, "dropped_total"))/float64(b.N), "dropped/op")
}

// BenchmarkProcessBatchKeepAliveAudited: the batched equivalent — 64-pkt
// same-flow bursts with the audit cost charged once per burst.
func BenchmarkProcessBatchKeepAliveAudited(b *testing.B) {
	l := New(nil, 0)
	defer l.Close()
	e, pkt := buildAuditedEnforcer(b, l, true)
	batch := make([]*ipv4.Packet, 64)
	for i := range batch {
		batch[i] = pkt
	}
	var out []enforcer.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		out = e.ProcessBatch(batch, out)
		if out[0].Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(count(l, "dropped_total"))/float64(b.N), "dropped/op")
}
