package enforcer

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// benchEnforcer builds an enforcer against the §VI-B1 validation-scale
// rule set (1,050 library deny rules), optionally with a flow cache.
func benchEnforcer(b *testing.B, cached bool) (*Enforcer, *ipv4.Packet) {
	b.Helper()
	apk := testAPK()
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	cfg := Config{}
	if cached {
		cfg.Flows = NewFlowCache(flowtable.Config{Capacity: 65536})
	}
	e := New(cfg, db, eng)

	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{0, 1}}
	payload, err := tg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	// The HTTP request rides a real TCP segment, so the measured hit path
	// includes the transport peek that completes the 5-tuple flow key.
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

// BenchmarkProcessFlowHit is the acceptance benchmark for the flow table:
// every iteration after the first is a cache hit, so the per-packet cost
// is one shard probe — no tag decode, no stack decode, no Evaluate.
func BenchmarkProcessFlowHit(b *testing.B) {
	e, pkt := benchEnforcer(b, true)
	e.Process(pkt) // warm the flow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkProcessFlowHitParallel drives the hot flow from every core.
func BenchmarkProcessFlowHitParallel(b *testing.B) {
	e, pkt := benchEnforcer(b, true)
	e.Process(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
				b.Error("benign packet dropped")
				return
			}
		}
	})
}

// BenchmarkProcessFlowHitContextual is the cache-hit path with the
// contextual dimension fully armed: risk rules loaded, a device-context
// source wired, and the source holding context for the bench device. The
// per-packet cost over BenchmarkProcessFlowHit is one extra atomic load
// (the context generation folded into the cache key) — context itself was
// evaluated once, at flow admission, and lives in the cached verdict.
func BenchmarkProcessFlowHitContextual(b *testing.B) {
	e, pkt := benchEnforcer(b, true)
	src := devctx.NewSource(nil)
	src.SetNetwork(pkt.Header.Src, policy.NetTrusted)
	e.ctxSrc = src
	rules := e.engine.Rules()
	ctxRules, err := policy.ParsePolicyString(`
{[risk][network]["unknown"][60]}
{[risk][network]["trusted"][-30]}
{[risk][time]["22:00-06:00"][35]}
{[risk][travel]["impossible"][100]}
{[threshold][warn][40]}
{[threshold][block][100]}
`)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.engine.SetRules(append(rules, ctxRules...)); err != nil {
		b.Fatal(err)
	}
	e.Process(pkt) // warm the flow (SYN-time context evaluation happens here)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkProcessFlowMiss forces a distinct flow and a cold tag every
// iteration — the destination address rotates, and one more tag than a
// window of the tag table holds, all on one window, take turns, so each
// finds itself replaced — and so pays the full pipeline plus the tag fill
// (2 allocs: the interned record and its Stack; the decision is interned):
// the worst case for the caches.
func BenchmarkProcessFlowMiss(b *testing.B) {
	e, pkt := benchEnforcer(b, true)
	gen := genAPK()
	if err := e.db.Add(gen); err != nil {
		b.Fatal(err)
	}
	tags, _ := conflictingTags(b, e, gen)
	pkts := make([]*ipv4.Packet, len(tags))
	for k := range pkts {
		pkts[k] = pkt.Clone()
		pkts[k].Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: tags[k]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(i))
		p.Header.Dst = netip.AddrFrom4(a)
		if res := e.Process(p); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkProcessFlowMissInterned is a new flow of a known tag — what a
// SYN costs once any device has run the functionality (the fleet and
// connect shape): a table miss, an interned decode, one evaluation, an
// interned decision and the fill (0 allocs).
func BenchmarkProcessFlowMissInterned(b *testing.B) {
	e, pkt := benchEnforcer(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(i))
		pkt.Header.Dst = netip.AddrFrom4(a)
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkProcessNoCache is the PR 1 reference path (miss-path cost
// without any flow table), for the before/after comparison.
func BenchmarkProcessNoCache(b *testing.B) {
	e, pkt := benchEnforcer(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Process(pkt); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkProcessBatchKeepAlive enforces 64-packet batches of one flow —
// the §VI-D keep-alive train — through the batch memo. Reported ns/op is
// per packet.
func BenchmarkProcessBatchKeepAlive(b *testing.B) {
	e, pkt := benchEnforcer(b, true)
	batch := make([]*ipv4.Packet, 64)
	for i := range batch {
		batch[i] = pkt
	}
	var out []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		out = e.ProcessBatch(batch, out)
		if out[0].Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}

// BenchmarkProcessBatchMixedFlows interleaves eight flows within each
// batch, so the memo misses and the flow table carries the load.
func BenchmarkProcessBatchMixedFlows(b *testing.B) {
	e, base := benchEnforcer(b, true)
	batch := make([]*ipv4.Packet, 64)
	for i := range batch {
		p := base.Clone()
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(i%8))
		p.Header.Dst = netip.AddrFrom4(a)
		batch[i] = p
	}
	var out []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		out = e.ProcessBatch(batch, out)
		if out[0].Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}
