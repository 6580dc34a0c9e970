package gateway

import (
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// testClock is a virtual clock the tests move by hand.
type testClock struct{ now atomic.Int64 }

func newClock() *testClock { return &testClock{} }

func (c *testClock) Now() time.Duration { return time.Duration(c.now.Load()) }

func (c *testClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

// deviceBurst is one packet from each of n distinct devices: tmpl(i)
// re-addressed to 10.128.0.2 + i.
func deviceBurst(t testing.TB, n int, tmpl func(i int) *ipv4.Packet) []*ipv4.Packet {
	t.Helper()
	pkts := make([]*ipv4.Packet, n)
	for i := range pkts {
		p := tmpl(i).Clone()
		p.Header.Src = netip.AddrFrom4([4]byte{10, 128, byte((i + 2) >> 8), byte(i + 2)})
		pkts[i] = p
	}
	return pkts
}

func serverAddr() netip.Addr { return netip.MustParseAddr("93.184.216.34") }

// plainPacket is an untagged packet carrying payload in one TCP data
// segment, as the device's kernel emits it.
func plainPacket(payload []byte) *ipv4.Packet {
	seg := transport.TCPSegment{
		SrcPort: 40000, DstPort: 80, Seq: 1,
		Flags: transport.FlagPSH | transport.FlagACK, Window: 65535,
		Payload: payload,
	}
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.0.0.5"),
			Dst:      serverAddr(),
		},
		Payload: seg.Marshal(),
	}
}

// getRequest is an HTTP request as a device sends it; the gateway never
// reads it.
func getRequest() []byte { return []byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n") }

// sumMetric reads one family off reg; labels narrow it.
func sumMetric(reg *metrics.Registry, name string, labels ...metrics.Label) float64 {
	v, _ := reg.Value(name, labels...)
	return v
}

// registrar is a component that exports its counts on a registry.
type registrar interface{ RegisterMetrics(*metrics.Registry) }

// count reads one series of x's; labels narrow a family.
func count(x registrar, family string, labels ...metrics.Label) uint64 {
	r := metrics.NewRegistry()
	x.RegisterMetrics(r)
	v, _ := r.Value(family, labels...)
	return uint64(v)
}

// conntrack reads every bp_conntrack_* series of ct keyed by its label
// value: a transition kind ("closed"), a response outcome ("seq_drop") or a
// connection state ("open"). The three label sets share no value.
func conntrack(ct *Conntrack) map[string]uint64 {
	r := metrics.NewRegistry()
	ct.registerMetrics(r)
	out := make(map[string]uint64)
	for _, smp := range r.Snapshot() {
		out[smp.Labels[0].Value] = uint64(smp.Value)
	}
	return out
}

// flowCounts reads every bp_flowtable_* series of x, keyed by the name
// between that prefix and "_total" ("hits", "live").
func flowCounts(x registrar) map[string]uint64 {
	r := metrics.NewRegistry()
	x.RegisterMetrics(r)
	out := make(map[string]uint64)
	for _, smp := range r.Snapshot() {
		if name, ok := strings.CutPrefix(smp.Name, "bp_flowtable_"); ok {
			out[strings.TrimSuffix(name, "_total")] = uint64(smp.Value)
		}
	}
	return out
}

// shipped builds an enforcer on clock as experiments.Assemble builds every
// enforcer on its network's: a device-context source reads clock, and so
// does a flow cache when cached (otherwise cfg.Flows as given). cfg
// supplies the rest.
func shipped(clock *testClock, cached bool, cfg enforcer.Config, db *analyzer.Database, eng *policy.Engine) *enforcer.Enforcer {
	cfg.Context = devctx.NewSource(clock)
	if cached {
		cfg.Flows = enforcer.NewFlowCache(flowtable.Config{Clock: clock})
	}
	return enforcer.New(cfg, db, eng)
}

func buildEnforcerAndDB(t testing.TB) (*enforcer.Enforcer, *dex.APK, *analyzer.Database) {
	t.Helper()
	eng, apk, db := buildEngineAndDB(t)
	return shipped(newClock(), false, enforcer.Config{}, db, eng), apk, db
}

// buildEngineAndDB is buildEnforcerAndDB's app, database and engine, for a
// test that assembles its own enforcer around them.
func buildEngineAndDB(t testing.TB) (*policy.Engine, *dex.APK, *analyzer.Database) {
	t.Helper()
	apk := &dex.APK{
		PackageName: "com.corp.app",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{
			{
				Package: "com/corp/app",
				Name:    "Main",
				Methods: []dex.MethodDef{
					{Name: "sync", Proto: "()V", File: "M.java", StartLine: 1, EndLine: 10},
				},
			},
			{
				Package: "com/flurry/sdk",
				Name:    "Agent",
				Methods: []dex.MethodDef{
					{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 1, EndLine: 10},
				},
			},
		}}},
	}
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	eng, err := policy.NewEngine([]policy.Rule{
		{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"},
	}, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	return eng, apk, db
}

func taggedPacket(t testing.TB, apk *dex.APK, db *analyzer.Database, method string) *ipv4.Packet {
	t.Helper()
	entry, _ := db.LookupTruncated(apk.Truncated())
	var idx uint32
	found := false
	for i, raw := range entry.Signatures {
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Name == method {
			idx = uint32(i)
			found = true
		}
	}
	if !found {
		t.Fatalf("method %s not found", method)
	}
	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{idx}}
	data, err := tg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pkt := plainPacket(getRequest())
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: data})
	return pkt
}

// tcpConn builds the packet train of one TCP connection out of a tagged
// test packet: SYN, n data segments carrying base's HTTP request, FIN.
// Every packet keeps the tag (same socket, same options).
func tcpConn(t testing.TB, base *ipv4.Packet, srcPort uint16, n int) (syn *ipv4.Packet, data []*ipv4.Packet, fin *ipv4.Packet) {
	t.Helper()
	baseSeg, err := transport.ParseTCP(base.Payload)
	if err != nil {
		t.Fatalf("base packet is not a TCP segment: %v", err)
	}
	request := baseSeg.Payload
	mk := func(flags byte, seq uint32, payload []byte) *ipv4.Packet {
		out := base.Clone()
		seg := transport.TCPSegment{
			SrcPort: srcPort, DstPort: 443, Seq: seq,
			Flags: flags, Window: 65535, Payload: payload,
		}
		out.Payload = seg.Marshal()
		return out
	}
	syn = mk(transport.FlagSYN, 1, nil)
	seq := uint32(2)
	for i := 0; i < n; i++ {
		data = append(data, mk(transport.FlagPSH|transport.FlagACK, seq, request))
		seq += uint32(len(request))
	}
	fin = mk(transport.FlagFIN|transport.FlagACK, seq, nil)
	return syn, data, fin
}

// keepAliveBurst is one connection as the device emits it: SYN, n
// requests, FIN.
func keepAliveBurst(t testing.TB, base *ipv4.Packet, srcPort uint16, n int) []*ipv4.Packet {
	syn, data, fin := tcpConn(t, base, srcPort, n)
	return append(append([]*ipv4.Packet{syn}, data...), fin)
}
