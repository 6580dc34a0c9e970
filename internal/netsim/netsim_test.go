package netsim

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

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

// sumMetric reads one family off reg; labels narrow it.
func sumMetric(reg *metrics.Registry, name string, labels ...metrics.Label) float64 {
	v, _ := reg.Value(name, labels...)
	return v
}

// fwdPkt is a device→server segment on the canonical test tuple.
func fwdPkt(flags byte, seq uint32, payload []byte) *ipv4.Packet {
	seg := transport.TCPSegment{
		SrcPort: 40900, DstPort: 443, Seq: seq,
		Flags: flags, Window: 65535, Payload: payload,
	}
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr("10.66.0.2"),
			Dst: netip.MustParseAddr("93.184.216.34"),
		},
		Payload: seg.Marshal(),
	}
}

// tupleFor is the tuple of a device→server segment between src and dst.
func tupleFor(src, dst netip.Addr, sp, dp uint16) transport.Tuple {
	t, _ := transport.TupleOf(&ipv4.Header{Src: src, Dst: dst}, sp, dp)
	return t
}

func getRequest() []byte {
	req := &httpsim.Request{Method: "GET", Path: "/", Host: "example"}
	return req.Marshal()
}

func newStaticNetwork(nic NICMode, gw *gateway.Gateway) *Network {
	n := NewNetwork(nic)
	n.Gateway = gw
	n.AddServer(&Server{Addr: serverAddr(), Name: "example", Handler: httpsim.StaticHandler(httpsim.StaticPage())})
	return n
}

// countRequests wraps the HTTP handler of the server at serverAddr() so the
// returned counters count the requests it answers and the body bytes they
// carry.
func countRequests(n *Network) (requests, rxBytes *atomic.Uint64) {
	srv, _ := n.ServerAt(serverAddr())
	requests, rxBytes = new(atomic.Uint64), new(atomic.Uint64)
	next := srv.Handler
	srv.Handler = func(req *httpsim.Request) *httpsim.Response {
		requests.Add(1)
		rxBytes.Add(uint64(len(req.Body)))
		return next(req)
	}
	return requests, rxBytes
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	c.Advance(-time.Second) // ignored
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("Now = %v", got)
	}
}

func TestDeliverPlainPacket(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	requests, _ := countRequests(n)
	d := n.Deliver(plainPacket(getRequest()))
	if !d.Delivered {
		t.Fatalf("not delivered: %+v", d)
	}
	if d.Response == nil || d.Response.Status != 200 {
		t.Fatalf("response = %+v", d.Response)
	}
	if len(d.Response.Body) != httpsim.StaticPageSize {
		t.Fatalf("body = %d bytes", len(d.Response.Body))
	}
	if d.Latency <= 0 {
		t.Fatal("no latency charged")
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("server requests = %d", got)
	}
}

func TestSlirpSlowerThanTap(t *testing.T) {
	slirp := newStaticNetwork(ModeSLIRP, nil)
	tap := newStaticNetwork(ModeTAP, nil)
	ds := slirp.Deliver(plainPacket(getRequest()))
	dt := tap.Deliver(plainPacket(getRequest()))
	if ds.Latency <= dt.Latency {
		t.Fatalf("slirp %v must be slower than tap %v", ds.Latency, dt.Latency)
	}
}

func TestNoRoute(t *testing.T) {
	n := NewNetwork(ModeTAP)
	d := n.Deliver(plainPacket(getRequest()))
	if d.Delivered || d.Stage != StageNoRoute {
		t.Fatalf("delivery = %+v", d)
	}
}

func TestBorderDropsOptionedPacketWithoutSanitizer(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	pkt := plainPacket(getRequest())
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{1, 2}})
	d := n.Deliver(pkt)
	if d.Delivered || d.Stage != StageBorder {
		t.Fatalf("optioned packet: %+v", d)
	}
	// Internal servers bypass border filtering.
	internal := &Server{Addr: netip.MustParseAddr("10.10.10.10"), Internal: true, Handler: httpsim.StaticHandler(nil)}
	n.AddServer(internal)
	pkt2 := plainPacket(getRequest())
	pkt2.Header.Dst = internal.Addr
	pkt2.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{1, 2}})
	if d := n.Deliver(pkt2); !d.Delivered {
		t.Fatalf("internal optioned packet dropped: %+v", d)
	}
}

// shipped builds an enforcer on clock as experiments.Assemble builds every
// enforcer on its network's: a device-context source reads clock, and so
// does a flow cache when cached (otherwise cfg.Flows as given). cfg
// supplies the rest.
func shipped(clock *Clock, cached bool, cfg enforcer.Config, db *analyzer.Database, eng *policy.Engine) *enforcer.Enforcer {
	cfg.Context = devctx.NewSource(clock)
	if cached {
		cfg.Flows = enforcer.NewFlowCache(flowtable.Config{Clock: clock})
	}
	return enforcer.New(cfg, db, eng)
}

func buildEnforcerAndDB(t testing.TB) (*enforcer.Enforcer, *dex.APK, *analyzer.Database) {
	t.Helper()
	eng, apk, db := buildEngineAndDB(t)
	return shipped(NewClock(), false, enforcer.Config{}, db, eng), apk, db
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

func TestFullGatewayPipeline(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)

	// Benign tagged packet: enforced, sanitized, delivered past the border.
	benign := taggedPacket(t, apk, db, "sync")
	d := n.Deliver(benign)
	if !d.Delivered {
		t.Fatalf("benign packet dropped: %+v", d)
	}
	if d.Enforcement == nil || d.Enforcement.Verdict != policy.VerdictAllow {
		t.Fatalf("enforcement = %+v", d.Enforcement)
	}
	if got := count(gw.Sanitizer(), "bp_sanitizer_cleansed_total"); got != 1 {
		t.Fatalf("cleansed = %d, want 1", got)
	}
	// The sanitizer cleansed a copy: the device's packet keeps its tag.
	if _, ok := benign.Header.FindOption(ipv4.OptSecurity); !ok {
		t.Fatal("delivery stripped the tag from the device's packet")
	}
	// What leaves the gateway is that cleansed copy.
	outs, err := gw.ProcessBatch([]*ipv4.Packet{benign})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Out == nil || outs[0].Out.Header.HasOptions() {
		t.Fatalf("gateway egress = %+v, want a packet without options", outs[0].Out)
	}

	// Tracker-tagged packet: dropped at the gateway.
	d = n.Deliver(taggedPacket(t, apk, db, "beacon"))
	if d.Delivered || d.Stage != StageGateway {
		t.Fatalf("tracker packet: %+v", d)
	}
	if d.Enforcement == nil || d.Enforcement.Cause != enforcer.DropPolicy {
		t.Fatalf("enforcement = %+v", d.Enforcement)
	}

	// Untagged packet: dropped at the gateway (default posture).
	d = n.Deliver(plainPacket(getRequest()))
	if d.Delivered || d.Stage != StageGateway {
		t.Fatalf("untagged packet: %+v", d)
	}
}

func TestGatewayPassthroughMode(t *testing.T) {
	gw := gateway.NewGateway(gateway.GatewayConfig{Clock: NewClock()})
	if gw.HasEnforcer() || gw.HasSanitizer() {
		t.Fatal("passthrough gateway misconfigured")
	}
	n := newStaticNetwork(ModeTAP, gw)
	d := n.Deliver(plainPacket(getRequest()))
	if !d.Delivered {
		t.Fatalf("passthrough dropped: %+v", d)
	}
	// Passthrough adds NFQUEUE cost vs no gateway.
	n2 := newStaticNetwork(ModeTAP, nil)
	d2 := n2.Deliver(plainPacket(getRequest()))
	if d.Latency <= d2.Latency {
		t.Fatalf("nfqueue %v must be slower than direct %v", d.Latency, d2.Latency)
	}
}

func TestSanitizerOnlyGateway(t *testing.T) {
	gw := gateway.NewGateway(gateway.GatewayConfig{Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)
	pkt := plainPacket(getRequest())
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{5, 5}})
	d := n.Deliver(pkt)
	if !d.Delivered {
		t.Fatalf("sanitized packet dropped: %+v", d)
	}
	if count(gw.Sanitizer(), "bp_sanitizer_cleansed_total") != 1 {
		t.Fatal("sanitizer did not cleanse")
	}
}

func TestStageAndModeStrings(t *testing.T) {
	if ModeSLIRP.String() != "slirp" || ModeTAP.String() != "tap" {
		t.Error("mode names")
	}
	for s, want := range map[DropStage]string{
		StageNone: "delivered", StageGateway: "gateway", StageBorder: "border-router", StageNoRoute: "no-route",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestServerByteAccounting(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	_, rxBytes := countRequests(n)
	req := &httpsim.Request{Method: "PUT", Path: "/up", Body: make([]byte, 1234)}
	d := n.Deliver(plainPacket(req.Marshal()))
	if !d.Delivered {
		t.Fatal("not delivered")
	}
	if got := rxBytes.Load(); got != 1234 {
		t.Fatalf("rx bytes = %d", got)
	}
}

// TestGatewayNeedsClock: the connection tracker has one time source, the
// clock it is built on; there is no clockless mode.
func TestGatewayNeedsClock(t *testing.T) {
	for name, build := range map[string]func(){
		"NewConntrack": func() { gateway.NewConntrack(nil) },
		"NewGateway":   func() { gateway.NewGateway(gateway.GatewayConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s built a tracker without a clock", name)
				}
			}()
			build()
		}()
	}
}

// setRules publishes rules on eng as a policy store would: the document
// they render, compiled.
func setRules(eng *policy.Engine, rules []policy.Rule) error {
	set, err := policy.Compile(policy.FormatPolicy(rules))
	if err != nil {
		return err
	}
	eng.Publish(set)
	return nil
}
