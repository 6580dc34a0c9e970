package enforcer

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// registry registers everything the enforcer exports on a fresh registry.
func registry(e *Enforcer) *metrics.Registry {
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)
	return r
}

// count reads one of the enforcer's series; labels narrow a family.
func count(e *Enforcer, family string, labels ...metrics.Label) uint64 {
	v, _ := registry(e).Value(family, labels...)
	return uint64(v)
}

// verdicts reads the allow and drop verdict counts.
func verdicts(e *Enforcer) (accepted, dropped uint64) {
	return count(e, "bp_enforcer_verdicts_total", metrics.L("decision", "allow")),
		count(e, "bp_enforcer_verdicts_total", metrics.L("decision", "drop"))
}

// drops reads the drop count of one cause.
func drops(e *Enforcer, c DropCause) uint64 {
	return count(e, "bp_enforcer_drops_total", metrics.L("cause", c.String()))
}

func testAPK() *dex.APK {
	return &dex.APK{
		PackageName: "com.corp.files",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{
				{
					Package: "com/corp/files",
					Name:    "SyncEngine",
					Methods: []dex.MethodDef{
						{Name: "download", Proto: "()V", File: "S.java", StartLine: 10, EndLine: 20},
						{Name: "upload", Proto: "()V", File: "S.java", StartLine: 30, EndLine: 40},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []dex.MethodDef{
						{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 5, EndLine: 15},
					},
				},
			},
		}},
	}
}

func mkPacket(t *testing.T, apk *dex.APK, db *analyzer.Database, sigNames ...string) *ipv4.Packet {
	t.Helper()
	var indexes []uint32
	for _, name := range sigNames {
		found := false
		entry, _ := db.LookupTruncated(apk.Truncated())
		for i, raw := range entry.Signatures {
			sig, err := dex.ParseSignature(raw)
			if err != nil {
				t.Fatal(err)
			}
			if sig.Name == name {
				indexes = append(indexes, uint32(i))
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("signature %q not in db", name)
		}
	}
	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: indexes}
	payload, err := tg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.0.0.5"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: []byte("POST /x HTTP/1.1\r\n\r\n"),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	return pkt
}

// testClock is a settable virtual clock: one atomic, like the netsim.Clock
// the shipped assembly hands every enforcer.
type testClock struct{ now atomic.Int64 }

func (c *testClock) Now() time.Duration { return time.Duration(c.now.Load()) }

func (c *testClock) set(d time.Duration) { c.now.Store(int64(d)) }

// newSource is what the shipped assembly hands every enforcer: a
// device-context source, here on a clock of its own that nothing moves.
func newSource() *devctx.Source { return devctx.NewSource(&testClock{}) }

// newEnforcer builds an enforcer on cfg, with a newSource when cfg has no
// context source.
func newEnforcer(t *testing.T, cfg Config, rules []policy.Rule, def policy.Verdict) (*Enforcer, *analyzer.Database, *dex.APK) {
	t.Helper()
	if cfg.Context == nil {
		cfg.Context = newSource()
	}
	apk := testAPK()
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	eng, err := policy.NewEngine(rules, def)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, db, eng), db, apk
}

func TestPolicyDenyDropsTrackerStack(t *testing.T) {
	e, db, apk := newEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)

	// Tracker frame present: drop.
	res := e.Process(mkPacket(t, apk, db, "beacon", "download"))
	if res.Verdict != policy.VerdictDrop || res.Cause != DropPolicy {
		t.Fatalf("res = %+v", res)
	}
	if res.Access == nil || res.Access.Rule == nil {
		t.Fatal("decision not attached")
	}
	// Clean stack: allow.
	res = e.Process(mkPacket(t, apk, db, "download"))
	if res.Verdict != policy.VerdictAllow {
		t.Fatalf("clean stack dropped: %+v", res)
	}
	if len(res.Stack) != 1 || res.Stack[0].Name != "download" {
		t.Fatalf("decoded stack = %v", res.Stack)
	}
	if acc, drop := verdicts(e); acc != 1 || drop != 1 || drops(e, DropPolicy) != 1 {
		t.Fatalf("accepted/dropped = %d/%d, policy drops %d; want 1/1, 1", acc, drop, drops(e, DropPolicy))
	}
}

// TestNewRequiresContext: every enforcer reads device context and time
// from its context source; there is no contextless mode.
func TestNewRequiresContext(t *testing.T) {
	eng, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New built an enforcer without a context source")
		}
	}()
	New(Config{}, analyzer.NewDatabase(), eng)
}

func TestUntaggedPacketsDroppedByDefault(t *testing.T) {
	e, _, _ := newEnforcer(t, Config{}, nil, policy.VerdictAllow)
	pkt := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.0.0.7"),
		Dst: netip.MustParseAddr("8.8.8.8"),
	}}
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictDrop || res.Cause != DropUntagged {
		t.Fatalf("res = %+v", res)
	}
	// Staged rollout mode admits them.
	e2, _, _ := newEnforcer(t, Config{AllowUntagged: true}, nil, policy.VerdictAllow)
	if res := e2.Process(pkt); res.Verdict != policy.VerdictAllow {
		t.Fatalf("AllowUntagged ignored: %+v", res)
	}
}

func TestUnknownAppDropped(t *testing.T) {
	e, _, _ := newEnforcer(t, Config{}, nil, policy.VerdictAllow)
	// A tag from an app that was never analyzed.
	var h dex.TruncatedHash
	for i := range h {
		h[i] = 0xee
	}
	tg := tag.Tag{AppHash: h, Indexes: []uint32{0}}
	payload, _ := tg.Encode()
	pkt := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.0.0.5"),
		Dst: netip.MustParseAddr("8.8.8.8"),
	}}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictDrop || res.Cause != DropUnknownApp {
		t.Fatalf("res = %+v", res)
	}
}

func TestMalformedTagDropped(t *testing.T) {
	e, _, _ := newEnforcer(t, Config{}, nil, policy.VerdictAllow)
	pkt := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.0.0.5"),
		Dst: netip.MustParseAddr("8.8.8.8"),
	}}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{0xff, 0x01}})
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictDrop || res.Cause != DropMalformedTag {
		t.Fatalf("res = %+v", res)
	}
}

func TestBadIndexDropped(t *testing.T) {
	e, _, apk := newEnforcer(t, Config{}, nil, policy.VerdictAllow)
	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{9999}}
	payload, _ := tg.Encode()
	pkt := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.0.0.5"),
		Dst: netip.MustParseAddr("8.8.8.8"),
	}}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictDrop || res.Cause != DropBadIndex {
		t.Fatalf("res = %+v", res)
	}
}

func TestMethodLevelSelectivity(t *testing.T) {
	// The headline capability: same app, same destination — upload dropped,
	// download allowed, purely on the method in the stack.
	uploadSig := "Lcom/corp/files/SyncEngine;->upload()V"
	e, db, apk := newEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelMethod, Target: uploadSig}},
		policy.VerdictAllow)

	if res := e.Process(mkPacket(t, apk, db, "upload")); res.Verdict != policy.VerdictDrop {
		t.Fatalf("upload not dropped: %+v", res)
	}
	if res := e.Process(mkPacket(t, apk, db, "download")); res.Verdict != policy.VerdictAllow {
		t.Fatalf("download dropped: %+v", res)
	}
}

func TestWhitelistByHash(t *testing.T) {
	apk := testAPK()
	rules := []policy.Rule{{Action: policy.Allow, Level: policy.LevelHash, Target: apk.Truncated().String()}}
	e, db, _ := newEnforcer(t, Config{}, rules, policy.VerdictDrop)
	if res := e.Process(mkPacket(t, apk, db, "download")); res.Verdict != policy.VerdictAllow {
		t.Fatalf("whitelisted app dropped: %+v", res)
	}
}

func TestDropCauseStrings(t *testing.T) {
	for c, want := range map[DropCause]string{
		DropNone: "accepted", DropUntagged: "untagged", DropMalformedTag: "malformed-tag",
		DropUnknownApp: "unknown-app", DropBadIndex: "bad-index", DropPolicy: "policy",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
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
