package experiments

// Integration tests exercising cross-module behaviour that no single
// package test can see: multi-dex wide-index tags through the full
// pipeline, truncated-hash collision handling, DNS-blocklist collateral
// damage vs BorderPatrol precision, and concurrent enforcement.

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ioi"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// buildMultiDexApp creates an app whose second dex holds the interesting
// method, forcing global indexes past the first dex and (with padding)
// exercising the wide encoding path end to end.
func buildMultiDexApp(t *testing.T) *apkgen.App {
	t.Helper()
	// Dex 0: filler classes with enough methods to push dex-1 indexes past
	// the 15-bit narrow boundary would need 32k methods — too slow for a
	// unit test, so verify the multi-dex indexing itself with a modest
	// filler and separately force wide encoding via index arithmetic in
	// TestWideEncodingThroughDatabase.
	filler := make([]dex.ClassDef, 8)
	for i := range filler {
		methods := make([]dex.MethodDef, 64)
		for j := range methods {
			methods[j] = dex.MethodDef{
				Name: fmt.Sprintf("f%03d", j), Proto: "()V",
				File: "Filler.java", StartLine: j * 4, EndLine: j*4 + 3,
			}
		}
		filler[i] = dex.ClassDef{
			Package: fmt.Sprintf("com/filler/p%02d", i),
			Name:    fmt.Sprintf("F%02d", i),
			Methods: methods,
		}
	}
	dex0 := &dex.File{Classes: filler}
	dex1 := &dex.File{Classes: []dex.ClassDef{{
		Package: "com/multi/app",
		Name:    "Worker",
		Methods: []dex.MethodDef{
			{Name: "leak", Proto: "()V", File: "W.java", StartLine: 5, EndLine: 25},
			{Name: "work", Proto: "()V", File: "W.java", StartLine: 30, EndLine: 50},
		},
	}}}
	apk := &dex.APK{
		PackageName: "com.multi.app",
		VersionCode: 1,
		Dexes:       []*dex.File{dex0, dex1},
	}
	ep := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.88"), 443)
	return &apkgen.App{
		APK: apk,
		Functionalities: []android.Functionality{
			{
				Name:     "leak",
				CallPath: []dex.Frame{{Class: "com/multi/app/Worker", Method: "leak", File: "W.java", Line: 10}},
				Op:       android.NetOp{Endpoint: ep, Method: "POST", PayloadBytes: 64},
			},
			{
				Name:      "work",
				Desirable: true,
				CallPath:  []dex.Frame{{Class: "com/multi/app/Worker", Method: "work", File: "W.java", Line: 35}},
				Op:        android.NetOp{Endpoint: ep, Method: "GET"},
			},
		},
		Meta: map[string]apkgen.FuncMeta{"leak": {}, "work": {}},
	}
}

func TestMultiDexEndToEnd(t *testing.T) {
	app := buildMultiDexApp(t)
	if !app.APK.MultiDex() {
		t.Fatal("app is not multi-dex")
	}
	rules := []policy.Rule{{
		Action: policy.Deny, Level: policy.LevelMethod,
		Target: "Lcom/multi/app/Worker;->leak()V",
	}}
	tb, err := NewTestbed([]*apkgen.App{app}, TestbedConfig{EnforcementOn: true, Rules: rules, DefaultVerdict: policy.VerdictAllow})
	if err != nil {
		t.Fatal(err)
	}
	// The second-dex method index must exceed the first dex's count.
	entry, ok := tb.DB.LookupTruncated(app.APK.Truncated())
	if !ok {
		t.Fatal("app missing from db")
	}
	if len(entry.Signatures) != 8*64+2 {
		t.Fatalf("signature count = %d", len(entry.Signatures))
	}
	if !entry.MultiDex {
		t.Fatal("multi-dex flag lost in db")
	}

	res, err := tb.Apps[0].Invoke("leak")
	if err != nil {
		t.Fatal(err)
	}
	d := tb.Network.Deliver(res.Packets[0])
	if d.Delivered {
		t.Fatal("second-dex leak method not blocked")
	}
	res, err = tb.Apps[0].Invoke("work")
	if err != nil {
		t.Fatal(err)
	}
	if d := tb.Network.Deliver(res.Packets[0]); !d.Delivered {
		t.Fatal("second-dex benign method blocked")
	}
}

func TestWideEncodingThroughDatabase(t *testing.T) {
	// Indexes above the 15-bit narrow boundary must survive the
	// tag→packet→decode round trip (the multi-dex wide-encoding extension).
	var h dex.TruncatedHash
	for i := range h {
		h[i] = byte(0x42 + i)
	}
	tg := tag.Tag{AppHash: h, Indexes: []uint32{70000, 12, 99999}}
	data, err := tg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pkt := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.66.0.2"),
		Dst: netip.MustParseAddr("203.0.113.88"),
	}}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: data})
	wire, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ipv4.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := back.Header.FindOption(ipv4.OptSecurity)
	decoded, err := tag.Decode(opt.Data)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint32{70000, 12, 99999} {
		if decoded.Indexes[i] != want {
			t.Fatalf("index %d = %d, want %d", i, decoded.Indexes[i], want)
		}
	}
}

func TestHashCollisionRefusedAtProvisioning(t *testing.T) {
	// Two different apps with an artificially colliding truncated hash must
	// be refused by the database rather than silently mis-attributed.
	db := analyzer.NewDatabase()
	entryA := analyzer.AppEntry{
		Hash:        "00112233445566778899aabbccddeeff",
		PackageName: "com.a",
		Signatures:  []string{"Lcom/a/A;->m()V"},
	}
	entryB := analyzer.AppEntry{
		Hash:        "0011223344556677ffffffffffffffff", // same first 8 bytes
		PackageName: "com.b",
		Signatures:  []string{"Lcom/b/B;->m()V"},
	}
	if err := db.AddEntry(entryA); err != nil {
		t.Fatal(err)
	}
	if err := db.AddEntry(entryB); err == nil {
		t.Fatal("colliding truncated hash accepted")
	}
}

func TestConcurrentEnforcement(t *testing.T) {
	// Many goroutines exercising distinct apps through one shared gateway:
	// verdict correctness must hold under concurrency (run with -race).
	cfg := apkgen.DefaultConfig()
	cfg.Apps = 16
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}
	tb, err := NewTestbed(corpus, TestbedConfig{EnforcementOn: true, Rules: rules, DefaultVerdict: policy.VerdictAllow})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(tb.Apps))
	for i := range tb.Apps {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			app := tb.Apps[idx]
			ga := tb.Corpus[idx]
			for _, fn := range ga.Functionalities {
				res, err := app.Invoke(fn.Name)
				if err != nil {
					errs <- fmt.Errorf("%s/%s: %w", ga.APK.PackageName, fn.Name, err)
					return
				}
				for _, pkt := range res.Packets {
					d := tb.Network.Deliver(pkt)
					meta := ga.Meta[fn.Name]
					isFlurry := meta.LibraryPkg == "com/flurry"
					if isFlurry && d.Delivered {
						errs <- fmt.Errorf("%s: flurry packet delivered", ga.APK.PackageName)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCaptureFullSessionRoundTrip(t *testing.T) {
	// A gateway session's device-egress traffic, the packets its apps
	// emitted, round-trips through the IPv4 wire format and supports the
	// same IoI analysis.
	cfg := apkgen.DefaultConfig()
	cfg.Apps = 10
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(corpus, TestbedConfig{EnforcementOn: false})
	if err != nil {
		t.Fatal(err)
	}
	var egress []*ipv4.Packet
	for i, app := range tb.Apps {
		for _, fn := range corpus[i].Functionalities {
			res, err := app.Invoke(fn.Name)
			if err != nil {
				t.Fatal(err)
			}
			tb.DeliverAll(res.Packets)
			egress = append(egress, res.Packets...)
		}
	}
	if len(egress) == 0 {
		t.Fatal("no session traffic")
	}

	reloaded := make([]*ipv4.Packet, len(egress))
	for i, pkt := range egress {
		wire, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if reloaded[i], err = ipv4.Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	}
	an1, err := ioi.Analyze(egress, tb.DB)
	if err != nil {
		t.Fatal(err)
	}
	if an1.AppsWithIoI == 0 {
		t.Fatal("the session shows no IoI")
	}
	an2, err := ioi.Analyze(reloaded, tb.DB)
	if err != nil {
		t.Fatal(err)
	}
	if an1.AppsWithIoI != an2.AppsWithIoI || an1.TotalIoIs != an2.TotalIoIs {
		t.Fatalf("analysis diverged after serialization: %+v vs %+v", an1, an2)
	}
}
