package ioi

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/tag"
)

// fixture builds two apps in one database:
//   - appA: methods in two different packages (dev + shared http client)
//   - appB: methods all in one package
func fixture(t *testing.T) (*dex.APK, *dex.APK, *analyzer.Database) {
	t.Helper()
	appA := &dex.APK{
		PackageName: "com.a.app",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{
			{Package: "com/a/app", Name: "Main", Methods: []dex.MethodDef{
				{Name: "fetch", Proto: "()V", File: "M.java", StartLine: 1, EndLine: 10},
			}},
			{Package: "org/apache/http", Name: "Client", Methods: []dex.MethodDef{
				{Name: "execute", Proto: "()V", File: "C.java", StartLine: 1, EndLine: 10},
			}},
		}}},
	}
	appB := &dex.APK{
		PackageName: "com.b.app",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{
			{Package: "com/b/app", Name: "Sync", Methods: []dex.MethodDef{
				{Name: "up", Proto: "()V", File: "S.java", StartLine: 1, EndLine: 10},
				{Name: "down", Proto: "()V", File: "S.java", StartLine: 20, EndLine: 30},
			}},
		}}},
	}
	db := analyzer.NewDatabase()
	if err := db.Add(appA); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(appB); err != nil {
		t.Fatal(err)
	}
	return appA, appB, db
}

func idxOf(t *testing.T, db *analyzer.Database, apk *dex.APK, name string) uint32 {
	t.Helper()
	entry, ok := db.LookupTruncated(apk.Truncated())
	if !ok {
		t.Fatal("app missing from db")
	}
	for i, raw := range entry.Signatures {
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Name == name {
			return uint32(i)
		}
	}
	t.Fatalf("method %s not found", name)
	return 0
}

func pkt(t *testing.T, apk *dex.APK, dst string, indexes ...uint32) *ipv4.Packet {
	t.Helper()
	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: indexes}
	data, err := tg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.0.0.5"),
		Dst: netip.MustParseAddr(dst),
	}}
	p.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: data})
	return p
}

func TestAnalyzeFindsIoIs(t *testing.T) {
	appA, appB, db := fixture(t)
	up := idxOf(t, db, appB, "up")
	down := idxOf(t, db, appB, "down")
	fetch := idxOf(t, db, appA, "fetch")
	exec := idxOf(t, db, appA, "execute")

	packets := []*ipv4.Packet{
		// appB: one destination, two distinct stacks -> 1 IoI, same package.
		pkt(t, appB, "198.19.0.1", up),
		pkt(t, appB, "198.19.0.1", down),
		// appB: another destination with a single stack -> not an IoI.
		pkt(t, appB, "198.19.0.2", up),
		pkt(t, appB, "198.19.0.2", up),
		// appA: one destination, two stacks spanning packages -> cross-package IoI.
		pkt(t, appA, "198.19.0.3", fetch, exec),
		pkt(t, appA, "198.19.0.3", exec),
	}
	an, err := Analyze(packets, db)
	if err != nil {
		t.Fatal(err)
	}
	if an.AppsAnalyzed != 2 {
		t.Fatalf("apps analyzed = %d", an.AppsAnalyzed)
	}
	if an.AppsWithIoI != 2 || an.TotalIoIs != 2 {
		t.Fatalf("IoIs: apps=%d total=%d", an.AppsWithIoI, an.TotalIoIs)
	}
	if an.Histogram[1] != 2 {
		t.Fatalf("histogram = %v", an.Histogram)
	}
	if an.SamePackageApps != 1 {
		t.Fatalf("same-package apps = %d, want 1 (appB only)", an.SamePackageApps)
	}
	if an.CrossPackageIoIs != 1 {
		t.Fatalf("cross-package IoIs = %d", an.CrossPackageIoIs)
	}
	if got := an.SamePackageShare(); got != 0.5 {
		t.Fatalf("same-package share = %f", got)
	}
	if got := an.CrossPackageShare(); got != 0.5 {
		t.Fatalf("cross-package share = %f", got)
	}
}

func TestSameStackNotIoI(t *testing.T) {
	_, appB, db := fixture(t)
	up := idxOf(t, db, appB, "up")
	// Many packets, single distinct stack: connection reuse, not an IoI.
	packets := []*ipv4.Packet{
		pkt(t, appB, "198.19.0.9", up),
		pkt(t, appB, "198.19.0.9", up),
		pkt(t, appB, "198.19.0.9", up),
	}
	an, err := Analyze(packets, db)
	if err != nil {
		t.Fatal(err)
	}
	if an.AppsWithIoI != 0 || an.TotalIoIs != 0 {
		t.Fatalf("false IoI detected: %+v", an)
	}
}

func TestSingletonPacketNotIoI(t *testing.T) {
	_, appB, db := fixture(t)
	up := idxOf(t, db, appB, "up")
	an, err := Analyze([]*ipv4.Packet{pkt(t, appB, "198.19.0.9", up)}, db)
	if err != nil {
		t.Fatal(err)
	}
	if an.TotalIoIs != 0 {
		t.Fatal("single packet counted as IoI")
	}
}

func TestUntaggedExcluded(t *testing.T) {
	_, appB, db := fixture(t)
	up := idxOf(t, db, appB, "up")
	plain := &ipv4.Packet{Header: ipv4.Header{
		TTL: 64, Protocol: ipv4.ProtoTCP,
		Src: netip.MustParseAddr("10.0.0.5"),
		Dst: netip.MustParseAddr("198.19.0.1"),
	}}
	corrupt := pkt(t, appB, "198.19.0.1", up)
	opt, _ := corrupt.Header.FindOption(ipv4.OptSecurity)
	opt.Data[0] = 0xf0 // bad version
	corrupt.Header.SetOption(opt)
	// Unknown app.
	ghost := &dex.APK{PackageName: "com.ghost", VersionCode: 1, Dexes: []*dex.File{{Classes: []dex.ClassDef{{
		Package: "g", Name: "G", Methods: []dex.MethodDef{{Name: "m", Proto: "()V", File: "G.java", StartLine: 1, EndLine: 2}},
	}}}}}
	unknown := pkt(t, ghost, "198.19.0.1", 0)

	an, err := Analyze([]*ipv4.Packet{plain, corrupt, unknown}, db)
	if err != nil {
		t.Fatal(err)
	}
	if an.UntaggedPackets != 3 {
		t.Fatalf("untagged = %d, want 3", an.UntaggedPackets)
	}
	if an.AppsAnalyzed != 0 {
		t.Fatalf("apps = %d", an.AppsAnalyzed)
	}
}

func TestSharesZeroSafe(t *testing.T) {
	an := &Analysis{}
	if an.SamePackageShare() != 0 || an.CrossPackageShare() != 0 {
		t.Fatal("zero-division guard failed")
	}
}
