package monkey

import (
	"errors"
	"net/netip"
	"testing"

	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/kernel"
)

func buildApp(t *testing.T) *android.App {
	t.Helper()
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          kernel.Config{AllowUnprivilegedIPOptions: true},
		XposedInstalled: true,
	})
	apk := &dex.APK{
		PackageName: "com.corp.app",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{{
			Package: "com/corp/app",
			Name:    "Main",
			Methods: []dex.MethodDef{
				{Name: "a", Proto: "()V", File: "M.java", StartLine: 1, EndLine: 10},
				{Name: "b", Proto: "()V", File: "M.java", StartLine: 20, EndLine: 30},
			},
		}}}},
	}
	ep := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.7"), 443)
	funcs := []android.Functionality{
		{
			Name:     "common",
			CallPath: []dex.Frame{{Class: "com/corp/app/Main", Method: "a", File: "M.java", Line: 3}},
			Op:       android.NetOp{Endpoint: ep},
			Weight:   10,
		},
		{
			Name:     "rare",
			CallPath: []dex.Frame{{Class: "com/corp/app/Main", Method: "b", File: "M.java", Line: 22}},
			Op:       android.NetOp{Endpoint: ep},
			Weight:   1,
		},
	}
	app, err := d.InstallApp(apk, funcs, android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestRunDeterministic(t *testing.T) {
	app := buildApp(t)
	cfg := Config{Events: 5000, Seed: 42}
	r1, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app2 := buildApp(t)
	r2, err := Run(app2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Invocations != r2.Invocations || len(r1.Packets) != len(r2.Packets) {
		t.Fatalf("runs differ: %d/%d vs %d/%d", r1.Invocations, len(r1.Packets), r2.Invocations, len(r2.Packets))
	}
}

func TestRunEventAccounting(t *testing.T) {
	app := buildApp(t)
	rep, err := Run(app, Config{Events: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsInjected != 5000 {
		t.Fatalf("events = %d", rep.EventsInjected)
	}
	// ~2% of 5000 ≈ 100 invocations; allow wide randomness bounds.
	if rep.Invocations < 50 || rep.Invocations > 200 {
		t.Fatalf("invocations = %d, want ≈100", rep.Invocations)
	}
	// Each invocation opens one TCP connection: SYN + request + FIN.
	if len(rep.Packets) != 3*(rep.Invocations-rep.Errors) {
		t.Fatalf("packets %d vs invocations %d errors %d", len(rep.Packets), rep.Invocations, rep.Errors)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
}

func TestWeightBias(t *testing.T) {
	app := buildApp(t)
	rep, err := Run(app, Config{Events: 50000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	common := rep.InvocationsByName["common"]
	rare := rep.InvocationsByName["rare"]
	if common <= rare*3 {
		t.Fatalf("weights not honoured: common=%d rare=%d", common, rare)
	}
	if rep.Coverage != 1.0 {
		t.Fatalf("coverage = %f with 1000 expected invocations", rep.Coverage)
	}
}

func TestRunErrors(t *testing.T) {
	app := buildApp(t)
	if _, err := Run(app, Config{Events: 0}); err == nil {
		t.Error("zero events accepted")
	}
	d := android.NewDevice(android.Config{Addr: netip.MustParseAddr("10.0.0.6"), XposedInstalled: true})
	apk := &dex.APK{PackageName: "com.empty", VersionCode: 1, Dexes: []*dex.File{{Classes: []dex.ClassDef{{
		Package: "c", Name: "C", Methods: []dex.MethodDef{{Name: "m", Proto: "()V", File: "C.java", StartLine: 1, EndLine: 2}},
	}}}}}
	empty, err := d.InstallApp(apk, nil, android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(empty, Config{Events: 5000, Seed: 1}); !errors.Is(err, ErrNoFunctionality) {
		t.Errorf("err = %v", err)
	}
}
