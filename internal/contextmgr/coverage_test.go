package contextmgr

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
)

func TestModuleName(t *testing.T) {
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	if m.Name() != "borderpatrol-context-manager" {
		t.Fatalf("Name() = %q", m.Name())
	}
}

func TestHandleLoadPackageRejectsInvalidAPK(t *testing.T) {
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	bad := &android.App{APK: &dex.APK{PackageName: "com.bad"}} // no dex files
	if err := m.HandleLoadPackage(bad); err == nil {
		t.Fatal("invalid apk accepted by HandleLoadPackage")
	}
}

func TestUntrackedUIDHookIsNoop(t *testing.T) {
	// A socket owned by a uid the manager never loaded (e.g. a personal
	// app) must pass through the hook without tagging or errors.
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	sock := d.Stack().NewJavaSocket(99999) // uid with no app state
	if err := sock.Connect(netip.AddrPortFrom(netip.MustParseAddr("1.2.3.4"), 80)); err != nil {
		t.Fatal(err)
	}
	if c := counters(m); c["sockets_tagged"] != 0 || c["tag_failures"] != 0 {
		t.Fatalf("untracked socket affected counters: %v", c)
	}
}

func TestUntrackedAppRecordsError(t *testing.T) {
	// The pathological case: the manager has state for a uid but the device
	// cannot resolve the app (state desync). It counts as a tag failure.
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	app, err := d.InstallApp(testAPK(), funcs(), android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	// Forge manager state under a uid the device does not know.
	m.mu.Lock()
	m.apps[55555] = m.apps[app.UID]
	m.mu.Unlock()
	sock := d.Stack().NewJavaSocket(55555)
	if err := sock.Connect(netip.AddrPortFrom(netip.MustParseAddr("1.2.3.4"), 80)); err != nil {
		t.Fatal(err)
	}
	if n := counters(m)["tag_failures"]; n != 1 {
		t.Fatalf("tag failures = %d, want 1", n)
	}
}

func TestDeepStackTruncationFlag(t *testing.T) {
	// A call path deeper than the narrow-frame budget (14) sets the
	// truncated stat and still tags the innermost frames.
	apkDeep := &dex.APK{
		PackageName: "com.deep.app",
		VersionCode: 1,
		Dexes:       []*dex.File{{}},
	}
	methods := make([]dex.MethodDef, 20)
	frames := make([]dex.Frame, 20)
	for i := range methods {
		methods[i] = dex.MethodDef{
			Name: "level" + string(rune('a'+i)), Proto: "()V",
			File: "Deep.java", StartLine: i * 10, EndLine: i*10 + 5,
		}
		frames[i] = dex.Frame{
			Class: "com/deep/app/Chain", Method: methods[i].Name,
			File: "Deep.java", Line: i*10 + 2,
		}
	}
	apkDeep.Dexes[0].Classes = []dex.ClassDef{{
		Package: "com/deep/app", Name: "Chain", Methods: methods,
	}}

	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	fns := []android.Functionality{{
		Name:     "deep-call",
		CallPath: frames,
		Op: android.NetOp{
			Endpoint: netip.AddrPortFrom(netip.MustParseAddr("1.2.3.4"), 443),
		},
	}}
	app, err := d.InstallApp(apkDeep, fns, android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Invoke("deep-call")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tagged {
		t.Fatal("deep stack not tagged")
	}
	if n := counters(m)["stacks_truncated"]; n != 1 {
		t.Fatalf("truncation not counted: %d", n)
	}
}
