package android

import (
	"errors"
	"net/netip"
	"testing"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/netstack"
	"borderpatrol/internal/transport"
)

func testAPK() *dex.APK {
	return &dex.APK{
		PackageName: "com.corp.files",
		Label:       "CorpFiles",
		Category:    "BUSINESS",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{
				{
					Package: "com/corp/files",
					Name:    "SyncEngine",
					Methods: []dex.MethodDef{
						{Name: "download", Proto: "(Ljava/lang/String;)V", File: "SyncEngine.java", StartLine: 10, EndLine: 40},
						{Name: "upload", Proto: "(Ljava/lang/String;)V", File: "SyncEngine.java", StartLine: 50, EndLine: 90},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []dex.MethodDef{
						{Name: "beacon", Proto: "()V", File: "Agent.java", StartLine: 5, EndLine: 25},
					},
				},
			},
		}},
	}
}

func endpoint() netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 443)
}

func testFunctionalities() []Functionality {
	return []Functionality{
		{
			Name:      "download",
			Desirable: true,
			CallPath: []dex.Frame{
				{Class: "com/corp/files/SyncEngine", Method: "download", File: "SyncEngine.java", Line: 15},
			},
			Op:     NetOp{Endpoint: endpoint(), Host: "files.corp", Method: "GET", Path: "/doc"},
			Weight: 1,
		},
		{
			Name:      "upload",
			Desirable: false,
			CallPath: []dex.Frame{
				{Class: "com/corp/files/SyncEngine", Method: "upload", File: "SyncEngine.java", Line: 60},
			},
			Op:     NetOp{Endpoint: endpoint(), Host: "files.corp", Method: "PUT", Path: "/doc", PayloadBytes: 2048},
			Weight: 1,
		},
		{
			Name:      "analytics",
			Desirable: false,
			CallPath: []dex.Frame{
				{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10},
			},
			Op:     NetOp{Endpoint: endpoint(), Host: "data.flurry.com", Method: "POST", Path: "/aap.do", PayloadBytes: 256},
			Weight: 1,
		},
	}
}

func newTestDevice() *Device {
	return NewDevice(Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          kernel.Config{AllowUnprivilegedIPOptions: true},
		XposedInstalled: true,
	})
}

func TestThreadStackSemantics(t *testing.T) {
	th := NewThread()
	th.Push(dex.Frame{Class: "a/A", Method: "outer"})
	th.Push(dex.Frame{Class: "a/A", Method: "inner"})
	st := th.GetStackTrace()
	if len(st) != 2 || st[0].Method != "inner" || st[1].Method != "outer" {
		t.Fatalf("getStackTrace order wrong: %v", st)
	}
	th.Pop()
	if th.Depth() != 1 {
		t.Fatalf("depth = %d", th.Depth())
	}
	th.PopN(10) // over-pop is clamped
	if th.Depth() != 0 {
		t.Fatalf("depth = %d after over-pop", th.Depth())
	}
}

func TestInstallAndInvoke(t *testing.T) {
	d := newTestDevice()
	app, err := d.InstallApp(testAPK(), testFunctionalities(), ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	if app.UID < firstAppUID {
		t.Fatalf("uid = %d", app.UID)
	}
	res, err := app.Invoke("download")
	if err != nil {
		t.Fatal(err)
	}
	// One connection: SYN, one HTTP request, FIN.
	if len(res.Packets) != 3 {
		t.Fatalf("got %d packets, want 3 (SYN + request + FIN)", len(res.Packets))
	}
	for i, pkt := range res.Packets {
		if pkt.Header.Dst != endpoint().Addr() {
			t.Fatalf("packet %d has wrong destination", i)
		}
	}
	// Without a Context Manager module, packets are untagged.
	if res.Tagged {
		t.Fatal("unprovisioned app produced tagged packet")
	}
	// Stack must be balanced after invocation.
	if app.Thread().Depth() != 0 {
		t.Fatalf("thread depth %d after invoke", app.Thread().Depth())
	}
}

func TestInvokeUnknownFunctionality(t *testing.T) {
	d := newTestDevice()
	app, err := d.InstallApp(testAPK(), testFunctionalities(), ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Invoke("does-not-exist"); !errors.Is(err, ErrUnknownFunctionality) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateInstallRejected(t *testing.T) {
	d := newTestDevice()
	if _, err := d.InstallApp(testAPK(), nil, ProfileWork); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallApp(testAPK(), nil, ProfileWork); !errors.Is(err, ErrAppInstalled) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateFunctionalityRejected(t *testing.T) {
	d := newTestDevice()
	funcs := []Functionality{{Name: "x"}, {Name: "x"}}
	if _, err := d.InstallApp(testAPK(), funcs, ProfileWork); err == nil {
		t.Fatal("duplicate functionality accepted")
	}
}

type recordingModule struct {
	name   string
	loaded []string
	fail   bool
}

func (m *recordingModule) Name() string { return m.name }
func (m *recordingModule) HandleLoadPackage(app *App) error {
	if m.fail {
		return errors.New("boom")
	}
	m.loaded = append(m.loaded, app.APK.PackageName)
	return nil
}

func TestModuleLoadPackageLifecycle(t *testing.T) {
	d := newTestDevice()
	m := &recordingModule{name: "recorder"}
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallApp(testAPK(), testFunctionalities(), ProfileWork); err != nil {
		t.Fatal(err)
	}
	if len(m.loaded) != 1 || m.loaded[0] != "com.corp.files" {
		t.Fatalf("loaded = %v", m.loaded)
	}
	// Personal-profile apps are invisible to modules.
	personal := testAPK()
	personal.PackageName = "com.games.fun"
	personal.Invalidate()
	if _, err := d.InstallApp(personal, nil, ProfilePersonal); err != nil {
		t.Fatal(err)
	}
	if len(m.loaded) != 1 {
		t.Fatalf("module saw personal app: %v", m.loaded)
	}
}

func TestLateModuleSeesInstalledApps(t *testing.T) {
	d := newTestDevice()
	if _, err := d.InstallApp(testAPK(), nil, ProfileWork); err != nil {
		t.Fatal(err)
	}
	m := &recordingModule{name: "late"}
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if len(m.loaded) != 1 {
		t.Fatalf("late module missed installed app: %v", m.loaded)
	}
}

func TestStockImageRejectsModules(t *testing.T) {
	d := NewDevice(Config{Addr: netip.MustParseAddr("10.0.0.9")})
	if err := d.LoadModule(&recordingModule{name: "x"}); !errors.Is(err, ErrNoXposed) {
		t.Fatalf("err = %v", err)
	}
}

func TestModuleFailurePropagates(t *testing.T) {
	d := newTestDevice()
	if err := d.LoadModule(&recordingModule{name: "bad", fail: true}); err != nil {
		t.Fatal(err) // loading an empty device succeeds
	}
	if _, err := d.InstallApp(testAPK(), nil, ProfileWork); err == nil {
		t.Fatal("failing module did not block install")
	}
}

func TestHookSeesAppStackAtConnectTime(t *testing.T) {
	// A connect hook (like the Context Manager) can look up the calling app
	// by uid and snapshot its thread: the stack must contain the
	// functionality's call path plus the java.net epilogue at capture time.
	d := newTestDevice()
	app, err := d.InstallApp(testAPK(), testFunctionalities(), ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	var captured []dex.Frame
	d.Stack().RegisterConnectHook(func(sock *netstack.JavaSocket) {
		if a, ok := d.AppByUID(sock.OwnerUID); ok {
			captured = a.Thread().GetStackTrace()
		}
	})
	if _, err := app.Invoke("upload"); err != nil {
		t.Fatal(err)
	}
	if len(captured) == 0 {
		t.Fatal("hook captured nothing")
	}
	// Innermost frames are the java.net epilogue.
	if captured[0].Class != "java/net/AbstractPlainSocketImpl" {
		t.Fatalf("innermost frame = %v", captured[0])
	}
	// The app's upload method must be on the stack.
	found := false
	for _, f := range captured {
		if f.Class == "com/corp/files/SyncEngine" && f.Method == "upload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("upload frame missing from %v", captured)
	}
	// Outermost frame is the zygote prologue.
	if captured[len(captured)-1].Class != "com/android/internal/os/ZygoteInit" {
		t.Fatalf("outermost frame = %v", captured[len(captured)-1])
	}
}

func TestKeepAliveMultipleRequests(t *testing.T) {
	d := newTestDevice()
	funcs := []Functionality{{
		Name:     "sync",
		CallPath: []dex.Frame{{Class: "com/corp/files/SyncEngine", Method: "download", File: "SyncEngine.java", Line: 15}},
		Op:       NetOp{Endpoint: endpoint(), Requests: 5},
	}}
	app, err := d.InstallApp(testAPK(), funcs, ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Invoke("sync")
	if err != nil {
		t.Fatal(err)
	}
	// One TCP connection carries the whole train: SYN + 5 requests + FIN.
	if len(res.Packets) != 7 {
		t.Fatalf("keep-alive sent %d packets, want 7 (SYN + 5 + FIN)", len(res.Packets))
	}
	if len(res.SocketFDs) != 1 {
		t.Fatalf("keep-alive used %d sockets, want 1", len(res.SocketFDs))
	}
}

func TestChunkedTransferUsesMultipleSockets(t *testing.T) {
	d := newTestDevice()
	funcs := []Functionality{{
		Name:     "evasive-upload",
		CallPath: []dex.Frame{{Class: "com/corp/files/SyncEngine", Method: "upload", File: "SyncEngine.java", Line: 60}},
		Op:       NetOp{Endpoint: endpoint(), Method: "PUT", PayloadBytes: 10000, Chunks: 4},
	}}
	app, err := d.InstallApp(testAPK(), funcs, ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Invoke("evasive-upload")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SocketFDs) != 4 {
		t.Fatalf("chunked op used %d sockets, want 4", len(res.SocketFDs))
	}
	for _, pkt := range res.Packets {
		if len(pkt.Payload) > 4000 {
			t.Fatalf("chunk payload %d larger than expected", len(pkt.Payload))
		}
	}
}

func TestNativeSocketBypassesHooks(t *testing.T) {
	d := newTestDevice()
	hookFired := false
	// Register a netstack-level connect hook like the Context Manager does.
	d.Stack().RegisterConnectHook(func(sock *netstack.JavaSocket) { hookFired = true })
	funcs := []Functionality{{
		Name:     "native-beacon",
		CallPath: []dex.Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10}},
		Op:       NetOp{Endpoint: endpoint(), UseNativeSocket: true, PayloadBytes: 64},
	}}
	app, err := d.InstallApp(testAPK(), funcs, ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Invoke("native-beacon")
	if err != nil {
		t.Fatal(err)
	}
	if hookFired {
		t.Fatal("native socket path must not fire Java-level hooks")
	}
	if len(res.Packets) != 3 {
		t.Fatalf("native op sent %d packets, want 3 (SYN + data + FIN)", len(res.Packets))
	}
	if res.Tagged {
		t.Fatal("native-socket packet must be untagged")
	}
	for i, pkt := range res.Packets {
		if _, ok := pkt.Header.FindOption(ipv4.OptSecurity); ok {
			t.Fatalf("native packet %d carries options", i)
		}
	}
}

// TestFailedInvokeClosesSocket: a datagram too large for UDP fails the
// send, on the Java path and on the native one alike, and the socket the
// failed call opened leaves the kernel's table.
func TestFailedInvokeClosesSocket(t *testing.T) {
	for _, native := range []bool{false, true} {
		d := newTestDevice()
		funcs := []Functionality{{
			Name:     "oversized",
			CallPath: []dex.Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10}},
			Op: NetOp{Endpoint: endpoint(), Proto: ipv4.ProtoUDP, UseNativeSocket: native,
				Datagram: make([]byte, transport.MaxUDPPayload+1)},
		}}
		app, err := d.InstallApp(testAPK(), funcs, ProfileWork)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Invoke("oversized"); !errors.Is(err, kernel.ErrInvalid) {
			t.Fatalf("native %v: oversized datagram: %v, want EINVAL", native, err)
		}
		// Fds are handed out in order and never reused: the failed call's
		// socket is the one just before the next.
		k := d.Stack().Kernel()
		fd := k.Socket(app.UID, ipv4.ProtoUDP) - 1
		if _, err := k.GetSocket(fd); !errors.Is(err, kernel.ErrBadFD) {
			t.Fatalf("native %v: socket %d after the failed send: %v, want EBADF", native, fd, err)
		}
	}
}

func TestAppsOrderedByUID(t *testing.T) {
	d := newTestDevice()
	names := []string{"com.a.one", "com.b.two", "com.c.three"}
	for _, n := range names {
		apk := testAPK()
		apk.PackageName = n
		apk.Invalidate()
		if _, err := d.InstallApp(apk, nil, ProfileWork); err != nil {
			t.Fatal(err)
		}
	}
	apps := d.Apps()
	if len(apps) != 3 {
		t.Fatalf("got %d apps", len(apps))
	}
	for i, n := range names {
		if apps[i].APK.PackageName != n {
			t.Fatalf("apps[%d] = %s, want %s", i, apps[i].APK.PackageName, n)
		}
	}
	if _, ok := d.AppByPackage("com.b.two"); !ok {
		t.Fatal("AppByPackage failed")
	}
	if _, ok := d.AppByUID(apps[2].UID); !ok {
		t.Fatal("AppByUID failed")
	}
	if _, ok := d.AppByPackage("com.nope"); ok {
		t.Fatal("phantom app")
	}
}

func TestProfileString(t *testing.T) {
	if ProfileWork.String() != "work" || ProfilePersonal.String() != "personal" {
		t.Error("profile names")
	}
}
