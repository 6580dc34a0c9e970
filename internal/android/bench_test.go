package android_test

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/android"
	"borderpatrol/internal/contextmgr"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/kernel"
)

// BenchmarkInvokeConnect is one connect-workload operation on the device:
// Invoke of a one-request functionality on a device provisioned with the
// Context Manager — the stack pushed, a socket connected and tagged from
// the call-site table, SYN, request and FIN built through the kernel, the
// socket closed.
func BenchmarkInvokeConnect(b *testing.B) { benchmarkInvoke(b, 1) }

// BenchmarkInvokeKeepAlive is one keepalive-workload operation: the same
// Invoke with 32 requests on the socket, so the 34 packets the kernel
// builds outweigh the connect and the tagging.
func BenchmarkInvokeKeepAlive(b *testing.B) { benchmarkInvoke(b, 32) }

func benchmarkInvoke(b *testing.B, requests int) {
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          kernel.Config{AllowUnprivilegedIPOptions: true, SetOptionsOncePerSocket: true},
		XposedInstalled: true,
	})
	if err := d.LoadModule(contextmgr.New(d)); err != nil {
		b.Fatal(err)
	}
	apk := &dex.APK{
		PackageName: "com.corp.files",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{{
			Package: "com/corp/files",
			Name:    "SyncEngine",
			Methods: []dex.MethodDef{
				{Name: "download", Proto: "(Ljava/lang/String;)V", File: "SyncEngine.java", StartLine: 10, EndLine: 40},
				{Name: "fetch", Proto: "()V", File: "SyncEngine.java", StartLine: 50, EndLine: 60},
			},
		}}}},
	}
	app, err := d.InstallApp(apk, []android.Functionality{{
		Name: "download",
		CallPath: []dex.Frame{
			{Class: "com/corp/files/SyncEngine", Method: "fetch", File: "SyncEngine.java", Line: 55},
			{Class: "com/corp/files/SyncEngine", Method: "download", File: "SyncEngine.java", Line: 15},
		},
		Op: android.NetOp{
			Endpoint: netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 80),
			Host:     "files.corp.example", Method: "GET", Path: "/static/page.html",
			Requests: requests,
		},
	}}, android.ProfileWork)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := app.Invoke("download")
		if err != nil || len(res.Packets) != requests+2 || !res.Tagged {
			b.Fatalf("invoke: %v, %d packets", err, len(res.Packets))
		}
	}
}
