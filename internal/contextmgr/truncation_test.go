package contextmgr

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/tag"
)

// deepAPK builds an apk with maxDepth distinct, non-overloaded methods in
// one class so tests can construct resolvable call stacks of any depth up
// to maxDepth.
func deepAPK(maxDepth int) *dex.APK {
	methods := make([]dex.MethodDef, maxDepth)
	for i := range methods {
		methods[i] = dex.MethodDef{
			Name:      fmt.Sprintf("step%02d", i),
			Proto:     "()V",
			File:      "Deep.java",
			StartLine: 10*i + 1,
			EndLine:   10*i + 9,
		}
	}
	return &dex.APK{
		PackageName: "com.corp.deep",
		Label:       "DeepStacks",
		Category:    "BUSINESS",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{{
				Package: "com/corp/deep",
				Name:    "Deep",
				Methods: methods,
			}},
		}},
	}
}

// deepFuncs defines one functionality per requested stack depth, named
// "depthNN", whose call path walks the first NN methods of deepAPK.
func deepFuncs(depths []int) []android.Functionality {
	fs := make([]android.Functionality, 0, len(depths))
	for _, depth := range depths {
		path := make([]dex.Frame, depth)
		for i := range path {
			path[i] = dex.Frame{
				Class:  "com/corp/deep/Deep",
				Method: fmt.Sprintf("step%02d", i),
				File:   "Deep.java",
				Line:   10*i + 5,
			}
		}
		fs = append(fs, android.Functionality{
			Name:     fmt.Sprintf("depth%02d", depth),
			CallPath: path,
			Op:       android.NetOp{Endpoint: endpoint(), Method: "GET"},
		})
	}
	return fs
}

func provisionDeep(t *testing.T, depths []int) (*android.Device, *Manager, *android.App) {
	t.Helper()
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.6"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	app, err := d.InstallApp(deepAPK(20), deepFuncs(depths), android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	return d, m, app
}

// invokeTag runs one functionality and returns the decoded tag of its
// first (SYN) packet.
func invokeTag(t *testing.T, app *android.App, name string) tag.Tag {
	t.Helper()
	res, err := app.Invoke(name)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tagged {
		t.Fatalf("%s: packet not tagged", name)
	}
	opt, ok := res.Packets[0].Header.FindOption(ipv4.OptSecurity)
	if !ok {
		t.Fatalf("%s: security option missing", name)
	}
	decoded, err := tag.Decode(opt.Data)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

// widenIndexes shifts every signature index of the app past the 15-bit
// narrow limit, forcing the encoder onto 3-byte wide indexes — the layout
// a multi-dex app with a large method count produces (§VII).
func widenIndexes(m *Manager, uid int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.apps[uid]
	for k, v := range st.sigIndex {
		st.sigIndex[k] = v + 0x10000
	}
	for k, v := range st.overloadIndex {
		st.overloadIndex[k] = v + 0x10000
	}
}

// TestTruncationNarrowBoundary pins the 14-frame narrow budget: a 14-frame
// stack fits untruncated, a 15-frame stack loses exactly one frame, and the
// manager's StacksTruncated stat agrees with the encoded flag both times.
func TestTruncationNarrowBoundary(t *testing.T) {
	_, m, app := provisionDeep(t, []int{14, 15})

	fits := invokeTag(t, app, "depth14")
	if fits.Truncated {
		t.Fatal("14 narrow frames flagged truncated")
	}
	if len(fits.Indexes) != tag.MaxNarrowFrames {
		t.Fatalf("got %d indexes, want %d", len(fits.Indexes), tag.MaxNarrowFrames)
	}
	if got := counters(m)["stacks_truncated"]; got != 0 {
		t.Fatalf("StacksTruncated = %d after untruncated stack", got)
	}

	over := invokeTag(t, app, "depth15")
	if !over.Truncated {
		t.Fatal("15 narrow frames not flagged truncated")
	}
	if len(over.Indexes) != tag.MaxNarrowFrames {
		t.Fatalf("got %d indexes, want %d", len(over.Indexes), tag.MaxNarrowFrames)
	}
	if got := counters(m)["stacks_truncated"]; got != 1 {
		t.Fatalf("StacksTruncated = %d, want 1", got)
	}
}

// TestTruncationWideBoundary pins the 9-frame wide budget. The 10..14-frame
// wide stacks are the regression case: the encoder truncates them at 9, but
// deriving the stat from len(indexes) > MaxNarrowFrames missed them because
// they never exceeded the narrow threshold.
func TestTruncationWideBoundary(t *testing.T) {
	_, m, app := provisionDeep(t, []int{9, 10, 14})
	widenIndexes(m, app.UID)

	fits := invokeTag(t, app, "depth09")
	if fits.Truncated {
		t.Fatal("9 wide frames flagged truncated")
	}
	if len(fits.Indexes) != tag.MaxWideFrames {
		t.Fatalf("got %d indexes, want %d", len(fits.Indexes), tag.MaxWideFrames)
	}
	for _, idx := range fits.Indexes {
		if idx <= tag.MaxNarrowIndex {
			t.Fatalf("index %d round-tripped narrow, want wide", idx)
		}
	}
	if got := counters(m)["stacks_truncated"]; got != 0 {
		t.Fatalf("StacksTruncated = %d after untruncated wide stack", got)
	}

	for i, name := range []string{"depth10", "depth14"} {
		over := invokeTag(t, app, name)
		if !over.Truncated {
			t.Fatalf("%s: wide stack not flagged truncated", name)
		}
		if len(over.Indexes) != tag.MaxWideFrames {
			t.Fatalf("%s: got %d indexes, want %d", name, len(over.Indexes), tag.MaxWideFrames)
		}
		if got, want := counters(m)["stacks_truncated"], uint64(i+1); got != want {
			t.Fatalf("%s: StacksTruncated = %d, want %d", name, got, want)
		}
	}
}

// TestTruncationMixedWidths checks that one wide index is enough to put the
// whole tag on the 9-frame wide budget: a 10-frame stack with a single
// out-of-narrow-range index truncates (and is counted), even though nine of
// its ten indexes would have fit narrow.
func TestTruncationMixedWidths(t *testing.T) {
	_, m, app := provisionDeep(t, []int{10})

	// Widen exactly one signature: the innermost frame's method, so the
	// kept (innermost-first) prefix is guaranteed to contain it.
	m.mu.Lock()
	st := m.apps[app.UID]
	for k, v := range st.sigIndex {
		if v == 9 { // step09, the deepest frame of depth10
			st.sigIndex[k] = v + 0x10000
		}
	}
	m.mu.Unlock()

	decoded := invokeTag(t, app, "depth10")
	if !decoded.Truncated {
		t.Fatal("mixed-width 10-frame stack not flagged truncated")
	}
	if len(decoded.Indexes) != tag.MaxWideFrames {
		t.Fatalf("got %d indexes, want %d", len(decoded.Indexes), tag.MaxWideFrames)
	}
	var sawWide bool
	for _, idx := range decoded.Indexes {
		if idx > tag.MaxNarrowIndex {
			sawWide = true
		}
	}
	if !sawWide {
		t.Fatal("widened index missing from kept frames")
	}
	if got := counters(m)["stacks_truncated"]; got != 1 {
		t.Fatalf("StacksTruncated = %d, want 1", got)
	}
}

// TestContextPublicationRace pins the SetContext publication: sockets
// connect (firing the manager's hook, which attaches the resolved stack)
// while other goroutines read Context concurrently. Run with -race.
func TestContextPublicationRace(t *testing.T) {
	d, _, app := provisionDeep(t, []int{5})

	const sockets = 32
	var wg sync.WaitGroup
	socks := make([]interface {
		Context() any
	}, 0, sockets)
	for i := 0; i < sockets; i++ {
		sock := d.Stack().NewJavaSocket(app.UID)
		socks = append(socks, sock)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := sock.Connect(endpoint()); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			// Spin-read racing the connect hook's publication; the race
			// detector flags any unsynchronized write it overlaps.
			for j := 0; j < 10_000; j++ {
				if sock.Context() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	for i, sock := range socks {
		ctx := sock.Context()
		if ctx == nil {
			t.Fatalf("socket %d: no context after connect", i)
		}
		if _, ok := ctx.([]dex.Signature); !ok {
			t.Fatalf("socket %d: context is %T, want []dex.Signature", i, ctx)
		}
	}
}
