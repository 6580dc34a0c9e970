package contextmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netstack"
)

// connectWith connects a fresh socket of app while frames (innermost
// first, as GetStackTrace reports them) are the app thread's whole stack,
// and returns the socket still open.
func connectWith(t testing.TB, d *android.Device, app *android.App, frames []dex.Frame) *netstack.JavaSocket {
	t.Helper()
	th := app.Thread()
	for i := len(frames) - 1; i >= 0; i-- {
		th.Push(frames[i])
	}
	defer th.PopN(len(frames))
	sock := d.Stack().NewJavaSocket(app.UID)
	if err := sock.Connect(endpoint()); err != nil {
		t.Fatal(err)
	}
	return sock
}

// stateOf returns the manager's load-time state for an app.
func stateOf(m *Manager, app *android.App) *appState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.apps[app.UID]
}

// socketTag is the tag bytes the kernel holds for an open socket.
func socketTag(t testing.TB, d *android.Device, sock *netstack.JavaSocket) []byte {
	t.Helper()
	ks, err := d.Kernel().GetSocket(sock.FD())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ks.Options {
		if o.Type == ipv4.OptSecurity {
			return o.Data
		}
	}
	t.Fatal("socket carries no tag")
	return nil
}

// randomAPK is one class of methods, every third name overloaded three
// ways over disjoint line ranges, plus a library class.
func randomAPK(stripped bool) *dex.APK {
	var methods []dex.MethodDef
	for i := 0; i < 24; i++ {
		protos := []string{"()V"}
		if i%3 == 0 {
			protos = []string{"()V", "(I)V", "(Ljava/lang/String;)V"}
		}
		for j, proto := range protos {
			start := 1000*i + 100*j + 1
			methods = append(methods, dex.MethodDef{
				Name: fmt.Sprintf("m%02d", i), Proto: proto, File: "Worker.java", StartLine: start, EndLine: start + 49,
			})
		}
	}
	return &dex.APK{
		PackageName: "com.corp.random",
		VersionCode: 1,
		Dexes: []*dex.File{{
			DebugStripped: stripped,
			Classes: []dex.ClassDef{
				{Package: "com/corp/random", Name: "Worker", Methods: methods},
				{Package: "com/flurry/sdk", Name: "Agent", Methods: []dex.MethodDef{
					{Name: "beacon", Proto: "()V", File: "Agent.java", StartLine: 5, EndLine: 25},
				}},
			},
		}},
	}
}

// randomStack draws a trace of 0-20 app frames — exact overloads, lines
// outside every range (merged), unknown methods of a known class — with
// framework frames mixed in.
func randomStack(rng *rand.Rand) []dex.Frame {
	depth := rng.Intn(21)
	var frames []dex.Frame
	for len(frames) < depth {
		switch r := rng.Intn(10); {
		case r < 2:
			frames = append(frames, dex.Frame{Class: "android/os/Handler", Method: "dispatchMessage", File: "Handler.java", Line: rng.Intn(200)})
		case r < 3:
			frames = append(frames, dex.Frame{Class: "com/corp/random/Worker", Method: "absent", File: "Worker.java", Line: 7})
		case r < 4:
			frames = append(frames, dex.Frame{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10})
		default:
			i, j := rng.Intn(24), 0
			if i%3 == 0 {
				j = rng.Intn(3)
			}
			line := 1000*i + 100*j + 1 + rng.Intn(50)
			if rng.Intn(6) == 0 {
				line = 1000*i + 999 // inside no range: overloads merge
			}
			frames = append(frames, dex.Frame{Class: "com/corp/random/Worker", Method: fmt.Sprintf("m%02d", i), File: "Worker.java", Line: line})
		}
	}
	return frames
}

// TestTagCacheMatchesResolve is the call-site table's differential test:
// over random stacks drawn with repeats from a pool larger than the table,
// every connect's tag bytes, socket context and counter deltas must be what a
// fresh resolve of its trace yields — on narrow, wide, mixed-width and
// debug-stripped apps, through hits, misses and evictions alike.
func TestTagCacheMatchesResolve(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stripped bool
		widen    func(idx uint32) bool
	}{
		{name: "narrow"},
		{name: "stripped", stripped: true},
		{name: "wide", widen: func(uint32) bool { return true }},
		{name: "mixed", widen: func(idx uint32) bool { return idx%2 == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := android.NewDevice(android.Config{Addr: netip.MustParseAddr("10.0.0.7"), Kernel: patched(), XposedInstalled: true})
			m := New(d)
			if err := d.LoadModule(m); err != nil {
				t.Fatal(err)
			}
			app, err := d.InstallApp(randomAPK(tc.stripped), nil, android.ProfileWork)
			if err != nil {
				t.Fatal(err)
			}
			st := stateOf(m, app)
			if tc.widen != nil {
				for k, v := range st.sigIndex {
					if tc.widen(v) {
						st.sigIndex[k] = v + 0x10000
					}
				}
				for k, v := range st.overloadIndex {
					if tc.widen(v) {
						st.overloadIndex[k] = v + 0x10000
					}
				}
			}

			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			pool := make([][]dex.Frame, 3*tagCells)
			for i := range pool {
				pool[i] = randomStack(rng)
			}
			var truncated int
			for i := 0; i < 2000; i++ {
				// Skewed draws: a hot head that hits, a tail that evicts.
				frames := pool[rng.Intn(1+rng.Intn(len(pool)))]
				before := counters(m)
				sock := connectWith(t, d, app, frames)
				after := counters(m)
				want, err := st.resolve(frames)
				if err != nil {
					t.Fatal(err)
				}
				if got := socketTag(t, d, sock); !bytes.Equal(got, want.opts[0].Data) {
					t.Fatalf("connect %d: tag %x, resolve builds %x", i, got, want.opts[0].Data)
				}
				if !reflect.DeepEqual(sock.Context(), want.ctx) {
					t.Fatalf("connect %d: context %v, resolve builds %v", i, sock.Context(), want.ctx)
				}
				wantDelta := map[string]uint64{"sockets_tagged": 1, "tag_failures": 0,
					"frames_resolved": want.kept, "frames_dropped": want.dropped, "stacks_truncated": 0}
				if want.truncated {
					wantDelta["stacks_truncated"] = 1
					truncated++
				}
				for k, v := range wantDelta {
					if got := after[k] - before[k]; got != v {
						t.Fatalf("connect %d: %s moved by %d, resolve implies %d", i, k, got, v)
					}
				}
				if lookups := after["tag_table_hits"] + after["tag_table_misses"] - before["tag_table_hits"] - before["tag_table_misses"]; lookups != 1 {
					t.Fatalf("connect %d: %d table lookups", i, lookups)
				}
				if err := sock.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if c := counters(m); c["tag_table_hits"] == 0 || c["tag_table_misses"] <= uint64(tagCells) || truncated == 0 {
				t.Fatalf("the draw did not exercise hits, evictions and truncation: %v, %d truncated", c, truncated)
			}
		})
	}
}

// TestTagCacheDroppedOnReload: HandleLoadPackage builds the app's state
// afresh, so a call site cached under the old apk is tagged with the new
// apk's hash and indexes on its next connect.
func TestTagCacheDroppedOnReload(t *testing.T) {
	_, m, app := provision(t, patched())
	old := invokeTag(t, app, "upload")

	apk := testAPK()
	apk.VersionCode = 2
	apk.Dexes[0].Classes[0].Methods = append([]dex.MethodDef{
		{Name: "prefetch", Proto: "()V", File: "SyncEngine.java", StartLine: 1, EndLine: 5},
	}, apk.Dexes[0].Classes[0].Methods...)
	apk.Invalidate()
	app.APK = apk
	if err := m.HandleLoadPackage(app); err != nil {
		t.Fatal(err)
	}
	fresh := invokeTag(t, app, "upload")
	if fresh.AppHash != apk.Truncated() || fresh.AppHash == old.AppHash {
		t.Fatalf("after reload the tag names app %s, want %s", fresh.AppHash, apk.Truncated())
	}
	if reflect.DeepEqual(fresh.Indexes, old.Indexes) {
		t.Fatalf("after reload the tag kept the old indexes %v", old.Indexes)
	}
	if c := counters(m); c["tag_table_hits"] != 0 || c["tag_table_misses"] != 2 {
		t.Fatalf("counters %v: the reloaded app answered from the old table", c)
	}
}

// collidingStacks returns flowtable.InternWindow+1 traces whose windows in
// st's table start at one cell: the first is a download call site, the
// others beacon call sites that differ from it, and from each other, in the
// line of a framework frame, searched until the homes agree. Cycling
// through them, each finds itself replaced.
func collidingStacks(t testing.TB, st *appState) [][]dex.Frame {
	t.Helper()
	handler := func(line int) dex.Frame {
		return dex.Frame{Class: "android/os/Handler", Method: "dispatchMessage", File: "Handler.java", Line: line}
	}
	stacks := [][]dex.Frame{{{Class: "com/corp/files/SyncEngine", Method: "download", File: "SyncEngine.java", Line: 15}, handler(0)}}
	home := st.tags.Home(traceHash(stacks[0]))
	for line := 1; line < 1<<20; line++ {
		b := []dex.Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10}, handler(line)}
		if st.tags.Home(traceHash(b)) != home {
			continue
		}
		if stacks = append(stacks, b); len(stacks) > flowtable.InternWindow {
			return stacks
		}
	}
	t.Fatal("no colliding traces found")
	return nil
}

// TestTagCacheCollisionNeverCrossesStacks forces one more call site than a
// window holds onto one window: taking turns, each finds itself replaced
// on every connect, and each is always given its own tag — the verbatim
// trace compare, not the hash, decides a hit.
func TestTagCacheCollisionNeverCrossesStacks(t *testing.T) {
	d, m, app := provision(t, patched())
	st := stateOf(m, app)
	stacks := collidingStacks(t, st)
	want := make([]stackTag, len(stacks))
	for i := range stacks {
		want[i], _ = st.resolve(stacks[i])
	}
	if bytes.Equal(want[0].opts[0].Data, want[1].opts[0].Data) {
		t.Fatal("fixture: two stacks resolve to one tag")
	}
	n := 2 * len(stacks)
	for i := 0; i < n; i++ {
		sock := connectWith(t, d, app, stacks[i%len(stacks)])
		if got := socketTag(t, d, sock); !bytes.Equal(got, want[i%len(stacks)].opts[0].Data) {
			t.Fatalf("connect %d got another stack's tag %x", i, got)
		}
		_ = sock.Close()
	}
	if c := counters(m); c["tag_table_hits"] != 0 || c["tag_table_misses"] != uint64(n) {
		t.Fatalf("counters %v: colliding stacks taking turns must miss every time", c)
	}
	// Repeating the last of them now hits.
	_ = connectWith(t, d, app, stacks[len(stacks)-1]).Close()
	if c := counters(m); c["tag_table_hits"] != 1 {
		t.Fatalf("counters %v: a resident stack missed", c)
	}
}

// TestTagCacheConcurrent has 64 goroutines look up a mix of stacks, more
// than the table holds, on one app's state at once: every answer must be
// its own stack's tag. Run with -race.
func TestTagCacheConcurrent(t *testing.T) {
	_, m, app := provision(t, patched())
	st := stateOf(m, app)
	rng := rand.New(rand.NewSource(64))
	stacks := make([][]dex.Frame, 2*tagCells)
	want := make([][]byte, len(stacks))
	for i := range stacks {
		stacks[i] = []dex.Frame{
			{Class: "com/corp/files/SyncEngine", Method: []string{"download", "upload"}[i%2], File: "SyncEngine.java", Line: []int{15, 60, 120}[i%3]},
			{Class: "android/os/Looper", Method: "loop", File: "Looper.java", Line: i},
			{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10},
		}[:1+i%3]
		fresh, err := st.resolve(stacks[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fresh.opts[0].Data
	}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < 500; n++ {
				i := r.Intn(len(stacks))
				got, _, err := st.tag(stacks[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.opts[0].Data, want[i]) {
					t.Errorf("stack %d answered with %x, want %x", i, got.opts[0].Data, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSocketConnectTagged is one tagged connect (socket, connect and
// the Context Manager's hook, close) from a call site already in the table
// (hit) and from one more call site than a window holds, taking turns on
// one window (cold: every connect resolves and encodes).
func BenchmarkSocketConnectTagged(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "hit"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			d, m, app := provision(b, patched())
			stacks := collidingStacks(b, stateOf(m, app))
			if !cold {
				stacks = stacks[:1]
			}
			_ = connectWith(b, d, app, stacks[0]).Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := connectWith(b, d, app, stacks[i%len(stacks)]).Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
