// Package contextmgr implements BorderPatrol's Context Manager (paper
// §IV-A2, §V-B): the Xposed-style module that runs on the provisioned
// device. When an app loads, it parses the app's dex files to build the
// deterministic signature→index mapping and the line-number table. When any
// socket connects, its post-hook gathers the Java stack trace, resolves
// each frame to a method signature, encodes the signature indexes plus the
// truncated apk hash into the compact tag, and injects the tag into the
// socket's IP_OPTIONS through the JNI setsockopt shim.
//
// The tag is a pure function of the loaded app and the stack trace, so it
// is built once per call site and kept in the app's call-site table, a
// flowtable.Intern keyed by a hash of the whole trace. A record answers
// only when its trace equals the socket's verbatim, so a miss — a new call
// site, or one replaced in a full window — costs what every connect once
// did and never yields another stack's tag. HandleLoadPackage starts an app
// over with an empty table. Per socket remain the setsockopt, the context
// published on the socket, and the counters a fresh resolve would update.
package contextmgr

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netstack"
	"borderpatrol/internal/tag"
)

// JNIShim is the native shared library exposing setsockopt to managed code
// (paper §V-B "Shared library"): standard Java APIs refuse to set
// IP_OPTIONS, so the Context Manager calls through JNI into this wrapper.
type JNIShim struct {
	kern *kernel.Kernel
	// caps are the capabilities of the calling (user-space, unprivileged)
	// process: none. Only the kernel patch makes the call succeed.
	caps kernel.Capability
}

// NewJNIShim builds the shim against a device kernel.
func NewJNIShim(k *kernel.Kernel) *JNIShim {
	return &JNIShim{kern: k}
}

// SetIPOptions forwards to the setsockopt system call.
func (j *JNIShim) SetIPOptions(fd int, opts []ipv4.Option) error {
	return j.kern.SetIPOptions(fd, j.caps, opts)
}

// appState is the per-app state the Context Manager builds at load time.
type appState struct {
	hash     dex.TruncatedHash
	lineTab  *dex.LineTable
	sigIndex map[string]uint32
	// overloadIndex maps a merged signature's package/class/name key to
	// the lowest index among its overloads: one map probe per frame.
	overloadIndex map[string]uint32
	stripped      bool
	// tags is the call-site table (see the package comment).
	tags *flowtable.Intern[stackTag]
}

// tagCells is the size of each app's call-site table.
const tagCells = 64

// stackTag is what one call site's connects share: the trace it was built
// from, the IP_OPTIONS that carry its tag, the resolved signatures the
// socket is given as context, and the frame counts for the counters. Built
// only by resolve and never written once published.
type stackTag struct {
	frames        []dex.Frame
	opts          []ipv4.Option
	ctx           any // the resolved []dex.Signature, boxed once
	kept, dropped uint64
	truncated     bool
}

// traceSeed keys traceHash per process, so cells are unpredictable outside.
var traceSeed = maphash.MakeSeed()

// traceHash hashes the class, method, file and line of every frame.
func traceHash(frames []dex.Frame) uint64 {
	var h maphash.Hash
	h.SetSeed(traceSeed)
	var line [8]byte
	for i := range frames {
		f := &frames[i]
		h.WriteString(f.Class)
		h.WriteByte(0)
		h.WriteString(f.Method)
		h.WriteByte(0)
		h.WriteString(f.File)
		h.Write(binary.LittleEndian.AppendUint64(line[:0], uint64(f.Line)))
	}
	return h.Sum64()
}

// tag returns the call site's stackTag: the table's if it holds exactly
// this trace (hit), else a fresh resolve, published in the table.
func (st *appState) tag(frames []dex.Frame) (t *stackTag, hit bool, err error) {
	h := traceHash(frames)
	if t, _ = st.tags.Find(h, 0, func(t *stackTag) bool { return slices.Equal(t.frames, frames) }); t != nil {
		return t, true, nil
	}
	fresh, err := st.resolve(frames)
	if err != nil {
		return nil, false, err
	}
	t, _, _ = st.tags.Store(h, 0, fresh)
	return t, false, nil
}

// resolve runs paper Fig. 2's steps 1-3 for one trace — map frames to
// signature indexes (framework frames drop out), encode them with the apk
// hash — and is the only builder of a stackTag; frames is kept, not copied.
func (st *appState) resolve(frames []dex.Frame) (stackTag, error) {
	t := stackTag{frames: frames}
	indexes := make([]uint32, 0, len(frames))
	resolved := make([]dex.Signature, 0, len(frames))
	for _, f := range frames {
		sig, ok := st.lineTab.Resolve(f)
		if !ok {
			t.dropped++
			continue
		}
		idx, found := st.sigIndex[sig.String()]
		if !found && sig.Merged() {
			// Merged signatures are not in the index; use the first
			// overload's slot so the enforcer can still identify the
			// method name deterministically.
			idx, found = st.overloadIndex[overloadKey(sig.Package, sig.Class, sig.Name)]
		}
		if !found {
			t.dropped++
			continue
		}
		indexes = append(indexes, idx)
		resolved = append(resolved, sig)
		t.kept++
	}
	payload, err := (&tag.Tag{AppHash: st.hash, Indexes: indexes, DebugStripped: st.stripped}).Encode()
	if err != nil {
		return stackTag{}, err
	}
	t.opts = []ipv4.Option{{Type: ipv4.OptSecurity, Data: payload}}
	// The context stays resident with the call site: keep only its length.
	t.ctx = slices.Clone(resolved)
	// The encoder's flag is the truth about truncation: it applied the
	// budget, 14 narrow frames but only 9 wide ones.
	t.truncated = payload[0]&tag.FlagTruncated != 0
	return t, nil
}

// overloadKey is the merged-signature lookup key: overloads share
// package, class and method name and differ only in the prototype.
func overloadKey(pkg, class, name string) string {
	return pkg + ";" + class + ";" + name
}

// counts is the Manager's activity (see RegisterMetrics).
type counts struct {
	tagged, failures, resolved, dropped, truncated, hits, misses uint64
}

// Manager is the Context Manager module.
type Manager struct {
	shim *JNIShim

	mu   sync.Mutex
	apps map[int]*appState // by uid
	n    counts
}

var _ android.Module = (*Manager)(nil)

// New builds a Context Manager for a device and registers its socket
// post-hook on the device's network stack. The module still needs to be
// loaded with device.LoadModule so it can observe app loads.
func New(device *android.Device) *Manager {
	m := &Manager{
		shim: NewJNIShim(device.Kernel()),
		apps: make(map[int]*appState),
	}
	device.Stack().RegisterConnectHook(func(sock *netstack.JavaSocket) {
		m.onSocketConnected(device, sock)
	})
	return m
}

// Name implements android.Module.
func (m *Manager) Name() string { return "borderpatrol-context-manager" }

// HandleLoadPackage implements android.Module: parse the apk, build the
// signature index and line table (paper: "When an app is loaded, the
// Context Manager parses the dex file using dexlib2").
func (m *Manager) HandleLoadPackage(app *android.App) error {
	entry, err := analyzer.AnalyzeAPK(app.APK)
	if err != nil {
		return fmt.Errorf("contextmgr: analyze %s: %w", app.APK.PackageName, err)
	}
	st := &appState{
		hash:          app.APK.Truncated(),
		lineTab:       dex.NewLineTable(app.APK),
		sigIndex:      make(map[string]uint32, len(entry.Signatures)),
		overloadIndex: make(map[string]uint32, len(entry.Signatures)),
		stripped:      entry.DebugStripped,
		tags:          flowtable.NewIntern[stackTag](tagCells),
	}
	for i, raw := range entry.Signatures {
		idx := uint32(i)
		st.sigIndex[raw] = idx
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			continue
		}
		key := overloadKey(sig.Package, sig.Class, sig.Name)
		if prev, ok := st.overloadIndex[key]; !ok || idx < prev {
			st.overloadIndex[key] = idx
		}
	}
	m.mu.Lock()
	m.apps[app.UID] = st
	m.mu.Unlock()
	return nil
}

// onSocketConnected is the Xposed post-hook body (paper Fig. 2): gather the
// stack trace, resolve frames, encode, inject.
func (m *Manager) onSocketConnected(device *android.Device, sock *netstack.JavaSocket) {
	m.mu.Lock()
	st, tracked := m.apps[sock.OwnerUID]
	m.mu.Unlock()
	if !tracked {
		// Personal-profile or unknown app: the Context Manager does not
		// interact with it (work/personal separation, §VII).
		return
	}
	app, ok := device.AppByUID(sock.OwnerUID)
	if !ok {
		// State desync: the manager tracks a uid the device does not know.
		m.recordFailure()
		return
	}

	// Steps 1-3 (getStackTrace, per-frame resolution, encoding), once per
	// call site.
	t, hit, err := st.tag(app.Thread().GetStackTrace())
	if err != nil {
		m.recordFailure()
		return
	}

	// Step 4: inject via the JNI shim (setsockopt IP_OPTIONS).
	err = m.shim.SetIPOptions(sock.FD(), t.opts)

	// Expose the captured context for tests/extractor. Published through
	// the socket's own synchronized accessor — the manager's mutex below
	// guards only the manager's counters, and readers of the socket never
	// take it.
	if err == nil {
		sock.SetContext(t.ctx)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.n.hits++
	} else {
		m.n.misses++
	}
	m.n.resolved += t.kept
	m.n.dropped += t.dropped
	if t.truncated {
		m.n.truncated++
	}
	if err != nil {
		m.n.failures++
		return
	}
	m.n.tagged++
}

// recordFailure counts a socket the manager could not tag.
func (m *Manager) recordFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n.failures++
}

// RegisterMetrics attaches the manager's counters to a registry as the
// bp_contextmgr_* families; each scrape reads its counter under the
// manager's lock.
func (m *Manager) RegisterMetrics(r *metrics.Registry) {
	for _, c := range []struct {
		name, help string
		v          *uint64
	}{
		{"bp_contextmgr_sockets_tagged_total", "Sockets the Context Manager tagged.", &m.n.tagged},
		{"bp_contextmgr_tag_failures_total", "Sockets the Context Manager failed to tag (setsockopt errors).", &m.n.failures},
		{"bp_contextmgr_frames_resolved_total", "Stack frames mapped to app signatures.", &m.n.resolved},
		{"bp_contextmgr_frames_dropped_total", "Framework frames not present in the app's dex files.", &m.n.dropped},
		{"bp_contextmgr_stacks_truncated_total", "Stacks cut to fit the IP_OPTIONS budget.", &m.n.truncated},
		{"bp_contextmgr_tag_table_hits_total", "Connects whose tag came from the call-site table.", &m.n.hits},
		{"bp_contextmgr_tag_table_misses_total", "Connects that resolved and encoded their tag afresh.", &m.n.misses},
	} {
		r.CounterFunc(c.name, c.help, func() uint64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return *c.v
		})
	}
}
