package policystore_test

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/tag"
)

// This file holds the reload-under-load concurrency test (run with -race):
// traffic hammers the enforcer's scalar and batched paths while a Store
// swaps rule sets underneath, including periodic malformed candidates. The
// invariants:
//
//   - every verdict is consistent with either the old or the new rule set
//     (never a torn mix, never a decode failure),
//   - the flow-cache generation advances exactly once per applied swap,
//   - malformed candidates leave the last-good rules serving.

func raceAPK() *dex.APK {
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
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []dex.MethodDef{
						{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 5, EndLine: 15},
					},
				},
				{
					Package: "com/other/app",
					Name:    "Ping",
					Methods: []dex.MethodDef{
						{Name: "ping", Proto: "()V", File: "P.java", StartLine: 3, EndLine: 8},
					},
				},
			},
		}},
	}
}

// racePacket builds a tagged packet whose stack holds the named methods.
func racePacket(t *testing.T, apk *dex.APK, db *analyzer.Database, dst string, names ...string) *ipv4.Packet {
	t.Helper()
	entry, ok := db.LookupTruncated(apk.Truncated())
	if !ok {
		t.Fatal("apk not in db")
	}
	var indexes []uint32
	for _, name := range names {
		found := false
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
			Dst:      netip.MustParseAddr(dst),
		},
		Payload: []byte("POST /x HTTP/1.1\r\n\r\n"),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	return pkt
}

// flipSource alternates between rule documents on every fetch, injecting a
// malformed candidate every badEvery-th cycle. Fetch is serialized by the
// Store's reload mutex, so the counter needs no synchronization.
type flipSource struct {
	docs     []string
	badEvery int
	n        int
}

func (f *flipSource) Fetch(prev string) (policystore.Candidate, bool, error) {
	f.n++
	if f.badEvery > 0 && f.n%f.badEvery == 0 {
		return policystore.Candidate{Doc: "{[broken][", Version: fmt.Sprintf("bad-%d", f.n)}, false, nil
	}
	return policystore.Candidate{
		Doc:     f.docs[f.n%len(f.docs)],
		Version: fmt.Sprintf("v%d", f.n),
	}, false, nil
}

func (f *flipSource) String() string { return "flip" }

func TestReloadUnderLoadNoTornVerdicts(t *testing.T) {
	apk := raceAPK()
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	eng, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	clock := netsim.NewClock()
	enf := enforcer.New(enforcer.Config{
		Flows:   enforcer.NewFlowCache(flowtable.Config{Clock: clock}),
		Context: devctx.NewSource(clock),
	}, db, eng)

	// Rule set A denies only the tracker; rule set B additionally denies
	// the corp sync library, flipping the "flip" packet's verdict.
	docA := policy.FormatPolicy([]policy.Rule{
		{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"},
	})
	docB := policy.FormatPolicy([]policy.Rule{
		{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"},
		{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/corp/files"},
	})
	src := &flipSource{docs: []string{docA, docB}, badEvery: 7}
	store, err := policystore.New(policystore.Config{Source: src, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Load(); err != nil {
		t.Fatal(err)
	}

	tracker := racePacket(t, apk, db, "93.184.216.34", "beacon", "download") // denied by A and B
	flip := racePacket(t, apk, db, "93.184.216.35", "download")              // allowed by A, denied by B
	stable := racePacket(t, apk, db, "93.184.216.36", "ping")                // allowed by A and B

	checkRes := func(kind string, res enforcer.Result) {
		switch kind {
		case "tracker":
			if res.Verdict != policy.VerdictDrop || res.Cause != enforcer.DropPolicy {
				t.Errorf("tracker verdict torn: %+v", res)
			}
		case "stable":
			if res.Verdict != policy.VerdictAllow {
				t.Errorf("stable verdict torn: %+v", res)
			}
		case "flip":
			// Either rule set's verdict is fine; anything else (e.g. a
			// decode failure or a default-on-missing-rules verdict with the
			// wrong cause) is a torn read.
			okA := res.Verdict == policy.VerdictAllow && res.Cause == enforcer.DropNone
			okB := res.Verdict == policy.VerdictDrop && res.Cause == enforcer.DropPolicy
			if !okA && !okB {
				t.Errorf("flip verdict matches neither rule set: %+v", res)
			}
		}
	}

	const swaps = 300
	stop := make(chan struct{})
	var swapperDone sync.WaitGroup
	swapperDone.Add(1)
	go func() {
		defer swapperDone.Done()
		for i := 0; i < swaps; i++ {
			// Malformed candidates surface as errors here — expected, and
			// asserted in aggregate below.
			_, _ = store.Reload()
		}
		close(stop)
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := []*ipv4.Packet{tracker, flip, stable, flip, flip, stable}
			var out []enforcer.Result
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					// Scalar path.
					checkRes("tracker", enf.Process(tracker))
					checkRes("flip", enf.Process(flip))
					checkRes("stable", enf.Process(stable))
				} else {
					// Batched path (same-flow memo included).
					out = enf.ProcessBatch(batch, out)
					kinds := []string{"tracker", "flip", "stable", "flip", "flip", "stable"}
					for j, res := range out {
						checkRes(kinds[j], res)
					}
				}
			}
		}(g)
	}
	swapperDone.Wait()
	wg.Wait()

	reg := metrics.NewRegistry()
	store.RegisterMetrics(reg)
	enf.RegisterMetrics(reg)
	read := func(family string, labels ...metrics.Label) uint64 {
		v, _ := reg.Value(family, labels...)
		return uint64(v)
	}
	applied := read("bp_policy_reloads_total", metrics.L("outcome", "applied"))
	failed := read("bp_policy_reloads_total", metrics.L("outcome", "failed"))
	if applied == 0 || failed == 0 {
		t.Fatalf("swapper did not exercise both paths: applied %d, failed %d", applied, failed)
	}
	// Every cycle ends in exactly one outcome.
	if n := read("bp_policy_reloads_total"); n != swaps+1 { // +1 for the initial Load
		t.Fatalf("reload cycles = %d, want %d", n, swaps+1)
	}
	// The flow-cache generation advances exactly once per applied swap:
	// rejected candidates and unchanged cycles must not move it.
	if gen := eng.Generation(); gen != applied {
		t.Fatalf("engine generation = %d, applied swaps = %d (must advance exactly once per swap)", gen, applied)
	}
	if read("bp_flowtable_hits_total") == 0 {
		t.Fatal("flow cache never hit during the run")
	}
}
