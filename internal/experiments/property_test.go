package experiments

// End-to-end property: for randomly generated corpus apps, the context the
// gateway decodes from any packet is exactly the app-code portion of the
// call path that produced it — the core correctness invariant of the whole
// system (Context Manager encoding and Policy Enforcer decoding must be
// inverse functions through the shared database).

import (
	"testing"
	"testing/quick"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/tag"
)

func TestEndToEndContextFidelityProperty(t *testing.T) {
	cfg := apkgen.DefaultConfig()
	cfg.Apps = 30
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(corpus, TestbedConfig{EnforcementOn: false})
	if err != nil {
		t.Fatal(err)
	}
	lineTables := make([]*dex.LineTable, len(corpus))
	for i, ga := range corpus {
		lineTables[i] = dex.NewLineTable(ga.APK)
	}

	check := func(appIdx uint8, fnIdx uint8) bool {
		i := int(appIdx) % len(corpus)
		ga := corpus[i]
		fns := ga.Functionalities
		fn := fns[int(fnIdx)%len(fns)]

		res, err := tb.Apps[i].Invoke(fn.Name)
		if err != nil || len(res.Packets) == 0 {
			return false
		}
		opt, ok := res.Packets[0].Header.FindOption(ipv4.OptSecurity)
		if !ok {
			return false
		}
		decoded, err := tag.Decode(opt.Data)
		if err != nil {
			return false
		}
		// Property 1: the tag names the right app.
		if decoded.AppHash != ga.APK.Truncated() {
			return false
		}
		// Property 2: decoding through the gateway database yields exactly
		// the resolvable frames of the call path, innermost first.
		gotStack, err := tb.DB.DecodeStack(decoded.AppHash, decoded.Indexes)
		if err != nil {
			return false
		}
		var want []dex.Signature
		for _, f := range reverseFrames(fn.CallPath) {
			if sig, ok := lineTables[i].Resolve(f); ok {
				want = append(want, sig)
			}
		}
		if len(gotStack) != len(want) {
			return false
		}
		for j := range want {
			if gotStack[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// reverseFrames converts a call path (outermost first) into stack-trace
// order (innermost first), matching getStackTrace semantics.
func reverseFrames(path []dex.Frame) []dex.Frame {
	out := make([]dex.Frame, len(path))
	for i, f := range path {
		out[len(path)-1-i] = f
	}
	return out
}

func TestSanitizedTrafficCarriesNoContextProperty(t *testing.T) {
	// Privacy property (§IV-A4): whatever the app does, packets observed
	// after the gateway never carry IP options.
	cfg := apkgen.DefaultConfig()
	cfg.Apps = 10
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(corpus, TestbedConfig{EnforcementOn: true})
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	for i, ga := range corpus {
		for _, fn := range ga.Functionalities {
			res, err := tb.Apps[i].Invoke(fn.Name)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := tb.Gateway.ProcessBatch(res.Packets)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o.Out == nil {
					continue
				}
				observed++
				if o.Out.Header.HasOptions() {
					t.Fatalf("post-gateway packet to %s still carries options", o.Out.Header.Dst)
				}
			}
		}
	}
	if observed == 0 {
		t.Fatal("no post-gateway traffic observed")
	}
	cleansed, _ := tb.Metrics.Value("bp_sanitizer_cleansed_total")
	if cleansed != float64(observed) {
		t.Fatalf("%d packets passed the gateway, %v cleansed: every one carried a tag", observed, cleansed)
	}
}
