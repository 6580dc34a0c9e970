package policy

import (
	"errors"
	"testing"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/metrics"
)

func mustSig(t *testing.T, raw string) dex.Signature {
	t.Helper()
	sig, err := dex.ParseSignature(raw)
	if err != nil {
		t.Fatalf("ParseSignature(%q): %v", raw, err)
	}
	return sig
}

func appHashFrom(b byte) dex.TruncatedHash {
	var h dex.TruncatedHash
	for i := range h {
		h[i] = b
	}
	return h
}

func TestMatchLevelLibrary(t *testing.T) {
	r := Rule{Action: Deny, Level: LevelLibrary, Target: "com/flurry"}
	sig := mustSig(t, "Lcom/flurry/sdk/Analytics;->report()V")
	if got := r.MatchLevel(appHashFrom(1), sig); got != LevelLibrary {
		t.Fatalf("MatchLevel = %v, want library", got)
	}
	other := mustSig(t, "Lcom/flurryx/Other;->run()V")
	if got := r.MatchLevel(appHashFrom(1), other); got != 0 {
		t.Fatalf("near-miss package matched: %v", got)
	}
}

func TestMatchLevelClass(t *testing.T) {
	r := Rule{Action: Deny, Level: LevelClass, Target: "com/google/gms"}
	sig := mustSig(t, "Lcom/google/gms/Analytics;->hit()V")
	if got := r.MatchLevel(appHashFrom(1), sig); got != LevelClass {
		t.Fatalf("MatchLevel = %v, want class", got)
	}
	// Exact class target.
	r2 := Rule{Action: Deny, Level: LevelClass, Target: "com/google/gms/Analytics"}
	if got := r2.MatchLevel(appHashFrom(1), sig); got != LevelClass {
		t.Fatalf("exact class target: %v", got)
	}
	miss := mustSig(t, "Lcom/google/gmsx/Analytics;->hit()V")
	if got := r.MatchLevel(appHashFrom(1), miss); got != 0 {
		t.Fatalf("near-miss class matched: %v", got)
	}
}

func TestMatchLevelMethod(t *testing.T) {
	target := "Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"
	r := Rule{Action: Deny, Level: LevelMethod, Target: target}
	sig := mustSig(t, target)
	if got := r.MatchLevel(appHashFrom(1), sig); got != LevelMethod {
		t.Fatalf("MatchLevel = %v, want method", got)
	}
	// Different overload does not match.
	other := mustSig(t, "Lcom/dropbox/android/taskqueue/UploadTask;->c(I)V")
	if got := r.MatchLevel(appHashFrom(1), other); got != 0 {
		t.Fatalf("different overload matched: %v", got)
	}
	// A merged (debug-stripped) frame conservatively matches any overload
	// target of the same method name.
	merged := mustSig(t, "Lcom/dropbox/android/taskqueue/UploadTask;->c*")
	if got := r.MatchLevel(appHashFrom(1), merged); got != LevelMethod {
		t.Fatalf("merged frame did not match method target: %v", got)
	}
}

func TestMatchLevelHash(t *testing.T) {
	h := appHashFrom(0xab)
	r := Rule{Action: Allow, Level: LevelHash, Target: h.String()}
	if got := r.MatchLevel(h, dex.Signature{}); got != LevelHash {
		t.Fatalf("hash match failed: %v", got)
	}
	if got := r.MatchLevel(appHashFrom(0xcd), dex.Signature{}); got != 0 {
		t.Fatalf("wrong hash matched: %v", got)
	}
	// Full-length (32 hex) hash target matches on its truncated prefix.
	full := h.String() + "00112233aabbccdd"
	r2 := Rule{Action: Allow, Level: LevelHash, Target: full}
	if got := r2.MatchLevel(h, dex.Signature{}); got != LevelHash {
		t.Fatalf("full hash target did not match: %v", got)
	}
}

func TestDenySemanticsExistential(t *testing.T) {
	// Deny drops when ANY frame matches.
	r := Rule{Action: Deny, Level: LevelLibrary, Target: "com/flurry"}
	stack := []dex.Signature{
		mustSig(t, "Lcom/example/Main;->onCreate()V"),
		mustSig(t, "Lcom/flurry/sdk/Agent;->beacon()V"),
	}
	if !r.Matches(appHashFrom(1), stack) {
		t.Fatal("deny rule must match when one frame is in the library")
	}
	clean := []dex.Signature{mustSig(t, "Lcom/example/Main;->onCreate()V")}
	if r.Matches(appHashFrom(1), clean) {
		t.Fatal("deny rule matched a clean stack")
	}
}

func TestAllowSemanticsUniversal(t *testing.T) {
	// Allow admits only when ALL frames match.
	r := Rule{Action: Allow, Level: LevelLibrary, Target: "com/corp"}
	allIn := []dex.Signature{
		mustSig(t, "Lcom/corp/app/Main;->sync()V"),
		mustSig(t, "Lcom/corp/net/Http;->get()V"),
	}
	if !r.Matches(appHashFrom(1), allIn) {
		t.Fatal("allow rule must match when every frame is in the library")
	}
	mixed := append(allIn, mustSig(t, "Lcom/flurry/sdk/Agent;->beacon()V"))
	if r.Matches(appHashFrom(1), mixed) {
		t.Fatal("allow rule matched a stack with a foreign frame")
	}
	if r.Matches(appHashFrom(1), nil) {
		t.Fatal("allow rule matched an empty stack")
	}
}

func TestLevelOrdering(t *testing.T) {
	if !(LevelHash < LevelLibrary && LevelLibrary < LevelClass && LevelClass < LevelMethod) {
		t.Fatal("level ordering ℓh < ℓk < ℓc < ℓm violated")
	}
}

func TestRuleValidate(t *testing.T) {
	good := []Rule{
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
		{Action: Deny, Level: LevelMethod, Target: "Lcom/a/B;->m()V"},
		{Action: Allow, Level: LevelHash, Target: "da6880ab1f991974"},
		{Action: Allow, Level: LevelHash, Target: "da6880ab1f9919747d39e2bd895b95a5"},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("valid rule %s rejected: %v", r, err)
		}
	}
	bad := []Rule{
		{},
		{Action: Deny, Level: LevelLibrary, Target: ""},
		{Action: Deny, Level: Level(9), Target: "x"},
		{Action: Action(9), Level: LevelLibrary, Target: "x"},
		{Action: Deny, Level: LevelMethod, Target: "not-a-signature"},
		{Action: Allow, Level: LevelHash, Target: "nothex!"},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid rule %+v accepted", r)
		}
	}
}

func TestEngineOrderingAndDefault(t *testing.T) {
	corpHash := appHashFrom(0x11)
	rules := []Rule{
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
		{Action: Allow, Level: LevelHash, Target: corpHash.String()},
	}
	eng, err := NewEngine(rules, VerdictDrop)
	if err != nil {
		t.Fatal(err)
	}

	// Flurry frame in the whitelisted app: deny rule comes first and wins.
	stack := []dex.Signature{mustSig(t, "Lcom/flurry/sdk/Agent;->beacon()V")}
	d := eng.Evaluate(corpHash, stack)
	if d.Verdict != VerdictDrop || d.Rule == nil || d.Rule.Action != Deny {
		t.Fatalf("expected deny-rule drop, got %+v", d)
	}

	// Clean stack in the whitelisted app: hash allow admits.
	clean := []dex.Signature{mustSig(t, "Lcom/corp/Main;->sync()V")}
	d = eng.Evaluate(corpHash, clean)
	if d.Verdict != VerdictAllow || d.Rule == nil || d.Rule.Level != LevelHash {
		t.Fatalf("whitelisted app not admitted by its hash rule: %+v", d)
	}

	// Unknown app: default (drop) applies.
	d = eng.Evaluate(appHashFrom(0x99), clean)
	if d.Verdict != VerdictDrop || d.Rule != nil {
		t.Fatalf("unknown app not dropped by default: %+v", d)
	}

	if evals, defaults := count(eng, "bp_policy_evaluations_total"), count(eng, "bp_policy_default_hits_total"); evals != 3 || defaults != 1 {
		t.Fatalf("evaluations/default hits = %d/%d, want 3/1", evals, defaults)
	}
}

// count reads one of the engine's series.
func count(e *Engine, family string) uint64 {
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)
	v, _ := r.Value(family)
	return uint64(v)
}

func TestEngineSetRules(t *testing.T) {
	eng, err := NewEngine(nil, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	stack := []dex.Signature{mustSig(t, "Lcom/flurry/sdk/Agent;->beacon()V")}
	if d := eng.Evaluate(appHashFrom(1), stack); d.Verdict != VerdictAllow {
		t.Fatalf("empty engine must use default: %+v", d)
	}
	if err := eng.SetRules([]Rule{{Action: Deny, Level: LevelLibrary, Target: "com/flurry"}}); err != nil {
		t.Fatal(err)
	}
	if d := eng.Evaluate(appHashFrom(1), stack); d.Verdict != VerdictDrop {
		t.Fatalf("reconfigured rule not applied: %+v", d)
	}
	if err := eng.SetRules([]Rule{{}}); err == nil {
		t.Fatal("invalid rule accepted by SetRules")
	}
	if got := len(eng.compiled.Load().rules); got != 1 {
		t.Fatalf("failed SetRules must not clobber rules, have %d", got)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine([]Rule{{}}, VerdictAllow); err == nil {
		t.Fatal("invalid rule accepted")
	}
	if _, err := NewEngine(nil, Verdict(0)); err == nil {
		t.Fatal("invalid default accepted")
	}
}

func TestEngineConcurrency(t *testing.T) {
	eng, err := NewEngine([]Rule{
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
	}, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	stack := []dex.Signature{mustSig(t, "Lcom/flurry/sdk/Agent;->beacon()V")}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = eng.SetRules([]Rule{{Action: Deny, Level: LevelLibrary, Target: "com/flurry"}})
		}
	}()
	for i := 0; i < 500; i++ {
		_ = eng.Evaluate(appHashFrom(1), stack)
	}
	<-done
}

func TestVerdictAndActionStrings(t *testing.T) {
	if VerdictAllow.String() != "allow" || VerdictDrop.String() != "drop" {
		t.Error("verdict strings")
	}
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Error("action strings")
	}
	if LevelHash.String() != "hash" || LevelMethod.String() != "method" {
		t.Error("level strings")
	}
}

func TestDenyMonotonicInLevel(t *testing.T) {
	// A deny match at a fine level implies the coarser target forms also
	// match when derived from the same signature: library ⊂ class ⊂ method.
	sig := mustSig(t, "Lcom/flurry/sdk/Analytics;->report(I)V")
	byLib := Rule{Action: Deny, Level: LevelLibrary, Target: "com/flurry/sdk"}
	byClass := Rule{Action: Deny, Level: LevelClass, Target: "com/flurry/sdk/Analytics"}
	byMethod := Rule{Action: Deny, Level: LevelMethod, Target: sig.String()}
	stack := []dex.Signature{sig}
	h := appHashFrom(1)
	if !byLib.Matches(h, stack) || !byClass.Matches(h, stack) || !byMethod.Matches(h, stack) {
		t.Fatal("matching must hold at every derivable level")
	}
}

func TestErrBadRuleWrapped(t *testing.T) {
	_, err := ParseRule("{[deny][bogus][\"x\"]}")
	if !errors.Is(err, ErrBadRule) {
		t.Fatalf("err = %v, want ErrBadRule", err)
	}
}
