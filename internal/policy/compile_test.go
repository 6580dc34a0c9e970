package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"borderpatrol/internal/dex"
)

// corpusPools hold the building blocks for randomized rules and stacks.
// The pools deliberately overlap at package-prefix boundaries
// ("com/flurry" vs "com/flurry/sdk" vs "com/flurryx") so prefix-index
// edge cases are exercised.
var (
	poolPackages = []string{
		"com/flurry", "com/flurry/sdk", "com/flurryx", "com/corp",
		"com/corp/net", "com/corp/net/http", "org/apache/http",
		"com/google/gms", "com/google/gms/ads", "a", "",
	}
	poolClasses = []string{"Agent", "Analytics", "Main", "Http", "A"}
	poolMethods = []string{"beacon", "report", "sync", "get", "m"}
	poolProtos  = []string{"()V", "(I)V", "(Ljava/lang/String;)Z", "*"}
)

func randHash(rng *rand.Rand) dex.TruncatedHash {
	var h dex.TruncatedHash
	// A tiny hash space forces frequent matches.
	h[0] = byte(rng.Intn(4))
	return h
}

func randSignature(rng *rand.Rand) dex.Signature {
	return dex.Signature{
		Package: poolPackages[rng.Intn(len(poolPackages))],
		Class:   poolClasses[rng.Intn(len(poolClasses))],
		Name:    poolMethods[rng.Intn(len(poolMethods))],
		Proto:   poolProtos[rng.Intn(len(poolProtos))],
	}
}

func randRule(rng *rand.Rand) Rule {
	action := Allow
	if rng.Intn(100) < 70 { // blacklist-heavy, like real policies
		action = Deny
	}
	level := Level(rng.Intn(4) + 1)
	var target string
	switch level {
	case LevelHash:
		h := randHash(rng)
		target = h.String()
		switch rng.Intn(3) {
		case 1: // full 32-hex target
			target += "00112233aabbccdd"
		case 2: // uppercase hex must keep matching (EqualFold semantics)
			target = "000" + string("0123456789ABCDEF"[rng.Intn(16)]) + target[4:]
		}
	case LevelLibrary:
		target = poolPackages[rng.Intn(len(poolPackages)-1)] // skip ""
	case LevelClass:
		sig := randSignature(rng)
		if rng.Intn(2) == 0 {
			target = sig.ClassPath()
		} else {
			target = sig.Package
			if target == "" {
				target = sig.Class
			}
		}
	case LevelMethod:
		sig := randSignature(rng)
		if sig.Proto == "*" {
			target = "L" + sig.ClassPath() + ";->" + sig.Name + "*"
		} else {
			target = sig.String()
		}
	}
	return Rule{Action: action, Level: level, Target: target}
}

func randStack(rng *rand.Rand) []dex.Signature {
	n := rng.Intn(6) // includes empty stacks
	stack := make([]dex.Signature, n)
	for i := range stack {
		stack[i] = randSignature(rng)
	}
	return stack
}

// TestEvaluateRacesSetRules hammers concurrent evaluation against central
// reconfiguration under -race: the compiled rule set swaps atomically, so
// every in-flight evaluation sees a consistent snapshot and the engine
// never serializes readers.
func TestEvaluateRacesSetRules(t *testing.T) {
	eng, err := NewEngine([]Rule{
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
	}, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	trackerStack := []dex.Signature{{Package: "com/flurry/sdk", Class: "Agent", Name: "beacon", Proto: "()V"}}
	cleanStack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "sync", Proto: "()V"}}

	ruleSets := [][]Rule{
		{{Action: Deny, Level: LevelLibrary, Target: "com/flurry"}},
		{
			{Action: Deny, Level: LevelClass, Target: "com/flurry/sdk/Agent"},
			{Action: Deny, Level: LevelMethod, Target: "Lcom/flurry/sdk/Agent;->beacon()V"},
		},
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.SetRules(ruleSets[i%len(ruleSets)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var h dex.TruncatedHash
			h[0] = byte(g)
			for i := 0; i < 2000; i++ {
				// Every rule set denies the tracker stack and says nothing
				// about the clean one, whichever snapshot Evaluate sees.
				if d := eng.Evaluate(h, trackerStack); d.Verdict != VerdictDrop {
					t.Errorf("tracker stack admitted: %+v", d)
					return
				}
				if d := eng.Evaluate(h, cleanStack); d.Verdict != VerdictAllow {
					t.Errorf("clean stack dropped: %+v", d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-writerDone

	if n := count(eng, "bp_policy_evaluations_total"); n != 4*2*2000 {
		t.Fatalf("evaluations = %d, want %d", n, 4*2*2000)
	}
}

// TestCompiledEvaluateZeroAlloc pins the acceptance criterion: the
// steady-state deny and default paths must not allocate.
func TestCompiledEvaluateZeroAlloc(t *testing.T) {
	rules := make([]Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, Rule{Action: Deny, Level: LevelLibrary, Target: fmt.Sprintf("com/blocked/lib%04d", i)})
	}
	eng, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	var h dex.TruncatedHash
	miss := []dex.Signature{{Package: "com/benign/app", Class: "Main", Name: "sync", Proto: "()V"}}
	hit := []dex.Signature{{Package: "com/blocked/lib0042/sdk", Class: "A", Name: "m", Proto: "()V"}}

	if avg := testing.AllocsPerRun(200, func() { eng.Evaluate(h, miss) }); avg != 0 {
		t.Errorf("default path allocates %.1f per op", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { eng.Evaluate(h, hit) }); avg != 0 {
		t.Errorf("deny path allocates %.1f per op", avg)
	}
}

// TestHashRuleOrderingCompiled pins the ordering subtlety the hash index
// must preserve: when several hash rules target the same app, the earliest
// one decides, even if a later one has the opposite action.
func TestHashRuleOrderingCompiled(t *testing.T) {
	var h dex.TruncatedHash
	h[0] = 0x42
	rules := []Rule{
		{Action: Deny, Level: LevelHash, Target: h.String()},
		{Action: Allow, Level: LevelHash, Target: h.String()},
	}
	eng, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	d := eng.Evaluate(h, nil)
	if d.Verdict != VerdictDrop || d.Rule == nil || d.Rule.Action != Deny {
		t.Fatalf("first hash rule must win: %+v", d)
	}
}

// TestDuplicateTargetsKeepEarliestIndex pins the keepMin behaviour for the
// prefix and method indexes.
func TestDuplicateTargetsKeepEarliestIndex(t *testing.T) {
	rules := []Rule{
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
		{Action: Deny, Level: LevelLibrary, Target: "com/flurry"},
	}
	eng, err := NewEngine(rules, VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	stack := []dex.Signature{{Package: "com/flurry/sdk", Class: "Agent", Name: "beacon", Proto: "()V"}}
	if d := eng.Evaluate(dex.TruncatedHash{}, stack); d.Rule != &eng.compiled.Load().rules[0] {
		t.Fatalf("duplicate target must credit the earliest rule: %+v", d.Rule)
	}
}

// TestReasonRenderedOnFirstRead pins where reason text is made: compiling,
// evaluating and deciding format nothing — a risk block included — and a
// rule's reason is rendered the first time it is read, then kept for every
// Access the rule decides, so a second read allocates nothing.
func TestReasonRenderedOnFirstRead(t *testing.T) {
	set, err := Compile("{[deny][library][\"com/flurry\"]}\n{[risk][network][\"unknown\"][100]}\n")
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, "")
	eng.Publish(set)
	var h dex.TruncatedHash
	flurry := []dex.Signature{{Package: "com/flurry/sdk", Class: "Agent", Name: "beacon", Proto: "()V"}}
	clean := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}

	a := eng.Access(h, clean)
	if avg := testing.AllocsPerRun(100, func() { a.Decide(a.Risk(&FlowContext{})) }); avg != 0 {
		t.Errorf("deciding a risk block allocates %.1f per op", avg)
	}
	eng.Evaluate(h, flurry)
	if set.reasons[0].text.Load() != nil {
		t.Fatal("the deny rule's reason was rendered before anyone read it")
	}
	const want = `deny rule {[deny][library]["com/flurry"]} matched`
	if got := eng.Evaluate(h, flurry).Reason(); got != want {
		t.Fatalf("reason %q, want %q", got, want)
	}
	again := eng.Access(h, flurry)
	if avg := testing.AllocsPerRun(100, func() { _ = again.Reason() }); avg != 0 {
		t.Errorf("a second read of the rule's reason allocates %.1f per op", avg)
	}
	if got := again.Reason(); got != want {
		t.Fatalf("second read %q, want %q", got, want)
	}
}

// TestReasonFirstReadsAgree: goroutines that read a rule's reason for the
// first time at once all get the one kept text (run it with -race).
func TestReasonFirstReadsAgree(t *testing.T) {
	eng := mustEngine(t, `{[allow][library]["com/corp"]}`)
	stack := []dex.Signature{{Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}}
	const want = `allow rule {[allow][library]["com/corp"]} satisfied by all frames`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := eng.Access(dex.TruncatedHash{}, stack)
			if got := a.Reason(); got != want {
				t.Errorf("reason %q, want %q", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestCompiledSetDoesNotPinDocument: a compiled set's rules and index keys
// point into a string of the set's own, never into the document, so the
// sets old verdicts keep alive do not keep their documents alive too.
func TestCompiledSetDoesNotPinDocument(t *testing.T) {
	doc := paperSnippet1 + "{[allow][library][\"com/corp\"]}\n{[deny][class][\"com/a/B\"]}\n{[allow][method][\"Lcom/a/B;->m()V\"]}\n"
	set, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	inDoc := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= start && p < start+uintptr(len(doc))
	}
	var strs []string
	for _, r := range set.rules {
		strs = append(strs, r.Target)
	}
	for k := range set.prefix {
		strs = append(strs, k)
	}
	for k := range set.classExact {
		strs = append(strs, k[0], k[1])
	}
	for k := range set.methodExact {
		strs = append(strs, k.Package, k.Class, k.Name, k.Proto)
	}
	for k := range set.methodMerged {
		strs = append(strs, k.pkg, k.class, k.name)
	}
	for _, a := range set.allows {
		strs = append(strs, a.target, a.sig.Package, a.sig.Class, a.sig.Name, a.sig.Proto)
	}
	for _, s := range strs {
		if inDoc(s) {
			t.Fatalf("%q points into the compiled document", s)
		}
	}
}
