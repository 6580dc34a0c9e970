package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

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
