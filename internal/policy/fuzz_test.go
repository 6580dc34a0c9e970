package policy

import (
	"slices"
	"strings"
	"testing"

	"borderpatrol/internal/dex"
)

// Native Go fuzz targets for the policy grammar (the gateway parses
// administrator-supplied and remotely-fetched documents, so the parser is
// attacker-reachable through the policy store's HTTP backend). Two
// invariants are enforced on every input:
//
//  1. No panics: arbitrary bytes either parse or return ErrBadRule-shaped
//     errors.
//  2. Round-trip: any accepted document formats (FormatPolicy) back into a
//     document that reparses to the identical rule set, and the formatted
//     form is a fixpoint.
//
// Seeds are the paper's §IV-B Snippet 1 examples plus grammar edge cases;
// the committed corpus lives in testdata/fuzz/.

// fuzzSeedRules are single-rule seed inputs shared by the parser targets.
var fuzzSeedRules = []string{
	// The paper's Snippet 1 examples.
	`{[deny][library]["com/flurry"]}`,
	`{[deny][class]["com/google/gms"]}`,
	`{[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"]}`,
	`{[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}`,
	// Grammar edge cases.
	`{ [allow] [hash] ["aabbccdd00112233"] }`,
	`{[deny][method]["Lcom/a/B;->m([B)V"]}`,
	`{[deny][library]["a\"b"]}`,
	`{[deny][library]["a}b{c"]}`,
	`{[deny][library][bare/target]}`,
	`{[deny][library]["a//b"]}`,
	`{[allow][method]["Lcom/corp/Main;->run*"]}`,
	// Contextual risk predicates and thresholds (context.go).
	`{[risk][time]["22:00-06:00"][35]}`,
	`{[risk][time]["weekend"][20]}`,
	`{[risk][time]["weekday 09:00-17:30"][-10]}`,
	`{[risk][network]["unknown"][60]}`,
	`{[risk][network]["trusted"][-30]}`,
	`{[risk][posture]["screen-locked"][15]}`,
	`{[risk][posture]["patch-age>90"][40]}`,
	`{[risk][travel]["impossible"][100]}`,
	`{[risk][travel][">300"][55]}`,
	`{[threshold][warn][40]}`,
	`{[threshold][block][100]}`,
	// Malformed shapes that must error cleanly.
	`{[deny][library "x"]}`,
	`{[deny]["x"]}`,
	`{{[deny][library]["x"]}}`,
	`{[risk][time]["25:00-26:00"][10]}`,
	`{[risk][network]["wired"][10]}`,
	`{[risk][travel]["impossible"]}`,
	`{[threshold][maybe][10]}`,
	`{[threshold][block][0]}`,
	``,
}

// rulesEqual reports element-wise equality of two rule slices.
func rulesEqual(a, b []Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzParseRule(f *testing.F) {
	for _, s := range fuzzSeedRules {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r, err := ParseRule(raw)
		if err != nil {
			return
		}
		// Accepted rules are valid by construction.
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseRule(%q) accepted invalid rule %+v: %v", raw, r, err)
		}
		// Round-trip: the canonical rendering reparses to the same rule.
		formatted := r.String()
		r2, err := ParseRule(formatted)
		if err != nil {
			t.Fatalf("formatted rule %q (from %q) unparsable: %v", formatted, raw, err)
		}
		if r2 != r {
			t.Fatalf("round trip changed rule: %+v -> %+v (via %q)", r, r2, formatted)
		}
	})
}

func FuzzParsePolicy(f *testing.F) {
	f.Add(`
// Example 1: prevent ad library connections
{[deny][library]["com/flurry"]}

// Example 2: prevent functions of an entire class
{[deny][class]["com/google/gms"]}

// Example 3: prevent uploads for Dropbox
{[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;
->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"]}

// Example 4: whitelist company app connections by hash
{[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}
`)
	for _, s := range fuzzSeedRules {
		f.Add(s)
	}
	f.Add("{[deny][library]\n[\"com/split\"]}\n{[allow][hash][\"aabbccdd00112233\"]}")
	f.Add("// only comments\n\n// and blanks\n")
	f.Fuzz(func(t *testing.T, doc string) {
		rules, err := ParsePolicyString(doc)
		set, cerr := Compile(doc)
		switch {
		case (err == nil) != (cerr == nil):
			t.Fatalf("ParsePolicyString error %v, Compile error %v\ninput: %q", err, cerr, doc)
		case err != nil && err.Error() != cerr.Error():
			t.Fatalf("refusals differ:\n  ParsePolicyString: %v\n  Compile:           %v\ninput: %q", err, cerr, doc)
		case err != nil:
			return
		}
		formatted := FormatPolicy(rules)
		again, err := ParsePolicyString(formatted)
		if err != nil {
			t.Fatalf("formatted policy unparsable: %v\ninput: %q\nformatted: %q", err, doc, formatted)
		}
		if !rulesEqual(rules, again) {
			t.Fatalf("round trip changed rules:\n  first:  %+v\n  second: %+v\nformatted: %q", rules, again, formatted)
		}
		// The formatted form is a fixpoint: formatting the reparsed rules
		// yields the same document.
		if f2 := FormatPolicy(again); f2 != formatted {
			t.Fatalf("FormatPolicy not a fixpoint:\n  %q\n  %q", formatted, f2)
		}
		// The document compiled decides as its parsed rules do: the same
		// verdict, decisive rule, reason and risk on fixed probes and on a
		// frame each target of the document matches.
		held, err := NewEngine(rules, VerdictAllow)
		if err != nil {
			t.Fatalf("parse-accepted rules failed to compile: %v\nrules: %+v", err, rules)
		}
		compiled, _ := NewEngine(nil, VerdictAllow)
		compiled.Publish(set)
		if set.Len() != len(rules) || !rulesEqual(set.rules, rules) {
			t.Fatalf("Compile rules %+v, ParsePolicyString rules %+v\ninput: %q", set.rules, rules, doc)
		}
		for _, h := range fuzzProbeHashes {
			for _, stack := range append(fuzzProbeStacks, targetFrames(rules)) {
				want, got := held.Access(h, stack), compiled.Access(h, stack)
				if want.Verdict != got.Verdict || (want.Rule == nil) != (got.Rule == nil) ||
					want.Rule != nil && *want.Rule != *got.Rule || want.Reason() != got.Reason() {
					t.Fatalf("decisions differ on %s %v: held %+v (%s), compiled %+v (%s)\ninput: %q",
						h, stack, want, want.Reason(), got, got.Reason(), doc)
				}
				for _, fc := range fuzzProbeContexts {
					if w, g := want.Risk(&fc), got.Risk(&fc); w != g {
						t.Fatalf("risks differ on %s %v %+v: held %+v, compiled %+v\ninput: %q", h, stack, fc, w, g, doc)
					}
				}
			}
		}
	})
}

// The fixed probes FuzzParsePolicy decides on: the seed documents' app
// hashes and frames, a merged frame, an empty stack, and flow contexts that
// risk predicates score differently.
var (
	fuzzProbeHashes = []dex.TruncatedHash{{}, mustHash("da6880ab1f991974"), mustHash("aabbccdd00112233")}
	fuzzProbeStacks = [][]dex.Signature{
		nil,
		{{Package: "com/flurry/sdk", Class: "Agent", Name: "beacon", Proto: "()V"}},
		{{Package: "com/google/gms/ads", Class: "Ad", Name: "load", Proto: "()V"}, {Package: "com/corp", Class: "Main", Name: "run", Proto: "()V"}},
		{{Package: "com/dropbox/android/taskqueue", Class: "UploadTask", Name: "c", Proto: "()Lcom/dropbox/hairball/taskqueue/TaskResult;"}},
		{{Package: "com/a", Class: "B", Name: "m", Proto: "*"}},
	}
	fuzzProbeContexts = []FlowContext{
		{MinuteOfDay: 23 * 60, Weekday: 2},
		{Device: DeviceContext{Network: NetTrusted, ScreenLocked: true, PatchAgeDays: 120, VelocityKmh: 2000}, MinuteOfDay: 10 * 60, Weekday: 6},
	}
)

func mustHash(s string) dex.TruncatedHash {
	h, err := dex.ParseTruncatedHash(s)
	if err != nil {
		panic(err)
	}
	return h
}

// targetFrames returns a stack with one frame that each library, class
// and method target of rules matches.
func targetFrames(rules []Rule) []dex.Signature {
	var stack []dex.Signature
	for _, r := range rules {
		switch {
		case r.Kind != KindAccess:
		case r.Level == LevelLibrary:
			stack = append(stack, dex.Signature{Package: r.Target, Class: "X", Name: "m", Proto: "()V"})
		case r.Level == LevelClass:
			pkg, class := splitClassTarget(r.Target)
			stack = append(stack, dex.Signature{Package: pkg, Class: class, Name: "m", Proto: "()V"})
		case r.Level == LevelMethod:
			sig, _ := dex.ParseSignature(r.Target)
			stack = append(stack, sig)
		}
	}
	return stack
}

// FuzzParseGroupSet: a fleet's grouped document arrives by operator push,
// so its splitter faces the wire too. The two parsers share one scanner,
// so a document with no //@ line is one document to both: both refuse it
// with the same error, or both accept it with the same rules, all global.
// A document ParseGroupSet accepts must also be a flat document
// ParsePolicyString accepts with the same rules (directives are comments
// to the flat parser), and Format must render a document that reparses to
// the same rendering.
func FuzzParseGroupSet(f *testing.F) {
	f.Add("{[deny][library][\"com/global\"]}\n//@group a\n{[deny][library][\"com/a\"]}\n//@group b\n{[allow][class][\"com/b\"]}\n")
	f.Add("//@group a\n{[deny][library]\n[\"com/split\"]}\n//@group a\n{[risk][network][\"unknown\"][60]}\n")
	f.Add("{[deny][library][\"x\"]} //@group trailing\n")
	f.Add("//@groups typo\n")
	f.Add("{[deny][library][\"x\"]}\n// a comment\n{[deny][nope][\"y\"]}\n")
	for _, s := range fuzzSeedRules {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		gs, err := ParseGroupSet(doc)
		flat, flatErr := ParsePolicyString(doc)
		if !hasDirectiveLine(doc) {
			switch {
			case (err == nil) != (flatErr == nil):
				t.Fatalf("grouped error %v, flat error %v\ninput: %q", err, flatErr, doc)
			case err != nil && err.Error() != flatErr.Error():
				t.Fatalf("refusals differ:\n  grouped: %v\n  flat:    %v\ninput: %q", err, flatErr, doc)
			case err == nil && (len(gs.Groups) != 0 || !slices.Equal(gs.Global, flat)):
				t.Fatalf("grouped and flat rules differ:\n  flat:    %+v\n  grouped: %+v\ninput: %q", flat, gs, doc)
			}
		}
		if err != nil {
			return
		}
		if flatErr != nil {
			t.Fatalf("grouped document accepted, flat parse rejected: %v\ninput: %q", flatErr, doc)
		}
		grouped := append([]Rule(nil), gs.Global...)
		for _, g := range gs.Groups {
			grouped = append(grouped, g.Rules...)
		}
		if !sameRules(flat, grouped) {
			t.Fatalf("grouped and flat rules differ:\n  flat:    %+v\n  grouped: %+v\ninput: %q", flat, grouped, doc)
		}
		formatted := gs.Format()
		again, err := ParseGroupSet(formatted)
		if err != nil {
			t.Fatalf("formatted grouped document unparsable: %v\ninput: %q\nformatted: %q", err, doc, formatted)
		}
		if f2 := again.Format(); f2 != formatted {
			t.Fatalf("Format not a fixpoint:\n  %q\n  %q", formatted, f2)
		}
	})
}

// hasDirectiveLine reports whether a line of doc, trimmed, starts with the
// //@ directive prefix.
func hasDirectiveLine(doc string) bool {
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "//@") {
			return true
		}
	}
	return false
}

// sameRules reports whether two rule slices hold the same rules as a
// multiset (order aside).
func sameRules(a, b []Rule) bool {
	if len(a) != len(b) {
		return false
	}
	n := make(map[Rule]int, len(a))
	for _, r := range a {
		n[r]++
	}
	for _, r := range b {
		if n[r]--; n[r] < 0 {
			return false
		}
	}
	return true
}
