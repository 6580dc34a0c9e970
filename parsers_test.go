package borderpatrol

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
	"testing"
)

// parserName matches the exported functions that turn outside bytes into
// values: Parse*, Read*, Unmarshal*, Decode* and Load.
var parserName = regexp.MustCompile(`^(Parse|Read|Unmarshal|Decode)|^Load$`)

// parserAllowList names the parsers under internal/ that have no fuzz
// target of their own, each with what covers it instead.
var parserAllowList = map[string]string{
	"policy.ParseLevel":         "keyword table; FuzzParseRule reaches it through every access rule",
	"policy.ParseAction":        "keyword table; FuzzParseRule reaches it through every access rule",
	"policy.ParsePredicate":     "keyword table; FuzzParseRule reaches it through every risk rule",
	"policy.ParseThresholdKind": "keyword table; FuzzParseRule reaches it through every threshold rule",
	"policy.ParseNetworkClass":  "keyword table; FuzzParseRule reaches it through every network risk rule",
	"dex.ParseTruncatedHash":    "FuzzParseRule reaches it: Rule.Validate checks every hash-level target with it",
	"dex.ParseSignature":        "FuzzParseRule reaches it: Rule.Validate checks every method-level target with it",
	"policystore.ParseFailMode": "keyword switch over three names, fed only by the -fail-mode flag",
}

// TestEveryParserIsFuzzed lists the exported parsers (functions, not
// methods) under internal/ and fails for one that no fuzz target of its
// package names or calls and no allow-list row covers, and for a stale
// allow-list row.
func TestEveryParserIsFuzzed(t *testing.T) {
	m := loadModule(t)
	parsers := map[string]bool{} // "pkg.Func"
	for _, p := range m.pkgs {
		pkg := p.internalName()
		if pkg == "" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if fn, ok := scope.Lookup(name).(*types.Func); ok && fn.Exported() && parserName.MatchString(name) {
				parsers[pkg+"."+name] = true
			}
		}
	}
	fuzzRefs := map[string]bool{} // what the fuzz targets name, as "pkg.Name"
	for _, target := range m.fuzzTargets() {
		// A target covers the parser it is named after and every function
		// its body names.
		pkg := target.pkg.internalName()
		fuzzRefs[pkg+"."+strings.TrimPrefix(target.decl.Name.Name, "Fuzz")] = true
		ast.Inspect(target.decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				fuzzRefs[pkg+"."+id.Name] = true
			}
			return true
		})
	}
	if len(parsers) == 0 {
		t.Fatal("found no parsers under internal/")
	}
	for p := range parsers {
		reason, allowed := parserAllowList[p]
		switch fuzzed := fuzzRefs[p]; {
		case fuzzed && allowed:
			t.Errorf("%s has a fuzz target; drop its allow-list row (%s)", p, reason)
		case !fuzzed && !allowed:
			t.Errorf("%s has no fuzz target: add one, or an allow-list row saying what covers it", p)
		}
	}
	for p := range parserAllowList {
		if _, ok := parsers[p]; !ok {
			t.Errorf("allow-list row %s names no parser", p)
		}
	}
}
