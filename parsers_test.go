package borderpatrol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
	"policy.ParseLevel":         "keyword switch; FuzzParseRule reaches it through every access rule",
	"policy.ParseAction":        "keyword switch; FuzzParseRule reaches it through every access rule",
	"policy.ParsePredicate":     "keyword switch; FuzzParseRule reaches it through every risk rule",
	"policy.ParseThresholdKind": "keyword switch; FuzzParseRule reaches it through every threshold rule",
	"policy.ParseNetworkClass":  "keyword switch; FuzzParseRule reaches it through every network risk rule",
	"dex.ParseTruncatedHash":    "FuzzParseRule reaches it: Rule.Validate checks every hash-level target with it",
	"dex.ParseSignature":        "FuzzParseRule reaches it: Rule.Validate checks every method-level target with it",
	"policystore.ParseFailMode": "keyword switch over three names, fed only by the -fail-mode flag",
}

// TestEveryParserIsFuzzed lists the exported parsers (functions, not
// methods) under internal/ and fails for one that no fuzz target of its
// package names or calls and no allow-list row covers, and for a stale
// allow-list row.
func TestEveryParserIsFuzzed(t *testing.T) {
	parsers := map[string]bool{}  // "pkg.Func"
	fuzzRefs := map[string]bool{} // what the fuzz targets name, as "pkg.Name"
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			name := fn.Name.Name
			switch {
			case !test && fn.Name.IsExported() && parserName.MatchString(name):
				parsers[pkg+"."+name] = true
			case test && strings.HasPrefix(name, "Fuzz"):
				// A target covers the parser it is named after and every
				// function its body names.
				fuzzRefs[pkg+"."+strings.TrimPrefix(name, "Fuzz")] = true
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						fuzzRefs[pkg+"."+id.Name] = true
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
