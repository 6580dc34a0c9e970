package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusalsNameFlags drives bp-gateway's refusals through run: each
// names the flags the operator typed (or must add) and none of the
// configuration's field paths, Go fields or internal packages.
func TestRefusalsNameFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	if err := os.WriteFile(path, []byte(`{[deny][library]["com/flurry"]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(t.TempDir(), "malformed.bp")
	if err := os.WriteFile(malformed, []byte(`{[deny][library]`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		flags []string // nil: the session runs
	}{
		{[]string{"-fail-mode", "open"}, []string{"-fail-mode", "-policy-file or -policy-url"}},
		{[]string{"-policy-max-stale", "1s"}, []string{"-policy-max-stale", "-policy-file or -policy-url"}},
		{[]string{"-policy", path, "-fail-mode", "closed", "-policy-max-stale", "1s"}, []string{"-fail-mode", "-policy-max-stale", "-policy-file or -policy-url"}},
		{[]string{"-policy-file", path, "-policy-max-stale", "1s"}, []string{"-policy-max-stale", "-fail-mode"}},
		{[]string{"-policy-file", path, "-fail-mode", "open"}, []string{"-fail-mode", "-policy-max-stale"}},
		{[]string{"-policy-file", path, "-fail-mode", "sideways"}, []string{"-fail-mode"}},
		{[]string{"-policy", path, "-policy-file", path}, []string{"-policy and", "-policy-file or -policy-url"}},
		{[]string{"-policy-file", path, "-policy-url", "http://ctrl.invalid/p.bp"}, []string{"-policy-file", "-policy-url"}},
		{[]string{"-policy", malformed}, []string{"-policy:"}},
		{nil, nil},
	} {
		var out bytes.Buffer
		err := run(append(c.args, "-apps", "1", "-events", "1"), &out)
		name := strings.Join(c.args, " ")
		if c.flags == nil {
			if err != nil || !strings.Contains(out.String(), "packets seen") {
				t.Errorf("%q: run returned %v, printed %q", name, err, out.String())
			}
			continue
		}
		if err == nil {
			t.Errorf("%q: accepted", name)
			continue
		}
		msg := err.Error()
		for _, f := range c.flags {
			if !strings.Contains(msg, f) {
				t.Errorf("%q: refusal %q does not name %s", name, msg, f)
			}
		}
		for _, word := range []string{"Policy.", "Flow.", "PolicySource", "PolicyPoll", "PolicyMaxStale", "PolicyFailMode", "experiments:", "policystore:"} {
			if strings.Contains(msg, word) {
				t.Errorf("%q: refusal %q names %s, which is no flag", name, msg, word)
			}
		}
		t.Logf("%s: %s", name, msg)
	}
}

// TestLoadedRuleCount: a -policy session reports the rules it loaded,
// counted on the engine that enforces them.
func TestLoadedRuleCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	doc := `{[deny][library]["com/flurry"]}` + "\n" + `{[deny][class]["com/x/Y"]}` + "\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-policy", path, "-apps", "1", "-events", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "loaded 2 policy rules from " + path + "\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("session began %q, want %q", out.String()[:min(len(want), out.Len())], want)
	}
}
