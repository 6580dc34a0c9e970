package borderpatrol

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzStep matches a fuzz-smoke step's command: the target and the
// package it runs in.
var fuzzStep = regexp.MustCompile(`go test -fuzz '(Fuzz\w+)\$' .* (\./\S+)`)

// TestFuzzSmokeRunsEveryTarget holds the CI workflow's fuzz-smoke job to
// the fuzz targets in the tree. It fails when a target has no step running
// -fuzz 'FuzzX$' on its own package, when a step names a target its
// package does not have, when a target has no committed corpus under its
// package's testdata/fuzz/FuzzX, and when the job's comment leaves out a
// package's corpus directory.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	m := loadModule(t)
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, job, ok := strings.Cut(string(ci), "\n  fuzz-smoke:\n")
	if !ok {
		t.Fatal("ci.yml has no fuzz-smoke job")
	}
	if end := regexp.MustCompile(`\n  \S`).FindStringIndex(job); end != nil {
		job = job[:end[0]]
	}
	var comment strings.Builder
	for _, line := range strings.Split(job, "\n") {
		if c, ok := strings.CutPrefix(strings.TrimSpace(line), "#"); ok {
			comment.WriteString(c)
		}
	}
	steps := map[string]bool{} // "./dir FuzzX"
	for _, s := range fuzzStep.FindAllStringSubmatch(job, -1) {
		steps[s[2]+" "+s[1]] = true
	}
	if len(steps) == 0 {
		t.Fatal("the fuzz-smoke job has no fuzz steps")
	}

	targets := m.fuzzTargets()
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for _, target := range targets {
		dir, name := target.pkg.dir, target.decl.Name.Name
		step := "./" + dir + " " + name
		if !steps[step] {
			t.Errorf("%s in %s has no fuzz-smoke step running -fuzz '%s$' on ./%s", name, dir, name, dir)
		}
		delete(steps, step)
		if entries, err := os.ReadDir(filepath.Join(dir, "testdata", "fuzz", name)); err != nil || len(entries) == 0 {
			t.Errorf("%s has no committed corpus under %s/testdata/fuzz/%s", name, dir, name)
		}
		if corpus := dir + "/testdata/fuzz"; !strings.Contains(comment.String(), corpus) {
			t.Errorf("the fuzz-smoke job's comment does not name %s", corpus)
		}
	}
	for step := range steps {
		t.Errorf("fuzz-smoke step %q names no fuzz target of its package", step)
	}
}
