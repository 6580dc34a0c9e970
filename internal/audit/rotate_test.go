package audit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"borderpatrol/internal/metrics"
)

func TestRotatingWriterShiftsFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, err := NewRotatingWriter(path, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	line := strings.Repeat("x", 59) + "\n" // 60 bytes: two lines exceed 100
	for i := 0; i < 5; i++ {
		if _, err := w.Write([]byte(line)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// 5 writes at 60B with a 100B cap: rotation before writes 2..5 would
	// overflow — every write after the first rotates, so 4 rotations and
	// files audit.jsonl, .1, .2 exist (.3 would exceed maxFiles=2).
	reg := metrics.NewRegistry()
	w.RegisterMetrics(reg)
	if got, _ := reg.Value("bp_audit_file_rotations_total"); got != 4 {
		t.Fatalf("rotations = %v, want 4", got)
	}
	for _, p := range []string{path, path + ".1", path + ".2"} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("expected rotated file %s: %v", p, err)
		}
		if string(b) != line {
			t.Errorf("%s holds %d bytes, want one whole line", p, len(b))
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("expected %s.3 to be pruned (maxFiles=2)", path)
	}
}

func TestRotatingWriterNeverSplitsLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, err := NewRotatingWriter(path, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// An oversized burst still lands whole in a single file.
	big := strings.Repeat("y", 200) + "\n"
	if _, err := w.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("z\n")); err != nil {
		t.Fatal(err)
	}
	rotated, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if string(rotated) != big {
		t.Errorf("rotated file split the oversized burst: %d bytes", len(rotated))
	}
}

func TestLogRegistersRotatingSinkMetrics(t *testing.T) {
	dir := t.TempDir()
	w, err := NewRotatingWriter(filepath.Join(dir, "a.jsonl"), 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := New(w, 0)
	defer l.Close()
	r := metrics.NewRegistry()
	l.RegisterMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bp_audit_file_writes_total", "bp_audit_file_rotations_total", "bp_audit_batch_entries_bucket"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("registry output missing %s", want)
		}
	}
}
