package audit

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/metrics"
)

// RotatingWriter is a size-rotating file sink for the audit log's JSON
// lines. When the active file reaches MaxBytes, it is closed and shifted
// to <path>.1 (existing <path>.N shift to <path>.N+1, the oldest beyond
// MaxFiles is deleted) and a fresh <path> is opened — the classic
// logrotate scheme, done inline so a long soak cannot fill the disk.
//
// Writes arrive from the audit drainer in whole-burst chunks, so rotation
// happens on entry boundaries: a JSON line is never split across files.
// The writer is safe for concurrent use, though the drainer is its only
// producer in practice.
type RotatingWriter struct {
	path     string
	maxBytes int64
	maxFiles int

	mu   sync.Mutex
	f    *os.File
	size int64

	writes       atomic.Uint64
	rotations    atomic.Uint64
	bytesWritten atomic.Uint64
}

// NewRotatingWriter opens (or appends to) path. maxBytes <= 0 defaults to
// 64 MiB; maxFiles <= 0 defaults to 4 rotated files kept beside the
// active one.
func NewRotatingWriter(path string, maxBytes int64, maxFiles int) (*RotatingWriter, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if maxFiles <= 0 {
		maxFiles = 4
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: stat %s: %w", path, err)
	}
	return &RotatingWriter{
		path:     filepath.Clean(path),
		maxBytes: maxBytes,
		maxFiles: maxFiles,
		f:        f,
		size:     st.Size(),
	}, nil
}

// Write appends one drain burst, rotating first if the burst would push
// the active file past MaxBytes (an oversized single burst still lands
// whole — bounding memory, not truncating records).
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.size > 0 && w.size+int64(len(p)) > w.maxBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	w.writes.Add(1)
	w.bytesWritten.Add(uint64(n))
	return n, err
}

// rotateLocked shifts <path>.N → <path>.N+1, drops the oldest, moves the
// active file to <path>.1, and opens a fresh active file.
func (w *RotatingWriter) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("audit: rotate close: %w", err)
	}
	os.Remove(fmt.Sprintf("%s.%d", w.path, w.maxFiles))
	for i := w.maxFiles - 1; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", w.path, i)
		if _, err := os.Stat(from); err == nil {
			os.Rename(from, fmt.Sprintf("%s.%d", w.path, i+1))
		}
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return fmt.Errorf("audit: rotate rename: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit: rotate reopen: %w", err)
	}
	w.f = f
	w.size = 0
	w.rotations.Add(1)
	return nil
}

// Close closes the active file.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// RegisterMetrics attaches the sink's write and rotation counters to a
// registry (called by Log.RegisterMetrics when the log writes to one).
func (w *RotatingWriter) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("bp_audit_file_writes_total", "Drain bursts written to the audit file.", w.writes.Load)
	r.CounterFunc("bp_audit_file_rotations_total", "Audit file size rotations completed.", w.rotations.Load)
	r.CounterFunc("bp_audit_file_bytes_total", "Bytes written to the audit file across rotations.", w.bytesWritten.Load)
}
