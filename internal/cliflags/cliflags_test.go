package cliflags

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/policy"
)

func newSet(t *testing.T, args ...string) (*Policy, *Audit, *Metrics) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p, a, m := RegisterPolicy(fs), RegisterAudit(fs), RegisterMetrics(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return p, a, m
}

func TestPolicySourceSelection(t *testing.T) {
	p, _, _ := newSet(t, "-policy-file", "rules.bp", "-fail-mode", "closed", "-policy-max-stale", "30s")
	src, poll, mode, err := p.Source()
	if err != nil {
		t.Fatal(err)
	}
	if src == nil {
		t.Fatal("file flag produced no source")
	}
	if poll != 2*time.Second {
		t.Fatalf("poll = %v, want the 2s default", poll)
	}
	if mode.String() != "fail-closed" {
		t.Fatalf("fail mode = %v", mode)
	}

	// Without a source the poll interval has nothing to poll.
	p, _, _ = newSet(t)
	src, poll, _, err = p.Source()
	if err != nil || src != nil || poll != 0 {
		t.Fatalf("no flags: src=%v poll=%v err=%v", src, poll, err)
	}
}

func TestPolicySourceValidation(t *testing.T) {
	// The two hot-reload sources are mutually exclusive.
	p, _, _ := newSet(t, "-policy-file", "a.bp", "-policy-url", "http://ctrl/b.bp")
	if _, _, _, err := p.Source(); err == nil {
		t.Fatal("file+url accepted")
	}
	p, _, _ = newSet(t, "-policy-file", "a.bp", "-fail-mode", "sideways")
	if _, _, _, err := p.Source(); err == nil {
		t.Fatal("bogus fail mode accepted")
	}
	// Whether -policy-max-stale and -fail-mode fit together is the policy
	// store's call, and whether -policy, -policy-file and -policy-url
	// exclude each other and the rest have a source to act on the
	// assembly's: bp-gateway's refusal table drives them.
}

func TestAuditWriter(t *testing.T) {
	_, a, _ := newSet(t)
	w, closeFn, err := a.Writer()
	if err != nil || w != nil {
		t.Fatalf("unset -audit: w=%v err=%v", w, err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trail.jsonl")
	_, a, _ = newSet(t, "-audit", path)
	w, closeFn, err = a.Writer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, "{}\n"); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "{}\n" {
		t.Fatalf("audit file: %q err=%v", b, err)
	}

	// The rotating variant kicks in with -audit-rotate-bytes.
	path = filepath.Join(t.TempDir(), "rot.jsonl")
	_, a, _ = newSet(t, "-audit", path, "-audit-rotate-bytes", "4", "-audit-rotate-keep", "2")
	w, closeFn, err = a.Writer()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := io.WriteString(w, "xxxxx\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("no rotated file: %v", err)
	}
}

func TestMetricsServe(t *testing.T) {
	_, _, m := newSet(t)
	addr, stop, err := m.Serve(nil)
	if err != nil || addr != "" {
		t.Fatalf("unset -metrics-addr: addr=%q err=%v", addr, err)
	}
	stop()

	_, _, m = newSet(t, "-metrics-addr", "127.0.0.1:0")
	addr, stop, err = m.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "bp_up 1\n")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "bp_up 1") {
		t.Fatalf("scrape: %q err=%v", body, err)
	}
}

func TestMetricsWait(t *testing.T) {
	_, _, m := newSet(t, "-linger", "1ms")
	var sb strings.Builder
	start := time.Now()
	m.Wait(&sb)
	if time.Since(start) < time.Millisecond {
		t.Fatal("did not linger")
	}
	if !strings.Contains(sb.String(), "lingering") {
		t.Fatalf("no note: %q", sb.String())
	}
}

func newContextSet(t *testing.T, args ...string) *Context {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterContext(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContextFlags(t *testing.T) {
	// Unset: nil context, the unprovisioned default.
	if ctx, err := newContextSet(t).DeviceContext(); err != nil || ctx != nil {
		t.Fatalf("default context = %+v err=%v", ctx, err)
	}
	// -device-network with patch age.
	ctx, err := newContextSet(t, "-device-network", "cellular", "-device-patch-age", "45").DeviceContext()
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Network != policy.NetCellular || ctx.PatchAgeDays != 45 {
		t.Fatalf("context = %+v", ctx)
	}
	// Invalid class name.
	if _, err := newContextSet(t, "-device-network", "wifi").DeviceContext(); err == nil {
		t.Fatal("bogus class accepted")
	}
	// Patch age without a network class.
	if _, err := newContextSet(t, "-device-patch-age", "10").DeviceContext(); err == nil {
		t.Fatal("-device-patch-age accepted without -device-network")
	}
}
