// Package cliflags centralizes the flag wiring the BorderPatrol
// commands share: bp-gateway registers all four groups here, and
// bp-experiments the audit and metrics groups. Declaring them once keeps
// names, defaults, help text and validation identical across commands
// instead of drifting copy by copy.
//
// Each Register* function declares its flag group on a caller-supplied
// *flag.FlagSet (pass flag.CommandLine from a main) and returns a holder
// whose methods run after fs.Parse: validation, then construction of the
// thing the flags describe — a policystore.Source, an audit io.Writer,
// an HTTP scrape endpoint. A holder refuses only what its flags alone
// decide; the gateway assembly and the policy store judge the rest in
// field paths (Policy.FailMode), which InFlags renders as flags.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"borderpatrol/internal/audit"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
)

// flagOf is the one table from a refused field path to its flag.
var flagOf = strings.NewReplacer(
	"Policy.Doc", "-policy",
	"Policy.Source", "-policy-file or -policy-url",
	"Policy.Poll", "-policy-poll",
	"Policy.MaxStale", "-policy-max-stale",
	"Policy.FailMode", "-fail-mode",
)

// InFlags restates a non-nil err with each field path it names as its flag.
func InFlags(err error) error { return errors.New(flagOf.Replace(err.Error())) }

// Policy holds the hot-reload policy-source flags: -policy-file,
// -policy-url, -policy-poll, -policy-max-stale and -fail-mode.
type Policy struct {
	file, url, failMode string
	poll                time.Duration
	// MaxStale arms the staleness deadline past which -fail-mode applies.
	MaxStale time.Duration
}

// RegisterPolicy declares the shared policy-source flags on fs.
func RegisterPolicy(fs *flag.FlagSet) *Policy {
	p := &Policy{}
	fs.StringVar(&p.file, "policy-file", "", "policy file with hot reload: edits apply without restart")
	fs.StringVar(&p.url, "policy-url", "", "policy HTTP endpoint with hot reload: polled every -policy-poll with ETag conditional GETs")
	fs.DurationVar(&p.poll, "policy-poll", 2*time.Second, "hot-reload poll interval for -policy-file/-policy-url")
	fs.DurationVar(&p.MaxStale, "policy-max-stale", 0, "staleness deadline past which the store degrades to -fail-mode, which must then be open or closed (0 = never)")
	fs.StringVar(&p.failMode, "fail-mode", "static", "degraded posture past -policy-max-stale: static|open|closed")
	return p
}

// Source builds the hot-reload policy source and its poll interval — nil
// and 0 when neither -policy-file nor -policy-url was given — and parses
// -fail-mode. It refuses -policy-file and -policy-url together; the
// gateway assembly and the policy store judge the rest.
func (p *Policy) Source() (src policystore.Source, poll time.Duration, failMode policystore.FailMode, err error) {
	if p.file != "" && p.url != "" {
		return nil, 0, failMode, errors.New("-policy-file and -policy-url are mutually exclusive")
	}
	if failMode, err = policystore.ParseFailMode(p.failMode); err != nil {
		return nil, 0, failMode, err
	}
	switch {
	case p.file != "":
		return policystore.NewFileSource(p.file), p.poll, failMode, nil
	case p.url != "":
		return policystore.NewHTTPSource(p.url), p.poll, failMode, nil
	}
	return nil, 0, failMode, nil
}

// Context holds the device-context flags: -device-network and
// -device-patch-age. They provision the simulated device's context so
// contextual risk rules ({[risk][network][...]} and friends) score flows
// against known context instead of the unknown-device default.
type Context struct {
	NetworkName string
	PatchAge    int
}

// RegisterContext declares the shared device-context flags on fs.
func RegisterContext(fs *flag.FlagSet) *Context {
	c := &Context{}
	fs.StringVar(&c.NetworkName, "device-network", "", "device network trust class for contextual risk rules: trusted|cellular|unknown (empty = unprovisioned)")
	fs.IntVar(&c.PatchAge, "device-patch-age", 0, "age in days of the device's security patch level (with -device-network)")
	return c
}

// DeviceContext validates the parsed flags and builds the initial device
// context — nil when -device-network was not given (the unprovisioned,
// least-trusted default).
func (c *Context) DeviceContext() (*policy.DeviceContext, error) {
	if c.NetworkName == "" {
		if c.PatchAge != 0 {
			return nil, errors.New("-device-patch-age requires -device-network")
		}
		return nil, nil
	}
	class, err := policy.ParseNetworkClass(c.NetworkName)
	if err != nil {
		return nil, err
	}
	if c.PatchAge < 0 {
		return nil, fmt.Errorf("-device-patch-age %d is negative", c.PatchAge)
	}
	return &policy.DeviceContext{Network: class, PatchAgeDays: int32(c.PatchAge)}, nil
}

// Audit holds the enforcement-audit flags: -audit, -audit-rotate-bytes
// and -audit-rotate-keep.
type Audit struct {
	Path        string
	RotateBytes int64
	RotateKeep  int
}

// RegisterAudit declares the shared audit-trail flags on fs.
func RegisterAudit(fs *flag.FlagSet) *Audit {
	a := &Audit{}
	fs.StringVar(&a.Path, "audit", "", "write the enforcement audit trail (JSON lines) to this file")
	fs.Int64Var(&a.RotateBytes, "audit-rotate-bytes", 0, "rotate the -audit file when it reaches this size (0 = never)")
	fs.IntVar(&a.RotateKeep, "audit-rotate-keep", 4, "rotated -audit files to keep beside the active one")
	return a
}

// Writer opens the audit destination the flags describe: a rotating
// writer when -audit-rotate-bytes is set, a plain file otherwise, and a
// nil writer when -audit is unset. The returned close function is never
// nil; call it only after the audit pipeline has flushed.
func (a *Audit) Writer() (io.Writer, func() error, error) {
	if a.Path == "" {
		return nil, func() error { return nil }, nil
	}
	if a.RotateBytes > 0 {
		rw, err := audit.NewRotatingWriter(a.Path, a.RotateBytes, a.RotateKeep)
		if err != nil {
			return nil, nil, err
		}
		return rw, rw.Close, nil
	}
	f, err := os.Create(a.Path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Metrics holds the scrape-endpoint flags: -metrics-addr and -linger.
type Metrics struct {
	Addr   string
	Linger time.Duration
}

// RegisterMetrics declares the shared metrics-endpoint flags on fs.
func RegisterMetrics(fs *flag.FlagSet) *Metrics {
	m := &Metrics{}
	fs.StringVar(&m.Addr, "metrics-addr", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9090) at /metrics")
	fs.DurationVar(&m.Linger, "linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the session")
	return m
}

// Serve exposes h at /metrics on -metrics-addr. It returns the bound
// address — empty when the flag is unset — and a stop function that is
// always safe to call.
func (m *Metrics) Serve(h http.Handler) (addr string, stop func(), err error) {
	if m.Addr == "" {
		return "", func() {}, nil
	}
	ln, err := net.Listen("tcp", m.Addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", h)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// Wait sleeps the -linger duration (noting it on out) so scrapers can
// collect the endpoint after the session's work is done.
func (m *Metrics) Wait(out io.Writer) {
	if m.Linger <= 0 {
		return
	}
	fmt.Fprintf(out, "lingering %s for scrapers...\n", m.Linger)
	time.Sleep(m.Linger)
}
