// Command bp-gateway runs a BorderPatrol gateway session against a
// simulated BYOD device (paper §V-C/§V-D): it provisions a device with the
// Context Manager, installs a corpus slice, enforces a policy file at the
// gateway, exercises the apps with the monkey, and prints the enforcement
// audit.
//
// Usage:
//
//	bp-gateway -policy policy.bp -apps 20 -events 1000
//	bp-gateway -apps 5            # empty policy: only untagged traffic drops
//	bp-gateway -workers 8         # size the batched per-core queue drain
//	bp-gateway -audit trail.jsonl # ship the enforcement audit as JSON lines
//
// Hot reload (multi-backend policy store): -policy-file polls a policy
// file for edits, -policy-url polls an HTTP endpoint with ETag conditional
// fetches; either hot-swaps the compiled rules atomically mid-session and
// keeps the last-good rules if a candidate fails to parse.
//
//	bp-gateway -policy-file policy.bp                  # edit the file while it runs
//	bp-gateway -policy-url http://ctrl/policy.bp -policy-poll 5s
//
// Graceful degradation: -policy-max-stale arms a staleness deadline on the
// hot-reload store and -fail-mode selects the posture past it — "static"
// keeps the last-good rules (default), "open" admits everything, "closed"
// denies everything until a healthy reload recovers.
//
//	bp-gateway -policy-url http://ctrl/policy.bp -policy-max-stale 30s -fail-mode closed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/cliflags"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/monkey"
	"borderpatrol/internal/policy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bp-gateway:", err)
		os.Exit(1)
	}
}

// run is one gateway session on args, printing to out; its errors name flags.
func run(args []string, out io.Writer) (err error) {
	defer func() {
		if err != nil {
			err = cliflags.InFlags(err)
		}
	}()
	fs := flag.NewFlagSet("bp-gateway", flag.ExitOnError)
	policyPath := fs.String("policy", "", "policy file in the paper's grammar, loaded once (empty = allow all)")
	apps := fs.Int("apps", 20, "number of corpus apps to install")
	events := fs.Int("events", 1000, "monkey events per app")
	seed := fs.Int64("seed", 2019, "corpus + monkey seed")
	workers := fs.Int("workers", 0, "gateway batch-drain workers (0 = GOMAXPROCS)")
	policyFlags := cliflags.RegisterPolicy(fs)
	auditFlags := cliflags.RegisterAudit(fs)
	metricsFlags := cliflags.RegisterMetrics(fs)
	contextFlags := cliflags.RegisterContext(fs)
	fs.Parse(args)

	policySource, poll, failMode, err := policyFlags.Source()
	if err != nil {
		return err
	}
	deviceCtx, err := contextFlags.DeviceContext()
	if err != nil {
		return err
	}
	auditW, closeAudit, err := auditFlags.Writer()
	if err != nil {
		return err
	}
	defer closeAudit()

	var doc []byte
	if *policyPath != "" {
		if doc, err = os.ReadFile(*policyPath); err != nil {
			return err
		}
	}

	cfg := apkgen.DefaultConfig()
	cfg.Apps = *apps
	cfg.Seed = *seed
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		return err
	}
	tb, err := experiments.NewTestbed(corpus, experiments.TestbedConfig{
		Doc:            string(doc),
		EnforcementOn:  true,
		DefaultVerdict: policy.VerdictAllow,
		GatewayWorkers: *workers,
		AuditWriter:    auditW,
		PolicySource:   policySource,
		PolicyPoll:     poll,
		PolicyMaxStale: policyFlags.MaxStale,
		PolicyFailMode: failMode,
	})
	if err != nil {
		return err
	}
	if *policyPath != "" {
		fmt.Fprintf(out, "loaded %d policy rules from %s\n", tb.Engine.RuleCount(), *policyPath)
	}
	if deviceCtx != nil {
		tb.Context.Provision(tb.Device.Config().Addr, *deviceCtx)
		fmt.Fprintf(out, "device context: network %s, patch age %dd\n", deviceCtx.Network, deviceCtx.PatchAgeDays)
	}
	count := func(family string) uint64 {
		v, _ := tb.Metrics.Value(family)
		return uint64(v)
	}
	if tb.Policy != nil {
		fmt.Fprintf(out, "policy store: %d rules from %s (revision %s, hot reload every %s)\n",
			count("bp_policy_rules"), policySource, tb.Policy.Version(), poll)
		if policyFlags.MaxStale > 0 {
			fmt.Fprintf(out, "  staleness deadline %s, fail mode %s\n", policyFlags.MaxStale, failMode)
		}
	}

	metricsAddr, stopMetrics, err := metricsFlags.Serve(tb.Metrics.Handler())
	if err != nil {
		return err
	}
	defer stopMetrics()
	if metricsAddr != "" {
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", metricsAddr)
	}

	totalPackets, delivered := 0, 0
	for i, app := range tb.Apps {
		rep, err := monkey.Run(app, monkey.Config{Events: *events, Seed: *seed + int64(i)})
		if err != nil {
			return err
		}
		// Drain the app's whole monkey session as one burst through the
		// batched per-core gateway pipeline.
		totalPackets += len(rep.Packets)
		d, _ := tb.DeliverAll(rep.Packets)
		delivered += d
	}

	fmt.Fprintf(out, "\ngateway session: %d apps, %d monkey events each\n", len(tb.Apps), *events)
	fmt.Fprintf(out, "packets seen: %d, delivered: %d, dropped: %d\n", totalPackets, delivered, totalPackets-delivered)
	if tb.Policy != nil && tb.Policy.LastError() != "" {
		fmt.Fprintf(out, "last rejected policy candidate: %s\n", tb.Policy.LastError())
	}
	// Flush-on-close so every decision reaches the -audit file before the
	// stats are printed.
	if err := tb.Close(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	// The stats printout walks the metrics registry: every instrument a
	// component registered shows up here automatically — no hand-listed
	// fields to fall out of date when a layer grows a counter.
	printRegistry(out, tb.Metrics)
	fmt.Fprintf(out, "context manager: sockets tagged=%d, frames resolved=%d, framework frames filtered=%d, tag table hits=%d misses=%d\n",
		count("bp_contextmgr_sockets_tagged_total"), count("bp_contextmgr_frames_resolved_total"),
		count("bp_contextmgr_frames_dropped_total"), count("bp_contextmgr_tag_table_hits_total"),
		count("bp_contextmgr_tag_table_misses_total"))

	metricsFlags.Wait(out)
	return nil
}

// printRegistry renders every registered series, one line per sample.
// Histograms print count, mean and the tail quantiles instead of raw
// buckets — the interactive rendering of what /metrics exposes in full.
func printRegistry(out io.Writer, r *metrics.Registry) {
	for _, s := range r.Snapshot() {
		var lb strings.Builder
		for i, l := range s.Labels {
			if i == 0 {
				lb.WriteByte('{')
			} else {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, "%s=%q", l.Key, l.Value)
		}
		if len(s.Labels) > 0 {
			lb.WriteByte('}')
		}
		switch {
		case s.Hist != nil:
			fmt.Fprintf(out, "%s%s count=%d mean=%.0f p50=%d p99=%d p999=%d\n",
				s.Name, lb.String(), s.Hist.Count(), s.Hist.Mean(),
				s.Hist.Quantile(0.5), s.Hist.Quantile(0.99), s.Hist.Quantile(0.999))
		case s.Kind == metrics.KindGauge:
			fmt.Fprintf(out, "%s%s %g\n", s.Name, lb.String(), s.Value)
		default:
			fmt.Fprintf(out, "%s%s %.0f\n", s.Name, lb.String(), s.Value)
		}
	}
}
