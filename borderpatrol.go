// Package borderpatrol is a faithful Go reproduction of "BORDERPATROL:
// Securing BYOD using fine-grained contextual information" (Zungur,
// Suarez-Tangil, Stringhini, Egele — DSN 2019).
//
// BorderPatrol tags every packet leaving a BYOD-provisioned Android device
// with a compressed representation of the Java call stack that created the
// socket, carried in the IPv4 IP_OPTIONS header field. An on-network
// Policy Enforcer decodes the tag against a signature database produced by
// an Offline Analyzer and enforces fine-grained rules — per app function,
// not per IP or per app — before a Packet Sanitizer strips the tag from
// conforming traffic at the corporate border.
//
// This package is the public facade over the full system. A Deployment
// wires together the simulated provisioned device (patched kernel,
// Xposed-style hooks, Context Manager), the enterprise gateway (enforcer +
// sanitizer, with the paper's NFQUEUE hop charged in virtual time), and a
// virtual-time network:
//
//	dep, err := borderpatrol.New(borderpatrol.Config{
//		Policy: borderpatrol.PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`},
//	})
//	...
//	app, err := dep.InstallApp(apk, functionality)
//	verdicts, err := dep.Exercise(app, "analytics")
//
// A Fleet scales the same wiring out to N gateways on one network, each
// fronting its own subnet and enforcing only its policy groups (see
// NewFleet); a single Deployment is the N=1 special case.
//
// The reproduction harnesses for every table and figure in the paper's
// evaluation live behind RunFig3, RunValidation, RunCloudCaseStudy,
// RunFacebookCaseStudy, RunFig4, RunFlowSize and RunReplay; README.md
// records the paper-vs-measured comparison.
package borderpatrol

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/audit"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
)

// Re-exported core types. The aliases give external importers access to
// the full policy grammar, app model and experiment results without
// reaching into internal packages.
type (
	// Rule is one policy rule {[action][level][target]}.
	Rule = policy.Rule
	// Action is a rule action (Allow or Deny).
	Action = policy.Action
	// Level is an enforcement level (Hash < Library < Class < Method).
	Level = policy.Level
	// Verdict is a policy decision for one packet.
	Verdict = policy.Verdict
	// APK is a simulated Android application package.
	APK = dex.APK
	// DexFile is one classes.dex within an APK.
	DexFile = dex.File
	// ClassDef is a class definition inside a dex file.
	ClassDef = dex.ClassDef
	// MethodDef is a method definition with debug line info.
	MethodDef = dex.MethodDef
	// Signature is a smali-style method signature.
	Signature = dex.Signature
	// Frame is one Java stack-trace frame.
	Frame = dex.Frame
	// Functionality is one user-reachable app behaviour.
	Functionality = android.Functionality
	// NetOp is the network side effect of a functionality.
	NetOp = android.NetOp
	// App is an installed application on the provisioned device.
	App = android.App
	// Packet is an IPv4 packet.
	Packet = ipv4.Packet
	// GeneratedApp is a synthetic corpus entry.
	GeneratedApp = apkgen.App
	// CorpusConfig controls corpus generation.
	CorpusConfig = apkgen.Config
	// DeviceContext is the per-device half of the contextual policy
	// dimension: network trust class, posture, apparent travel velocity.
	DeviceContext = policy.DeviceContext
	// NetworkClass is a device's network trust class.
	NetworkClass = policy.NetworkClass
	// ContextSource is a deployment's device-context store: per-device
	// context keyed by address, plus the generation counter the enforcer
	// folds into its flow-cache key so any context change invalidates the
	// affected cached verdicts. See Deployment.Context.
	ContextSource = devctx.Source
)

// Policy grammar constants.
const (
	Allow = policy.Allow
	Deny  = policy.Deny

	LevelHash    = policy.LevelHash
	LevelLibrary = policy.LevelLibrary
	LevelClass   = policy.LevelClass
	LevelMethod  = policy.LevelMethod

	VerdictAllow = policy.VerdictAllow
	VerdictDrop  = policy.VerdictDrop

	// Network trust classes for contextual risk rules
	// ({[risk][network]["trusted"][-30]} and friends).
	NetUnknown  = policy.NetUnknown
	NetTrusted  = policy.NetTrusted
	NetCellular = policy.NetCellular
)

// ParseNetworkClass parses a network trust class keyword
// ("trusted", "cellular", "unknown").
func ParseNetworkClass(s string) (NetworkClass, error) {
	return policy.ParseNetworkClass(s)
}

// ParsePolicy parses a policy document in the paper's grammar (§IV-B).
func ParsePolicy(doc string) ([]Rule, error) {
	return policy.ParsePolicyString(doc)
}

// PolicySource is a pluggable policy backend feeding a deployment's engine:
// a file with hot reload, an HTTP endpoint with conditional fetches, or a
// static inline document. See PolicyConfig.Source.
type PolicySource = policystore.Source

// FailMode selects the degraded posture when the policy store cannot reach
// a fresh policy past its staleness deadline: keep serving the last-good
// rules (FailStatic), admit everything (FailOpen), or deny everything
// (FailClosed). See PolicyConfig.MaxStale.
type FailMode = policystore.FailMode

// Fail modes.
const (
	FailStatic = policystore.FailStatic
	FailOpen   = policystore.FailOpen
	FailClosed = policystore.FailClosed
)

// ParseFailMode parses a fail-mode name ("static", "open"/"fail-open",
// "closed"/"fail-closed"); the empty string selects FailStatic.
func ParseFailMode(s string) (FailMode, error) {
	return policystore.ParseFailMode(s)
}

// FaultPlan is a deterministic, seeded wire-fault specification: per-packet
// probabilities for drop, duplication, reordering, virtual-time delay,
// payload corruption and truncation. Install one with Deployment.SetFaults
// (or NetConfig.Faults) to subject the network to chaos; the
// zero-probability plan leaves the wire perfect.
type FaultPlan = netsim.FaultPlan

// FilePolicySource watches a policy file: edits hot-swap atomically, a
// malformed edit keeps the last-good rules serving.
func FilePolicySource(path string) PolicySource {
	return policystore.NewFileSource(path)
}

// HTTPPolicySource polls a policy endpoint with ETag conditional fetches.
func HTTPPolicySource(url string) PolicySource {
	return policystore.NewHTTPSource(url)
}

// StaticPolicySource wraps an inline policy document as a PolicySource.
func StaticPolicySource(doc string) PolicySource {
	return policystore.NewStaticSource(doc)
}

// FormatPolicy renders rules back into a parseable document.
func FormatPolicy(rules []Rule) string {
	return policy.FormatPolicy(rules)
}

// GenerateCorpus builds the synthetic Play-store corpus (§VI-A stand-in).
func GenerateCorpus(cfg CorpusConfig) ([]*GeneratedApp, error) {
	return apkgen.Generate(cfg)
}

// DefaultCorpusConfig is the calibrated 2,000-app configuration.
func DefaultCorpusConfig() CorpusConfig {
	return apkgen.DefaultConfig()
}

// Deployment is a running BorderPatrol installation: one provisioned
// device, the signature database, and an enterprise gateway on a network.
// In a Fleet the network is shared between sibling deployments and each
// owns just its gateway; stand-alone, the deployment owns both.
type Deployment struct {
	name string
	tb   *experiments.Testbed
}

// MetricsRegistry holds every component's registered instruments and
// renders them in the Prometheus text format. See Deployment.Metrics.
type MetricsRegistry = metrics.Registry

// Route selects how packets reach the network (paper §VII): on-premises
// through the gateway, off-premises work traffic over VPN, personal
// traffic over the mobile network.
type Route = netsim.Route

// Routes.
const (
	RouteDirect = netsim.RouteDirect
	RouteVPN    = netsim.RouteVPN
	RouteMobile = netsim.RouteMobile
)

// AuditEntry is one enforcement decision record.
type AuditEntry = audit.Entry

// New provisions a device with the Context Manager, builds the policy
// engine, and stands up the gateway pipeline on its own network — the same
// assembly the experiments and the benchmark run. It is the single-gateway
// constructor; NewFleet assembles one gateway per spec on a shared network.
func New(cfg Config) (*Deployment, error) {
	tb, err := experiments.NewTestbed(nil, testbedConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}
	return &Deployment{tb: tb}, nil
}

// testbedConfig maps a facade Config onto the gateway assembly, which
// judges it. The staleness deadline runs on the network's virtual clock,
// like everything else.
func testbedConfig(cfg Config) experiments.TestbedConfig {
	return experiments.TestbedConfig{
		Doc:               cfg.Policy.Doc,
		DefaultVerdict:    cfg.Policy.DefaultVerdict,
		EnforcementOn:     true,
		AllowUntagged:     cfg.Policy.AllowUntagged,
		GatewayWorkers:    cfg.Flow.Workers,
		AuditWriter:       cfg.Audit.Writer,
		PolicySource:      cfg.Policy.Source,
		PolicyPoll:        cfg.Policy.Poll,
		PolicyMaxStale:    cfg.Policy.MaxStale,
		PolicyFailMode:    cfg.Policy.FailMode,
		PolicyVirtualTime: true,
		Faults:            cfg.Net.Faults,
		FlowTTL:           cfg.Flow.TTL,
		DeviceAddr:        cfg.Net.DeviceAddr,
	}
}

// Metrics exposes the deployment's metrics registry: every component's
// counters, gauges and latency histograms, renderable with
// WritePrometheus or servable with metrics-package Handler.
func (d *Deployment) Metrics() *MetricsRegistry { return d.tb.Metrics }

// Close stops the policy store's hot-reload poller (when a PolicySource is
// configured), then flushes and stops the asynchronous audit pipeline
// (flush-on-close) and reports its sticky write error, if any.
func (d *Deployment) Close() error { return d.tb.Close() }

// InstallApp analyzes the apk into the signature database (the Offline
// Analyzer step) and installs it in the device's work profile. Servers for
// every functionality endpoint are registered automatically.
func (d *Deployment) InstallApp(apk *APK, funcs []Functionality) (*App, error) {
	app, err := d.tb.InstallApp(apk, funcs)
	if err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}
	return app, nil
}

// InstallGenerated installs a corpus-generated app.
func (d *Deployment) InstallGenerated(ga *GeneratedApp) (*App, error) {
	return d.InstallApp(ga.APK, ga.Functionalities)
}

// SetPolicy replaces the active rules (central reconfiguration, §IV). With
// a PolicySource configured, prefer updating the backend: the source's
// next reload overrides anything set here.
func (d *Deployment) SetPolicy(doc string) error {
	set, err := policy.Compile(doc)
	if err != nil {
		return fmt.Errorf("borderpatrol: %w", err)
	}
	d.tb.Engine.Publish(set)
	return nil
}

// ReloadPolicy runs one synchronous policy-store reload cycle: fetch the
// backend, and — when the document changed — compile and atomically swap
// the rules. Reports whether a new rule set was applied. On error the
// last-good rules keep serving (the failure is visible in PolicyStatus and
// the bp_policy_reloads_total{outcome="failed"} series). Returns an error
// when no PolicySource is configured.
func (d *Deployment) ReloadPolicy() (applied bool, err error) {
	if d.tb.Policy == nil {
		return false, errors.New("borderpatrol: no Policy.Source configured")
	}
	return d.tb.Policy.Reload()
}

// PolicyStatus reports the hot-reload policy store's active revision ("" before
// the first load) and the error that rejected the last candidate ("" after a
// clean cycle). Both are empty when no PolicySource is configured; the
// store's counts are in Metrics.
func (d *Deployment) PolicyStatus() (version, lastError string) {
	if d.tb.Policy == nil {
		return "", ""
	}
	return d.tb.Policy.Version(), d.tb.Policy.LastError()
}

// SetFaults installs (or replaces) a deterministic wire-fault plan on the
// deployment's network. The plan applies to gateway-bound traffic; VPN and
// mobile routes bypass it, like chaos injected on the corporate segment.
// A fleet's gateways share one network, so on a fleet member it arms the
// wire for every gateway of the fleet.
func (d *Deployment) SetFaults(plan FaultPlan) {
	d.tb.Network.InstallFaults(plan)
}

// ClearFaults restores the perfect wire (and the fault-free fast path).
func (d *Deployment) ClearFaults() {
	d.tb.Network.ClearFaults()
}

// RestartGateway models a gateway crash and reboot: the flow-verdict
// cache and connection tracker are discarded, so the next packet of every
// live flow re-resolves through the full pipeline. Control-plane state
// (policy engine, signature database) survives, and so do the counts in
// Metrics (bp_gateway_restarts_total marks the reboot).
func (d *Deployment) RestartGateway() {
	d.tb.Gateway.Restart()
}

// SweepIdle runs one garbage-collection sweep over the gateway's per-flow
// tables: connections idle longer than idle leave the conntrack (their FIN
// was lost), and flow-cache entries that can never answer again — idle past
// the TTL, or cached under a policy, database or device-context generation
// that has since moved — are reclaimed. Returns what each sweep freed.
func (d *Deployment) SweepIdle(idle time.Duration) (conns, flows int) {
	return d.tb.Gateway.GC(idle)
}

// Outcome reports what happened to one packet an app functionality sent.
type Outcome struct {
	// Delivered reports whether the packet reached its destination.
	Delivered bool
	// DropStage names where it died ("gateway", "border-router", ...).
	DropStage string
	// Stack is the decoded context when the enforcer inspected the packet.
	Stack []Signature
	// Reason is the policy engine's explanation, when it ran.
	Reason string
}

// Exercise invokes an app functionality end to end — device, tagging,
// gateway, border — and returns one Outcome per emitted packet.
func (d *Deployment) Exercise(app *App, functionality string) ([]Outcome, error) {
	return d.ExerciseVia(app, functionality, RouteDirect)
}

// ExerciseVia is Exercise over an explicit route: RouteDirect for
// on-premises traffic, RouteVPN for off-premises work traffic tunnelled to
// the gateway, RouteMobile for traffic bypassing the corporate network.
func (d *Deployment) ExerciseVia(app *App, functionality string, route Route) ([]Outcome, error) {
	res, err := app.Invoke(functionality)
	if err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}
	var deliveries []netsim.Delivery
	if route == RouteDirect {
		// On-premises bursts ride the batched per-core gateway drain: one
		// queue transition for the invocation's packets, flow-cache hits
		// for every packet after a flow's first. Sibling fleet deployments
		// share one network, so the burst is written into storage of this
		// call's own.
		deliveries = d.tb.Network.DeliverInto(new(netsim.Batch), res.Packets)
	} else {
		deliveries = make([]netsim.Delivery, 0, len(res.Packets))
		for _, pkt := range res.Packets {
			deliveries = append(deliveries, d.tb.Network.DeliverRoute(pkt, route))
		}
	}
	out := make([]Outcome, 0, len(res.Packets))
	for _, del := range deliveries {
		o := Outcome{Delivered: del.Delivered}
		if !del.Delivered {
			o.DropStage = del.Stage.String()
		}
		if del.Enforcement != nil {
			// The enforcer records each decision on the audit pipeline
			// itself (per packet on the scalar path, once per burst on the
			// batched path); here we only surface the outcome.
			// The enforcer's Stack is the slice its caches keep serving —
			// for this flow and every other one carrying the tag — so the
			// caller gets a copy of its own to sort or edit.
			o.Stack = slices.Clone(del.Enforcement.Stack)
			if a := del.Enforcement.Access; a != nil {
				o.Reason = a.Decide(del.Enforcement.Risk).Reason()
			} else {
				o.Reason = del.Enforcement.Cause.String()
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// AuditTail returns the most recent enforcement audit entries (flushing
// the asynchronous pipeline first, so everything recorded is visible).
func (d *Deployment) AuditTail() []AuditEntry {
	return d.tb.Audit.Tail()
}

// Device exposes the provisioned device (advanced scenarios and tests).
func (d *Deployment) Device() *android.Device { return d.tb.Device }

// Context exposes the deployment's device-context source. Update it (or
// let the device's Report* methods update it) to change what contextual
// risk rules see; every effective change bumps the context generation and
// invalidates the cached verdicts of affected flows on their next packet.
func (d *Deployment) Context() *ContextSource { return d.tb.Context }

// Experiment entry points (one per paper table/figure). README.md records
// the paper-vs-measured comparison.
var (
	// RunFig3 reproduces Figure 3 (IoI histogram) and the §VI-B stats.
	RunFig3 = experiments.RunFig3
	// RunValidation reproduces the §VI-B1 tracker-blocking validation.
	RunValidation = experiments.RunValidation
	// RunCloudCaseStudy reproduces the §VI-C Dropbox/Box comparison.
	RunCloudCaseStudy = experiments.RunCloudCaseStudy
	// RunFacebookCaseStudy reproduces the §VI-C SolCalendar comparison.
	RunFacebookCaseStudy = experiments.RunFacebookCaseStudy
	// RunFig4 reproduces the Figure 4 latency series.
	RunFig4 = experiments.RunFig4
	// RunKeepAliveAmortization reproduces the §VI-D amortization argument.
	RunKeepAliveAmortization = experiments.RunKeepAliveAmortization
	// RunFlowSize reproduces the §VII flow-size and evasion analysis.
	RunFlowSize = experiments.RunFlowSize
	// RunReplay reproduces the §VII tag-replay mitigation.
	RunReplay = experiments.RunReplay
	// RunDNSResolution pushes tagged DNS-over-UDP queries through the
	// gateway end to end — the transport layer's first non-HTTP workload.
	RunDNSResolution = experiments.RunDNSResolution
	// RunScenario runs a scenario — a list of epochs, each a traffic mix
	// plus policy swaps, malformed candidates, backend outages, restarts,
	// context flips, clock advances or idle-GC sweeps — and checks every
	// verdict against the reference model; ScenarioResult.Check holds the
	// run to the named invariants.
	RunScenario = experiments.RunScenario
	// SoakScenario is the chaos soak: hours of virtual-time churn over a
	// faulty wire (epochs, swaps).
	SoakScenario = experiments.SoakScenario
	// ReloadScenario is reload under load (§IV): policy swaps racing
	// saturating traffic, malformed candidates among them.
	ReloadScenario = experiments.ReloadScenario
	// ContextScenario is the contextual-policy run over a pooled device
	// population: risk groups, context flips and a time window.
	ContextScenario = experiments.ContextScenario
	// FleetScenario is the multi-gateway run: N sharded gateways behind one
	// policy hub, pooled devices sending mixed HTTP+DNS traffic, and two
	// fleet-wide pushes, every verdict checked against its gateway's
	// reference model and every push held to its watch-round cost.
	FleetScenario = experiments.FleetScenario
)

// Experiment configuration re-exports.
type (
	// Fig3Config parameterizes the corpus experiment.
	Fig3Config = experiments.Fig3Config
	// ValidationConfig parameterizes the validation experiment.
	ValidationConfig = experiments.ValidationConfig
	// Fig4Options sizes the latency stress test.
	Fig4Options = experiments.Fig4Options
	// DNSResolutionResult reports the DNS-over-UDP workload.
	DNSResolutionResult = experiments.DNSResolutionResult
	// Scenario is a world and a list of epochs (RunScenario).
	Scenario = experiments.Scenario
	// ScenarioResult reports a scenario run (Check asserts its named
	// checks).
	ScenarioResult = experiments.ScenarioResult
)

// Default experiment configurations.
var (
	DefaultFig3Config       = experiments.DefaultFig3Config
	DefaultValidationConfig = experiments.DefaultValidationConfig
	DefaultFig4Options      = experiments.DefaultFig4Options
)
