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
// sanitizer on netfilter queues), and a virtual-time network:
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
// RunFacebookCaseStudy, RunFig4, RunFlowSize and RunReplay.
package borderpatrol

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/audit"
	"borderpatrol/internal/contextmgr"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/sanitizer"
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
// static inline document. See DeploymentConfig.PolicySource.
type PolicySource = policystore.Source

// PolicyStoreStats snapshots a deployment's hot-reload policy store.
type PolicyStoreStats = policystore.Stats

// FailMode selects the degraded posture when the policy store cannot reach
// a fresh policy past its staleness deadline: keep serving the last-good
// rules (FailStatic), admit everything (FailOpen), or deny everything
// (FailClosed). See DeploymentConfig.PolicyMaxStale.
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
// (or DeploymentConfig.Faults) to subject the network to chaos; the
// zero-probability plan leaves the wire perfect.
type FaultPlan = netsim.FaultPlan

// FaultStats counts injected wire faults.
type FaultStats = netsim.FaultStats

// FilePolicySource watches a policy file: edits hot-swap atomically, a
// malformed edit keeps the last-good rules serving.
func FilePolicySource(path string) PolicySource {
	return policystore.NewFileSource(path)
}

// HTTPPolicySource polls a policy endpoint with ETag conditional fetches.
func HTTPPolicySource(url string) PolicySource {
	return policystore.NewHTTPSource(url, nil)
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
	name      string
	device    *android.Device
	manager   *contextmgr.Manager
	db        *analyzer.Database
	engine    *policy.Engine
	enforcer  *enforcer.Enforcer
	sanitizer *sanitizer.Sanitizer
	network   *netsim.Network
	gateway   *netsim.Gateway
	audit     *audit.Log
	policy    *policystore.Store
	context   *devctx.Source
	metrics   *metrics.Registry
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
// engine, and stands up the gateway pipeline. It is the single-gateway
// constructor; NewFleet runs the same wiring once per gateway on a shared
// network.
func New(cfg Config) (*Deployment, error) {
	// The network comes up before the policy store so the store's staleness
	// deadline can be measured on the same virtual clock everything else
	// runs on.
	network := netsim.NewNetwork(netsim.ModeTAP, netsim.DefaultLatencyModel())
	if cfg.Net.Faults != nil {
		network.InstallFaults(*cfg.Net.Faults)
	}
	d, err := build(cfg, network, "")
	if err != nil {
		return nil, err
	}
	// N=1: the gateway fronts every source (the zero-route special case of
	// the fleet's subnet routing), and the deployment's registry carries
	// the network-wide fault counters too.
	network.Gateway = d.gateway
	network.RegisterMetrics(d.metrics)
	if d.policy != nil {
		d.policy.Start()
	}
	return d, nil
}

// build assembles one deployment on the given (possibly shared) network:
// engine, policy store (loaded but not yet started), device, audit,
// enforcer, sanitizer, gateway, and a per-deployment metrics registry.
// The caller wires the gateway into the network (Gateway field or subnet
// route), registers network-wide metrics wherever they belong, and starts
// the store once construction can no longer fail.
func build(cfg Config, network *netsim.Network, name string) (*Deployment, error) {
	if cfg.Policy.Source != nil && strings.TrimSpace(cfg.Policy.Doc) != "" {
		return nil, errors.New("borderpatrol: PolicyConfig.Doc and PolicyConfig.Source are mutually exclusive")
	}
	var rules []Rule
	if strings.TrimSpace(cfg.Policy.Doc) != "" {
		var err error
		rules, err = policy.ParsePolicyString(cfg.Policy.Doc)
		if err != nil {
			return nil, fmt.Errorf("borderpatrol: %w", err)
		}
	}
	def := cfg.Policy.DefaultVerdict
	if def == 0 {
		def = policy.VerdictAllow
	}
	engine, err := policy.NewEngine(rules, def)
	if err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}

	var store *policystore.Store
	if cfg.Policy.Source != nil {
		storeCfg := policystore.Config{
			Source:       cfg.Policy.Source,
			Engine:       engine,
			Poll:         cfg.Policy.Poll,
			WatchTimeout: cfg.Policy.WatchTimeout,
			MaxStale:     cfg.Policy.MaxStale,
			FailMode:     cfg.Policy.FailMode,
		}
		if cfg.Policy.MaxStale > 0 {
			storeCfg.Now = network.Clock.Now
		}
		store, err = policystore.New(storeCfg)
		if err != nil {
			return nil, fmt.Errorf("borderpatrol: %w", err)
		}
		// The initial load is synchronous and fatal: there is no last-good
		// rule set to fall back to yet, and silently enforcing an empty
		// policy would fail open. The background poller starts only once
		// construction can no longer fail, so error returns leak nothing.
		if err := store.Load(); err != nil {
			return nil, fmt.Errorf("borderpatrol: initial policy: %w", err)
		}
	}

	hardened := true
	if cfg.Net.HardenedKernel != nil {
		hardened = *cfg.Net.HardenedKernel
	}
	addr := cfg.Net.DeviceAddr
	if !addr.IsValid() {
		addr = netip.MustParseAddr("10.66.0.2")
	}
	device := android.NewDevice(android.Config{
		Addr: addr,
		Kernel: kernel.Config{
			AllowUnprivilegedIPOptions: true,
			SetOptionsOncePerSocket:    hardened,
		},
		XposedInstalled: true,
	})
	manager := contextmgr.New(device)
	if err := device.LoadModule(manager); err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}

	db := analyzer.NewDatabase()
	auditLog := audit.NewWithConfig(audit.Config{
		Writer:   cfg.Audit.Writer,
		TailCap:  256,
		QueueCap: cfg.Audit.QueueCap,
	})
	// Every deployment carries a device-context source: risk rules read it
	// on the SYN/cache-miss path, and its generation counter keys cached
	// verdicts so context changes invalidate them. Without risk rules it is
	// inert (ContextActive gates all lookups).
	ctxSrc := devctx.NewSource(network.Clock)
	device.BindContext(ctxSrc)
	if cfg.Policy.InitialContext != nil {
		ctxSrc.Provision(addr, *cfg.Policy.InitialContext)
	}

	enfCfg := enforcer.Config{
		AllowUntagged: cfg.Policy.AllowUntagged,
		Audit:         auditLog,
		Context:       ctxSrc,
		Clock:         network.Clock,
	}
	if cfg.Flow.CacheSize >= 0 {
		ttl := cfg.Flow.TTL
		if ttl == 0 {
			ttl = time.Minute // virtual idle time; keep-alive flows stay warm
		}
		enfCfg.Flows = enforcer.NewFlowCache(flowtable.Config{
			Capacity: cfg.Flow.CacheSize, // 0 = flowtable default
			TTL:      ttl,
			Clock:    network.Clock,
			// Negative-cache admission guard: unique-flow floods (SYN
			// floods of crafted tags) are turned away at a per-shard
			// recent-miss ring instead of evicting live flows.
			MissRing: 64,
		})
	}
	enf := enforcer.New(enfCfg, db, engine)
	san := sanitizer.New(sanitizer.Config{})
	gw := netsim.NewGateway(netsim.GatewayConfig{
		Enforcer:  enf,
		Sanitizer: san,
		Workers:   cfg.Flow.Workers,
		Clock:     network.Clock,
	})

	reg := metrics.NewRegistry()
	enf.RegisterMetrics(reg)
	gw.RegisterMetrics(reg)
	auditLog.RegisterMetrics(reg)
	if store != nil {
		store.RegisterMetrics(reg)
	}

	return &Deployment{
		name:      name,
		device:    device,
		manager:   manager,
		db:        db,
		engine:    engine,
		enforcer:  enf,
		sanitizer: san,
		network:   network,
		gateway:   gw,
		audit:     auditLog,
		policy:    store,
		context:   ctxSrc,
		metrics:   reg,
	}, nil
}

// Metrics exposes the deployment's metrics registry: every component's
// counters, gauges and latency histograms, renderable with
// WritePrometheus or servable with metrics-package Handler.
func (d *Deployment) Metrics() *MetricsRegistry { return d.metrics }

// Close stops the policy store's hot-reload poller (when a PolicySource is
// configured), then flushes and stops the asynchronous audit pipeline
// (flush-on-close) and reports its sticky write error, if any.
func (d *Deployment) Close() error {
	if d.policy != nil {
		d.policy.Close()
	}
	return d.audit.Close()
}

// InstallApp analyzes the apk into the signature database (the Offline
// Analyzer step) and installs it in the device's work profile. Servers for
// every functionality endpoint are registered automatically.
func (d *Deployment) InstallApp(apk *APK, funcs []Functionality) (*App, error) {
	if err := d.db.Add(apk); err != nil {
		if !errors.Is(err, analyzer.ErrDuplicateEntry) {
			return nil, fmt.Errorf("borderpatrol: analyze: %w", err)
		}
	}
	app, err := d.device.InstallApp(apk, funcs, android.ProfileWork)
	if err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}
	for _, f := range funcs {
		addr := f.Op.Endpoint.Addr()
		if _, ok := d.network.ServerAt(addr); !ok {
			d.network.AddServer(&netsim.Server{
				Addr:    addr,
				Name:    f.Op.Host,
				Handler: httpsim.StaticHandler(httpsim.StaticPage()),
			})
		}
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
	rules, err := policy.ParsePolicyString(doc)
	if err != nil {
		return fmt.Errorf("borderpatrol: %w", err)
	}
	return d.engine.SetRules(rules)
}

// ReloadPolicy runs one synchronous policy-store reload cycle: fetch the
// backend, and — when the document changed — compile and atomically swap
// the rules. Reports whether a new rule set was applied. On error the
// last-good rules keep serving (the failure is visible in Stats). Returns
// an error when no PolicySource is configured.
func (d *Deployment) ReloadPolicy() (applied bool, err error) {
	if d.policy == nil {
		return false, errors.New("borderpatrol: no PolicySource configured")
	}
	return d.policy.Reload()
}

// PolicyStoreStats snapshots the hot-reload policy store (zero value when
// no PolicySource is configured).
func (d *Deployment) PolicyStoreStats() PolicyStoreStats {
	return d.policy.Stats()
}

// SetFaults installs (or replaces) a deterministic wire-fault plan on the
// deployment's network. The plan applies to gateway-bound traffic; VPN and
// mobile routes bypass it, like chaos injected on the corporate segment.
func (d *Deployment) SetFaults(plan FaultPlan) {
	d.network.InstallFaults(plan)
}

// ClearFaults restores the perfect wire (and the fault-free fast path).
func (d *Deployment) ClearFaults() {
	d.network.ClearFaults()
}

// FaultStats counts the faults injected so far (zero value when no plan
// was ever installed).
func (d *Deployment) FaultStats() FaultStats {
	return d.network.FaultStats()
}

// RestartGateway models a gateway crash and reboot: the flow-verdict
// cache, connection tracker and netfilter counters are discarded, so the
// next packet of every live flow re-resolves through the full pipeline.
// Control-plane state (policy engine, signature database) survives.
func (d *Deployment) RestartGateway() {
	d.gateway.Restart()
}

// SweepIdle runs one garbage-collection sweep over the gateway's per-flow
// tables: connections idle longer than idle leave the conntrack (their FIN
// was lost), and flow-cache entries idle past the TTL are reclaimed. Returns
// what each sweep freed.
func (d *Deployment) SweepIdle(idle time.Duration) (conns, flows int) {
	return d.gateway.GC(idle)
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
		// for every packet after a flow's first.
		deliveries = d.network.DeliverBatch(res.Packets)
	} else {
		deliveries = make([]netsim.Delivery, 0, len(res.Packets))
		for _, pkt := range res.Packets {
			deliveries = append(deliveries, d.network.DeliverRoute(pkt, route))
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
			if del.Enforcement.Decision != nil {
				o.Reason = del.Enforcement.Decision.Reason
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
	return d.audit.Tail()
}

// Device exposes the provisioned device (advanced scenarios and tests).
func (d *Deployment) Device() *android.Device { return d.device }

// Context exposes the deployment's device-context source. Update it (or
// let the device's Report* methods update it) to change what contextual
// risk rules see; every effective change bumps the context generation and
// invalidates the cached verdicts of affected flows on their next packet.
func (d *Deployment) Context() *ContextSource { return d.context }

// DeploymentStats aggregates component counters.
//
// Deprecated: the metrics registry is the canonical observability surface
// — Deployment.Metrics (one gateway) and Fleet.Metrics (every gateway,
// one scrape) expose the same counters and more, queryable by family and
// label and renderable as Prometheus text. DeploymentStats remains as a
// thin view computed from the registry snapshot (plus the few componental
// readings, like tagger counters, that have no metric family yet).
type DeploymentStats struct {
	SocketsTagged    uint64
	TagFailures      uint64
	PacketsProcessed uint64
	PacketsAccepted  uint64
	PacketsDropped   uint64
	PacketsCleansed  uint64
	// PolicyEvaluations counts packets that reached the compiled policy
	// engine (tagged, known app, decodable stack).
	PolicyEvaluations uint64
	// PolicyDefaultHits counts evaluations decided by the default verdict
	// rather than an explicit rule.
	PolicyDefaultHits uint64
	// FlowCacheHits counts packets answered by the per-flow verdict cache
	// (plus the batch drain's same-flow memo) without decoding anything.
	FlowCacheHits uint64
	// FlowCacheMisses counts packets that paid the full pipeline and
	// (re)filled the cache.
	FlowCacheMisses uint64
	// FlowCacheEvictions counts flows evicted under capacity pressure.
	FlowCacheEvictions uint64
	// FlowNegCacheDrops counts inserts turned away by the flow table's
	// negative-cache admission guard — the unique-flow-flood (SYN flood)
	// signature: first-seen flows hitting a full shard are noted in a
	// per-shard recent-miss ring instead of evicting a live flow.
	FlowNegCacheDrops uint64
	// FlowsLive is the number of flows currently cached.
	FlowsLive int
	// ConnsEstablished counts TCP connections the gateway's conntrack saw
	// open (SYN accepted); ConnsClosed counts FIN/RST teardowns — each of
	// which deleted the flow's cached verdict immediately. ConnsOpen is
	// the current tracked count.
	ConnsEstablished uint64
	ConnsClosed      uint64
	ConnsOpen        int
	// AuditRecorded counts decisions accepted by the async audit pipeline.
	AuditRecorded uint64
	// AuditDropped counts decisions shed under audit backpressure (bounded
	// queue full) — enforcement never blocks on the audit trail.
	AuditDropped uint64
	// AuditPending is the approximate number of audit entries not yet
	// drained to the writer/tail.
	AuditPending uint64
	// PolicyReloads counts applied policy swaps from the configured
	// PolicySource, including the initial load (0 without a source).
	PolicyReloads uint64
	// PolicyReloadFailures counts candidate policies rejected by a fetch,
	// parse, or compile error; each rejection left the last-good rules
	// serving.
	PolicyReloadFailures uint64
	// PolicyVersion identifies the active policy revision ("" without a
	// source).
	PolicyVersion string
	// PolicyLastError describes the most recent rejected candidate (""
	// after a clean reload).
	PolicyLastError string
	// PolicyDegraded reports whether the store is past its staleness
	// deadline and a fail-open/fail-closed override is active;
	// PolicyDegradedEnters counts how many times that happened, and
	// PolicyDegradedHits counts packets decided by the override.
	PolicyDegraded       bool
	PolicyDegradedEnters uint64
	PolicyDegradedHits   uint64
	// PolicyLastGoodAge is how long ago the store last completed a healthy
	// reload cycle (0 without a source).
	PolicyLastGoodAge time.Duration
	// ConnsTimeWait is the number of recently-closed connections parked in
	// the conntrack's TIME_WAIT analogue; ConnsDupCloses counts duplicate
	// FIN/RST deliveries absorbed there, ConnsLateSYNs counts SYNs that
	// arrived for a connection still in TIME_WAIT (not resurrected), and
	// ConnsIdleReclaimed counts half-open connections reclaimed by
	// SweepIdle after their FIN was lost.
	ConnsTimeWait      int
	ConnsDupCloses     uint64
	ConnsLateSYNs      uint64
	ConnsIdleReclaimed uint64
	// GatewayRestarts counts RestartGateway calls.
	GatewayRestarts uint64
	// WireFaults counts faults injected by the active FaultPlan (zero
	// value when none was installed).
	WireFaults FaultStats
}

// statsView indexes one registry snapshot by family name and label set so
// DeploymentStats fields read like metric queries.
type statsView map[string]float64

func snapshotView(reg *metrics.Registry) statsView {
	v := make(statsView)
	for _, s := range reg.Snapshot() {
		if s.Hist != nil {
			continue
		}
		key := s.Name
		for _, l := range s.Labels {
			key += ";" + l.Key + "=" + l.Value
		}
		v[key] += s.Value
	}
	return v
}

// u reads a counter series (0 when the family was never registered, e.g.
// flow caching disabled or no policy source).
func (v statsView) u(key string) uint64 { return uint64(v[key]) }

// Stats snapshots counters across the deployment. Everything with a
// metric family is computed from the same registry snapshot that a
// Prometheus scrape would see; only series-less readings (tagger and
// sanitizer counters, policy version strings) come from the components.
//
// Deprecated: prefer Deployment.Metrics (see DeploymentStats).
func (d *Deployment) Stats() DeploymentStats {
	cm := d.manager.Stats()
	sn := d.sanitizer.Stats()
	ps := d.policy.Stats()
	v := snapshotView(d.metrics)
	return DeploymentStats{
		SocketsTagged:        cm.SocketsTagged,
		TagFailures:          cm.TagFailures,
		PacketsProcessed:     v.u("bp_enforcer_verdicts_total;decision=allow") + v.u("bp_enforcer_verdicts_total;decision=drop"),
		PacketsAccepted:      v.u("bp_enforcer_verdicts_total;decision=allow"),
		PacketsDropped:       v.u("bp_enforcer_verdicts_total;decision=drop"),
		PacketsCleansed:      sn.Cleansed,
		PolicyEvaluations:    v.u("bp_policy_evaluations_total"),
		PolicyDefaultHits:    v.u("bp_policy_default_hits_total"),
		FlowCacheHits:        v.u("bp_flowtable_hits_total") + v.u("bp_enforcer_batch_memo_hits_total"),
		FlowCacheMisses:      v.u("bp_flowtable_misses_total"),
		FlowCacheEvictions:   v.u("bp_flowtable_evictions_total"),
		FlowNegCacheDrops:    v.u("bp_flowtable_admission_drops_total"),
		FlowsLive:            int(v["bp_flowtable_live"]),
		ConnsEstablished:     v.u("bp_conntrack_transitions_total;kind=established"),
		ConnsClosed:          v.u("bp_conntrack_transitions_total;kind=closed"),
		ConnsOpen:            int(v["bp_conntrack_connections;state=open"]),
		AuditRecorded:        v.u("bp_audit_recorded_total"),
		AuditDropped:         v.u("bp_audit_dropped_total"),
		AuditPending:         v.u("bp_audit_queue_depth"),
		PolicyReloads:        v.u("bp_policy_reloads_total;outcome=applied"),
		PolicyReloadFailures: v.u("bp_policy_reloads_total;outcome=failed"),
		PolicyVersion:        ps.Version,
		PolicyLastError:      ps.LastError,
		PolicyDegraded:       ps.Degraded,
		PolicyDegradedEnters: v.u("bp_policy_degraded_enters_total"),
		PolicyDegradedHits:   v.u("bp_policy_degraded_hits_total"),
		PolicyLastGoodAge:    ps.LastGoodAge,
		ConnsTimeWait:        int(v["bp_conntrack_connections;state=time_wait"]),
		ConnsDupCloses:       v.u("bp_conntrack_transitions_total;kind=dup_close"),
		ConnsLateSYNs:        v.u("bp_conntrack_transitions_total;kind=late_syn"),
		ConnsIdleReclaimed:   v.u("bp_conntrack_transitions_total;kind=idle_reclaimed"),
		GatewayRestarts:      v.u("bp_gateway_restarts_total"),
		WireFaults:           d.network.FaultStats(),
	}
}

// Experiment entry points (one per paper table/figure). See EXPERIMENTS.md
// for the recorded paper-vs-measured comparison.
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
	// RunReloadUnderLoad stress-tests central reconfiguration (§IV): policy
	// swaps under saturating traffic, proving packets never observe a torn
	// rule set and malformed candidates keep the last-good rules serving.
	RunReloadUnderLoad = experiments.RunReloadUnderLoad
	// RunDNSResolution pushes tagged DNS-over-UDP queries through the
	// gateway end to end — the transport layer's first non-HTTP workload.
	RunDNSResolution = experiments.RunDNSResolution
	// RunSoak drives hours of virtual-time churn — wire faults, policy
	// swaps with malformed candidates, fail-closed outages, gateway
	// restarts, idle GC — and asserts bounded memory, zero leaks, and the
	// fail-safe invariant (no fault sequence converts a deny into a
	// delivery).
	RunSoak = experiments.RunSoak
	// RunPipelineBench measures the instrumented enforcement paths and
	// scrapes their latency histograms (machine-readable via WriteJSON).
	RunPipelineBench = experiments.RunPipelineBench
	// RunFleetBench drives the multi-gateway fleet workload: N sharded
	// gateways, pooled devices, mixed HTTP+DNS traffic, a mid-run
	// fleet-wide policy push, and leak accounting (machine-readable via
	// WriteJSON — BENCH_fleet.json).
	RunFleetBench = experiments.RunFleet
)

// Experiment configuration re-exports.
type (
	// Fig3Config parameterizes the corpus experiment.
	Fig3Config = experiments.Fig3Config
	// ValidationConfig parameterizes the validation experiment.
	ValidationConfig = experiments.ValidationConfig
	// Fig4Options sizes the latency stress test.
	Fig4Options = experiments.Fig4Options
	// ReloadConfig parameterizes the reload-under-load experiment.
	ReloadConfig = experiments.ReloadConfig
	// ReloadResult reports the reload-under-load experiment.
	ReloadResult = experiments.ReloadResult
	// DNSResolutionResult reports the DNS-over-UDP workload.
	DNSResolutionResult = experiments.DNSResolutionResult
	// SoakConfig parameterizes the chaos soak harness.
	SoakConfig = experiments.SoakConfig
	// SoakResult reports a soak run (Check asserts its invariants).
	SoakResult = experiments.SoakResult
	// SoakSnapshot is one in-run resource reading of a soak run.
	SoakSnapshot = experiments.SoakSnapshot
	// PipelineBenchConfig sizes the pipeline benchmark.
	PipelineBenchConfig = experiments.PipelineBenchConfig
	// PipelineBenchResult reports the pipeline benchmark.
	PipelineBenchResult = experiments.PipelineBenchResult
	// FleetRunConfig sizes the fleet benchmark (RunFleetBench).
	FleetRunConfig = experiments.FleetRunConfig
	// FleetBenchResult reports the fleet benchmark (Check asserts zero
	// policy leaks and one-watch-round propagation).
	FleetBenchResult = experiments.FleetBenchResult
	// FleetGatewayReport is one gateway's slice of a fleet benchmark.
	FleetGatewayReport = experiments.FleetGatewayReport
)

// Default experiment configurations.
var (
	DefaultFig3Config       = experiments.DefaultFig3Config
	DefaultValidationConfig = experiments.DefaultValidationConfig
	DefaultFig4Options      = experiments.DefaultFig4Options
	DefaultReloadConfig     = experiments.DefaultReloadConfig
	DefaultSoakConfig       = experiments.DefaultSoakConfig
	DefaultFleetRunConfig   = experiments.DefaultFleetRunConfig
)
