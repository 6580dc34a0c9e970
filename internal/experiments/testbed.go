// Package experiments contains one reproduction harness per table and
// figure in the paper's evaluation (§VI) plus the discussion's empirical
// claims (§VII). Each experiment assembles the full system — provisioned
// device, Context Manager, gateway with Policy Enforcer and Packet
// Sanitizer, simulated enterprise network — runs the paper's workload, and
// returns a typed result with a paper-style textual rendering.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/audit"
	"borderpatrol/internal/contextmgr"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/transport"
)

// Testbed is a fully assembled BorderPatrol deployment.
type Testbed struct {
	Device   *android.Device
	Manager  *contextmgr.Manager
	DB       *analyzer.Database
	Engine   *policy.Engine
	Enforcer *enforcer.Enforcer
	Network  *netsim.Network
	// Gateway is this deployment's enforcement point. NewTestbed also makes
	// it Network.Gateway; on a shared fleet network it is reached through a
	// subnet route instead.
	Gateway *netsim.Gateway
	// Context is the gateway's device-context source (always built, wired
	// into the enforcer when enforcement is on). The provisioned device
	// reports into it; device pools can bind to it too.
	Context *devctx.Source
	// Audit is the gateway's asynchronous enforcement audit trail (only
	// wired when enforcement is on).
	Audit *audit.Log
	// Policy is the hot-reload policy store (nil unless the testbed was
	// built with a PolicySource).
	Policy *policystore.Store
	// Apps are the installed apps in install order.
	Apps []*android.App
	// Corpus preserves the generator metadata per installed corpus app.
	Corpus []*apkgen.App
	// Metrics is the registry every assembled component registered its
	// instruments on; render it with WritePrometheus or walk Snapshot.
	Metrics *metrics.Registry
}

// TestbedConfig assembles a deployment.
type TestbedConfig struct {
	// Doc is the initial policy document, compiled and published by
	// Assemble. Doc, Rules and PolicySource are mutually exclusive.
	Doc string
	// Rules is the initial policy as rules built in code (may be nil).
	Rules []policy.Rule
	// DefaultVerdict is the engine default (VerdictAllow for observation
	// phases, VerdictDrop for whitelist postures).
	DefaultVerdict policy.Verdict
	// EnforcementOn wires the Policy Enforcer into the gateway; when false
	// the gateway only sanitizes (observation / baseline runs).
	EnforcementOn bool
	// AllowUntagged admits untagged packets at the enforcer.
	AllowUntagged bool
	// DisableFlowCache turns off per-flow verdict caching (on by default
	// when enforcement is on). Its one user is the repository benchmark's
	// oracle (benchmark/setup.go), an uncached gateway every packet's fate
	// is checked against.
	DisableFlowCache bool
	// GatewayWorkers sizes the batched per-core queue drain (0 = GOMAXPROCS).
	GatewayWorkers int
	// AuditWriter receives the enforcement audit as JSON lines (nil keeps
	// only counters and the in-memory tail). Gateways sharing one writer
	// write to it concurrently.
	AuditWriter io.Writer
	// PolicySource feeds the engine from an external policy backend (file,
	// HTTP, static) instead of Doc or Rules. The initial document loads
	// synchronously — a broken initial policy fails the assembly — and later
	// changes hot-swap atomically with last-good fallback.
	PolicySource policystore.Source
	// PolicyPoll starts background hot reload at this interval when > 0
	// (manual Testbed.Policy.Reload() otherwise); for a watch-capable
	// source it is the backoff base after a failed watch round. Requires
	// PolicySource: Assemble rejects it without one.
	PolicyPoll time.Duration
	// PolicyWatchTimeout bounds one watch park of a watch-capable
	// PolicySource (0 selects the store default).
	PolicyWatchTimeout time.Duration
	// Faults arms the network with a deterministic fault plan at
	// construction (nil leaves the wire perfect). NewTestbed only.
	Faults *netsim.FaultPlan
	// FlowTTL is the flow-verdict cache's idle timeout in virtual time (an
	// entry expires that long after its flow's last packet); zero selects
	// one minute. Assemble rejects a negative one.
	FlowTTL time.Duration
	// PolicyMaxStale enables the policy store's staleness deadline, and
	// PolicyFailMode selects the degraded posture past it. Each needs
	// PolicySource and the other (FailStatic takes no deadline).
	PolicyMaxStale time.Duration
	PolicyFailMode policystore.FailMode
	// PolicyVirtualTime drives the staleness clock from the network's
	// virtual clock instead of wall time, so harnesses can age the policy
	// by hours in microseconds.
	PolicyVirtualTime bool
	// DisableCapture has no effect: the network keeps no packet-capture
	// logs any more. It stays because the repository benchmark's testbed
	// configuration (benchmark/setup.go) still sets it.
	DisableCapture bool
	// DeviceAddr is the provisioned device's address (zero selects
	// 10.66.0.2).
	DeviceAddr netip.Addr
	// UnhardenedKernel provisions the device with the prototype kernel:
	// IP_OPTIONS may be set more than once per socket, so an app can replay
	// another socket's tag (§VII).
	UnhardenedKernel bool
}

// NewTestbed builds a network, assembles a gateway on it as the network's
// enforcement point, installs every corpus app (with one server per
// endpoint the corpus references), and starts the policy store.
func NewTestbed(corpus []*apkgen.App, cfg TestbedConfig) (*Testbed, error) {
	network := netsim.NewNetwork(netsim.ModeTAP)
	if cfg.Faults != nil {
		network.InstallFaults(*cfg.Faults)
	}
	tb, err := Assemble(network, cfg)
	if err != nil {
		return nil, err
	}
	network.Gateway = tb.Gateway
	network.RegisterMetrics(tb.Metrics)
	tb.Corpus = corpus
	for _, ga := range corpus {
		if _, err := tb.InstallApp(ga.APK, ga.Functionalities); err != nil {
			tb.Close()
			return nil, err
		}
	}
	if tb.Policy != nil {
		tb.Policy.Start()
	}
	return tb, nil
}

// Assemble is the one place the gateway pipeline is wired: policy engine
// (and store, loaded but not started), provisioned device with the Context
// Manager, device-context source, audit log, flow table, enforcer,
// sanitizer, gateway, and a registry holding every component's series.
// It builds on the network it is given and leaves three things to the
// caller: routing traffic to tb.Gateway (Network.Gateway or a subnet
// route), registering the network-wide series where they belong, and
// starting tb.Policy once construction can no longer fail. It judges the
// configuration, but for the fail posture (the store's), in field paths.
func Assemble(network *netsim.Network, cfg TestbedConfig) (*Testbed, error) {
	switch {
	case cfg.PolicySource != nil && (cfg.Doc != "" || len(cfg.Rules) > 0), cfg.Doc != "" && len(cfg.Rules) > 0:
		return nil, errors.New("Policy.Doc and Policy.Source are mutually exclusive")
	case cfg.PolicySource == nil && (cfg.PolicyPoll != 0 || cfg.PolicyMaxStale != 0 || cfg.PolicyFailMode != policystore.FailStatic):
		return nil, errors.New("Policy.Poll, Policy.MaxStale and Policy.FailMode require Policy.Source")
	case cfg.FlowTTL < 0:
		return nil, fmt.Errorf("Flow.TTL %v is negative", cfg.FlowTTL)
	}
	defV := cfg.DefaultVerdict
	if defV == 0 {
		defV = policy.VerdictAllow
	}
	engine, err := policy.NewEngine(cfg.Rules, defV)
	if err != nil {
		return nil, err
	}
	if cfg.Doc != "" {
		set, err := policy.Compile(cfg.Doc)
		if err != nil {
			return nil, fmt.Errorf("Policy.Doc: %w", err)
		}
		engine.Publish(set)
	}
	tb := &Testbed{Network: network, Engine: engine, DB: analyzer.NewDatabase()}

	if cfg.PolicySource != nil {
		storeCfg := policystore.Config{
			Source:       cfg.PolicySource,
			Engine:       engine,
			Poll:         cfg.PolicyPoll,
			WatchTimeout: cfg.PolicyWatchTimeout,
			MaxStale:     cfg.PolicyMaxStale,
			FailMode:     cfg.PolicyFailMode,
		}
		if cfg.PolicyVirtualTime {
			storeCfg.Now = network.Clock.Now
		}
		store, err := policystore.New(storeCfg)
		if err != nil {
			return nil, err
		}
		// The initial load is fatal: there is no last-good rule set to fall
		// back to yet, and enforcing an empty policy would fail open.
		if err := store.Load(); err != nil {
			return nil, fmt.Errorf("initial policy from Policy.Source: %w", err)
		}
		tb.Policy = store
	}

	addr := cfg.DeviceAddr
	if !addr.IsValid() {
		addr = netip.MustParseAddr("10.66.0.2")
	}
	tb.Device = android.NewDevice(android.Config{
		Addr: addr,
		Kernel: kernel.Config{
			AllowUnprivilegedIPOptions: true,
			SetOptionsOncePerSocket:    !cfg.UnhardenedKernel,
		},
		XposedInstalled: true,
	})
	tb.Manager = contextmgr.New(tb.Device)
	if err := tb.Device.LoadModule(tb.Manager); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Risk rules read the context source on the miss path, and its stripe
	// versions key cached verdicts; without risk rules it is inert.
	tb.Context = devctx.NewSource(network.Clock)
	tb.Device.BindContext(tb.Context)

	san := sanitizer.New()
	gwCfg := netsim.GatewayConfig{
		Sanitizer: san,
		Workers:   cfg.GatewayWorkers,
		Clock:     network.Clock,
	}
	if cfg.EnforcementOn {
		tb.Audit = audit.New(cfg.AuditWriter, 256)
		enfCfg := enforcer.Config{
			AllowUntagged: cfg.AllowUntagged,
			Audit:         tb.Audit,
			Context:       tb.Context,
		}
		if !cfg.DisableFlowCache {
			enfCfg.Flows = enforcer.NewFlowCache(flowtable.Config{Clock: network.Clock, TTL: cfg.FlowTTL})
		}
		tb.Enforcer = enforcer.New(enfCfg, tb.DB, engine)
		gwCfg.Enforcer = tb.Enforcer
	}
	tb.Gateway = netsim.NewGateway(gwCfg)

	// Registration before Start: no poller goroutine races the registry.
	tb.Metrics = metrics.NewRegistry()
	if tb.Enforcer != nil {
		tb.Enforcer.RegisterMetrics(tb.Metrics)
	}
	tb.Gateway.RegisterMetrics(tb.Metrics)
	tb.Audit.RegisterMetrics(tb.Metrics)
	if tb.Policy != nil {
		tb.Policy.RegisterMetrics(tb.Metrics)
	}
	tb.Manager.RegisterMetrics(tb.Metrics)
	san.RegisterMetrics(tb.Metrics)
	return tb, nil
}

// count reads one series of the deployment's registry; labels narrow a
// family (no labels sums it).
func (tb *Testbed) count(family string, labels ...metrics.Label) uint64 {
	v, _ := tb.Metrics.Value(family, labels...)
	return uint64(v)
}

// InstallApp analyzes apk into the signature database (the Offline
// Analyzer step; an app already there keeps its entry), installs it in the
// device's work profile, and stands up a static HTTP server at every
// endpoint its functionalities reach that has no server yet.
func (tb *Testbed) InstallApp(apk *dex.APK, funcs []android.Functionality) (*android.App, error) {
	if err := tb.DB.Add(apk); err != nil && !errors.Is(err, analyzer.ErrDuplicateEntry) {
		return nil, fmt.Errorf("experiments: analyze %s: %w", apk.PackageName, err)
	}
	app, err := tb.Device.InstallApp(apk, funcs, android.ProfileWork)
	if err != nil {
		return nil, fmt.Errorf("experiments: install %s: %w", apk.PackageName, err)
	}
	tb.Apps = append(tb.Apps, app)
	for _, f := range funcs {
		addr := f.Op.Endpoint.Addr()
		if _, ok := tb.Network.ServerAt(addr); !ok {
			tb.Network.AddServer(&netsim.Server{
				Addr:    addr,
				Name:    f.Op.Host,
				Handler: httpsim.StaticHandler(httpsim.StaticPage()),
			})
		}
	}
	return app, nil
}

// DeliverAll pushes a batch of packets through the network's batched
// gateway drain, returning how many were delivered and how many dropped.
func (tb *Testbed) DeliverAll(pkts []*ipv4.Packet) (delivered, dropped int) {
	for _, d := range tb.Network.DeliverBatch(pkts) {
		if d.Delivered {
			delivered++
		} else {
			dropped++
		}
	}
	return delivered, dropped
}

// isDataPacket reports whether a packet carries application data — an
// HTTP request in a TCP data segment or a UDP datagram. TCP control
// segments (SYN, FIN, RST) return false. Experiments that score workload
// outcomes count data packets, so their numbers are per request, not per
// segment (every packet of a flow carries the same tag, so control
// segments share their flow's verdict).
func isDataPacket(pkt *ipv4.Packet) bool {
	var info transport.Info
	if !transport.PeekPacket(pkt, &info) {
		return true // non-first fragment: all data
	}
	if info.Proto == ipv4.ProtoTCP {
		return len(pkt.Payload) > info.DataOff
	}
	return true
}

// dataPackets filters a burst down to its data packets.
func dataPackets(pkts []*ipv4.Packet) []*ipv4.Packet {
	out := make([]*ipv4.Packet, 0, len(pkts))
	for _, pkt := range pkts {
		if isDataPacket(pkt) {
			out = append(out, pkt)
		}
	}
	return out
}

// Close stops the policy store's hot-reload poller (when one is wired) and
// flushes and stops the audit pipeline (a no-op for observation testbeds
// without enforcement).
func (tb *Testbed) Close() error {
	if tb.Policy != nil {
		tb.Policy.Close()
	}
	return tb.Audit.Close()
}
