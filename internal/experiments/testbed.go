// Package experiments contains one reproduction harness per table and
// figure in the paper's evaluation (§VI) plus the discussion's empirical
// claims (§VII). Each experiment assembles the full system — provisioned
// device, Context Manager, gateway with Policy Enforcer and Packet
// Sanitizer, simulated enterprise network — runs the paper's workload, and
// returns a typed result with a paper-style textual rendering.
package experiments

import (
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
	// Apps are the installed corpus apps in install order.
	Apps []*android.App
	// Corpus preserves the generator metadata per installed app.
	Corpus []*apkgen.App
	// Metrics is the registry every assembled component registered its
	// instruments on; render it with WritePrometheus or walk Snapshot.
	Metrics *metrics.Registry
}

// TestbedConfig assembles a deployment.
type TestbedConfig struct {
	// Rules is the initial policy (may be nil).
	Rules []policy.Rule
	// DefaultVerdict is the engine default (VerdictAllow for observation
	// phases, VerdictDrop for whitelist postures).
	DefaultVerdict policy.Verdict
	// EnforcementOn wires the Policy Enforcer into the gateway; when false
	// the gateway only sanitizes (observation / baseline runs).
	EnforcementOn bool
	// AllowUntagged admits untagged packets at the enforcer.
	AllowUntagged bool
	// NIC selects the emulator network mode (TAP for the paper's testbed).
	NIC netsim.NICMode
	// DisableFlowCache turns off per-flow verdict caching (on by default
	// when enforcement is on; baselines that measure the uncached pipeline
	// set this).
	DisableFlowCache bool
	// GatewayWorkers sizes the batched per-core queue drain (0 = GOMAXPROCS).
	GatewayWorkers int
	// AuditWriter receives the enforcement audit as JSON lines (nil keeps
	// only counters and the in-memory tail).
	AuditWriter io.Writer
	// PolicySource feeds the engine from an external policy backend (file,
	// HTTP, static) instead of Rules. The initial document loads
	// synchronously — a broken initial policy fails NewTestbed — and later
	// changes hot-swap atomically with last-good fallback.
	PolicySource policystore.Source
	// PolicyPoll starts background hot reload at this interval when > 0
	// (manual Testbed.Policy.Reload() otherwise). Requires PolicySource.
	PolicyPoll time.Duration
	// Faults arms the network with a deterministic fault plan at
	// construction (nil leaves the wire perfect, as before).
	Faults *netsim.FaultPlan
	// FlowTTL is the flow-verdict cache's idle timeout in virtual time (an
	// entry expires that long after its flow's last packet); zero keeps
	// the pre-soak behaviour (no TTL, eviction pressure only).
	FlowTTL time.Duration
	// PolicyMaxStale enables the policy store's staleness deadline, and
	// PolicyFailMode selects the degraded posture past it. Requires
	// PolicySource.
	PolicyMaxStale time.Duration
	PolicyFailMode policystore.FailMode
	// PolicyVirtualTime drives the staleness clock from the network's
	// virtual clock instead of wall time, so harnesses can age the policy
	// by hours in microseconds.
	PolicyVirtualTime bool
	// DisableCapture turns the network's packet-capture logs off (they
	// clone every packet — unbounded memory over a soak run).
	DisableCapture bool
}

// NewTestbed provisions a device, loads the Context Manager, analyzes and
// installs every corpus app, and stands up the gateway and network with one
// server per endpoint the corpus references.
func NewTestbed(corpus []*apkgen.App, cfg TestbedConfig) (*Testbed, error) {
	device := android.NewDevice(android.Config{
		Addr: netip.MustParseAddr("10.66.0.2"),
		Kernel: kernel.Config{
			AllowUnprivilegedIPOptions: true,
			SetOptionsOncePerSocket:    true,
		},
		XposedInstalled: true,
	})
	manager := contextmgr.New(device)
	if err := device.LoadModule(manager); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	db := analyzer.NewDatabase()
	defV := cfg.DefaultVerdict
	if defV == 0 {
		defV = policy.VerdictAllow
	}
	engine, err := policy.NewEngine(cfg.Rules, defV)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	tb := &Testbed{
		Device: device, Manager: manager, DB: db, Engine: engine,
		Corpus: corpus,
	}

	// The network comes up before the policy store so the store's
	// staleness clock can read virtual time.
	nic := cfg.NIC
	if nic == 0 {
		nic = netsim.ModeTAP
	}
	tb.Network = netsim.NewNetwork(nic, netsim.DefaultLatencyModel())
	if cfg.DisableCapture {
		tb.Network.SetCapture(false)
	}
	if cfg.Faults != nil {
		tb.Network.InstallFaults(*cfg.Faults)
	}

	if cfg.PolicySource != nil {
		if len(cfg.Rules) > 0 {
			return nil, fmt.Errorf("experiments: TestbedConfig.Rules and PolicySource are mutually exclusive")
		}
		storeCfg := policystore.Config{
			Source:   cfg.PolicySource,
			Engine:   engine,
			Poll:     cfg.PolicyPoll,
			MaxStale: cfg.PolicyMaxStale,
			FailMode: cfg.PolicyFailMode,
		}
		if cfg.PolicyVirtualTime {
			storeCfg.Now = tb.Network.Clock.Now
		}
		store, err := policystore.New(storeCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if err := store.Load(); err != nil {
			return nil, fmt.Errorf("experiments: initial policy: %w", err)
		}
		// Started at the very end of construction: no goroutine to leak on
		// the error paths below.
		tb.Policy = store
	}

	gwCfg := netsim.GatewayConfig{
		Sanitizer: sanitizer.New(sanitizer.Config{}),
		Workers:   cfg.GatewayWorkers,
		Clock:     tb.Network.Clock,
	}
	tb.Context = devctx.NewSource(tb.Network.Clock)
	device.BindContext(tb.Context)
	if cfg.EnforcementOn {
		tb.Audit = audit.New(cfg.AuditWriter, 256)
		enfCfg := enforcer.Config{
			AllowUntagged: cfg.AllowUntagged,
			Audit:         tb.Audit,
			Context:       tb.Context,
			Clock:         tb.Network.Clock,
		}
		if !cfg.DisableFlowCache {
			enfCfg.Flows = enforcer.NewFlowCache(flowtable.Config{
				Clock: tb.Network.Clock,
				TTL:   cfg.FlowTTL,
			})
		}
		tb.Enforcer = enforcer.New(enfCfg, db, engine)
		gwCfg.Enforcer = tb.Enforcer
	}
	tb.Network.Gateway = netsim.NewGateway(gwCfg)

	seenEndpoints := make(map[netip.Addr]struct{})
	for _, ga := range corpus {
		if err := db.Add(ga.APK); err != nil {
			return nil, fmt.Errorf("experiments: analyze %s: %w", ga.APK.PackageName, err)
		}
		app, err := device.InstallApp(ga.APK, ga.Functionalities, android.ProfileWork)
		if err != nil {
			return nil, fmt.Errorf("experiments: install %s: %w", ga.APK.PackageName, err)
		}
		tb.Apps = append(tb.Apps, app)
		for _, f := range ga.Functionalities {
			addr := f.Op.Endpoint.Addr()
			if _, ok := seenEndpoints[addr]; ok {
				continue
			}
			seenEndpoints[addr] = struct{}{}
			tb.Network.AddServer(&netsim.Server{
				Addr:    addr,
				Name:    f.Op.Host,
				Handler: httpsim.StaticHandler(httpsim.StaticPage()),
			})
		}
	}
	// Registration before Start: no poller goroutine races the registry.
	tb.Metrics = metrics.NewRegistry()
	if tb.Enforcer != nil {
		tb.Enforcer.RegisterMetrics(tb.Metrics)
	}
	tb.Network.Gateway.RegisterMetrics(tb.Metrics)
	tb.Network.RegisterMetrics(tb.Metrics)
	tb.Audit.RegisterMetrics(tb.Metrics)
	if tb.Policy != nil {
		tb.Policy.RegisterMetrics(tb.Metrics)
	}
	if tb.Policy != nil {
		tb.Policy.Start()
	}
	return tb, nil
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
	info, ok := transport.PeekPacket(pkt)
	if !ok {
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
