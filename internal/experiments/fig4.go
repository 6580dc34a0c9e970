package experiments

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/netstack"
)

// Fig4ConfigID enumerates the six measured configurations (paper §VI-D).
type Fig4ConfigID int

// Configurations (i)–(vi).
const (
	// ConfigDefaultSLIRP is the stock emulator with user-mode networking.
	ConfigDefaultSLIRP Fig4ConfigID = iota + 1
	// ConfigDefaultTAP swaps in the virtual TAP interface.
	ConfigDefaultTAP
	// ConfigTAPNFQueue adds the iptables NFQUEUE with a read-and-reinject
	// Python consumer (empty policy).
	ConfigTAPNFQueue
	// ConfigStaticInject adds the patched kernel + Xposed hook that sets a
	// static string as IP_OPTIONS per socket.
	ConfigStaticInject
	// ConfigStaticGetStack additionally calls getStackTrace per socket.
	ConfigStaticGetStack
	// ConfigDynamic is the full BorderPatrol prototype.
	ConfigDynamic
)

// String names the configuration with the paper's labels.
func (c Fig4ConfigID) String() string {
	switch c {
	case ConfigDefaultSLIRP:
		return "default-SLIRP"
	case ConfigDefaultTAP:
		return "default-tap"
	case ConfigTAPNFQueue:
		return "default-tap-nfq"
	case ConfigStaticInject:
		return "static-inject-tap-nfq"
	case ConfigStaticGetStack:
		return "static-getStack-tap-nfq"
	case ConfigDynamic:
		return "dynamic-tap-nfq"
	default:
		return fmt.Sprintf("config(%d)", int(c))
	}
}

// AllFig4Configs lists the configurations in presentation order.
func AllFig4Configs() []Fig4ConfigID {
	return []Fig4ConfigID{
		ConfigDefaultSLIRP, ConfigDefaultTAP, ConfigTAPNFQueue,
		ConfigStaticInject, ConfigStaticGetStack, ConfigDynamic,
	}
}

// Fig4Point is the measured latency for one configuration.
type Fig4Point struct {
	Config Fig4ConfigID
	// MeanLatency is the virtual per-request latency.
	MeanLatency time.Duration
	// Requests is the number of request iterations measured.
	Requests int
	// WallTime is the real time the simulation took (for reference only).
	WallTime time.Duration
}

// Fig4Result is the full latency series.
type Fig4Result struct {
	Points []Fig4Point
	// Iterations per run and Runs mirror the paper's 10,000 × 25 setup.
	Iterations, Runs int
}

// Fig4Options sizes the stress test.
type Fig4Options struct {
	// Iterations is socket+GET+close repetitions per run (paper: 10,000).
	Iterations int
	// Runs is how many runs to average (paper: 25).
	Runs int
}

// DefaultFig4Options mirrors the paper's stress test.
func DefaultFig4Options() Fig4Options {
	return Fig4Options{Iterations: 10000, Runs: 25}
}

// stressServerAddr is the local host serving the 297-byte page.
var stressServerAddr = netip.MustParseAddr("10.66.0.1")

// stressAPK builds the network stress-test app: it repeatedly creates a
// socket, issues one HTTP GET for the static page, and closes the socket —
// the worst case for per-socket overhead.
func stressAPK() (*dex.APK, []android.Functionality) {
	apk := &dex.APK{
		PackageName: "com.bp.stress",
		Label:       "bp-stress",
		Category:    "TOOLS",
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{{
			Package: "com/bp/stress",
			Name:    "StressLoop",
			Super:   "java/lang/Object",
			Methods: []dex.MethodDef{
				{Name: "run", Proto: "()V", File: "StressLoop.java", StartLine: 10, EndLine: 60},
				{Name: "get", Proto: "(Ljava/lang/String;)V", File: "StressLoop.java", StartLine: 70, EndLine: 100},
			},
		}}}},
	}
	funcs := []android.Functionality{{
		Name:      "get",
		Desirable: true,
		CallPath: []dex.Frame{
			{Class: "com/bp/stress/StressLoop", Method: "run", File: "StressLoop.java", Line: 20},
			{Class: "com/bp/stress/StressLoop", Method: "get", File: "StressLoop.java", Line: 75},
		},
		Op: android.NetOp{
			Endpoint: netip.AddrPortFrom(stressServerAddr, 8000),
			Host:     "localhost",
			Method:   "GET",
			Path:     "/index.html",
		},
		Weight: 1,
	}}
	return apk, funcs
}

// fig4Testbed is one configuration's assembled stack.
type fig4Testbed struct {
	app     *android.App
	network *netsim.Network
	// shipped is config (vi)'s deployment, built by Assemble like every
	// enforcing gateway; nil for the other configurations.
	shipped *Testbed
	// perSocketCost is the device-side virtual cost charged per socket.
	perSocketCost time.Duration
}

// close stops config (vi)'s audit pipeline.
func (tb *fig4Testbed) close() {
	if tb.shipped != nil {
		_ = tb.shipped.Close()
	}
}

// buildFig4Testbed assembles one of the six configurations.
func buildFig4Testbed(id Fig4ConfigID) (*fig4Testbed, error) {
	apk, funcs := stressAPK()

	nic := netsim.ModeTAP
	if id == ConfigDefaultSLIRP {
		nic = netsim.ModeSLIRP
	}
	tb := &fig4Testbed{network: netsim.NewNetwork(nic)}
	model := tb.network.Model
	tb.network.AddServer(&netsim.Server{
		Addr:     stressServerAddr,
		Name:     "stress-local",
		Handler:  httpsim.StaticHandler(httpsim.StaticPage()),
		Internal: true,
	})

	if id == ConfigDynamic {
		// The full prototype is the shipped gateway: its device, Context
		// Manager, enforcer, flow table, context source and audit log are
		// Assemble's, on this network's clock.
		shipped, err := Assemble(tb.network, TestbedConfig{EnforcementOn: true})
		if err != nil {
			return nil, err
		}
		tb.network.Gateway, tb.shipped = shipped.Gateway, shipped
		if tb.app, err = shipped.InstallApp(apk, funcs); err != nil {
			tb.close()
			return nil, err
		}
		tb.perSocketCost = model.XposedHookPerSocket + model.GetStackTracePerSocket +
			model.EncodePerSocket + model.SetsockoptPerSocket
		return tb, nil
	}

	// Each configuration adds to the one before it.
	var kernelCfg kernel.Config
	xposed := false
	if id >= ConfigStaticInject {
		kernelCfg.AllowUnprivilegedIPOptions = true
		xposed = true
	}
	device := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.66.0.2"),
		Kernel:          kernelCfg,
		XposedInstalled: xposed,
	})
	if id >= ConfigTAPNFQueue {
		tb.network.Gateway = netsim.NewGateway(netsim.GatewayConfig{Passthrough: true, Clock: tb.network.Clock})
	}

	// Device-side instrumentation per configuration. The hooks do the real
	// work (static option injection, stack walking) and the harness charges
	// the calibrated virtual cost per socket.
	static := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte("BORDERPATROL-STATIC-OPTIONS-0001")}}
	switch id {
	case ConfigStaticInject:
		device.Stack().RegisterConnectHook(func(sock *netstack.JavaSocket) {
			_ = device.Kernel().SetIPOptions(sock.FD(), 0, static)
		})
		tb.perSocketCost = model.XposedHookPerSocket + model.SetsockoptPerSocket
	case ConfigStaticGetStack:
		device.Stack().RegisterConnectHook(func(sock *netstack.JavaSocket) {
			if a, ok := device.AppByUID(sock.OwnerUID); ok {
				_ = a.Thread().GetStackTrace() // real stack walk, result unused
			}
			_ = device.Kernel().SetIPOptions(sock.FD(), 0, static)
		})
		tb.perSocketCost = model.XposedHookPerSocket + model.GetStackTracePerSocket + model.SetsockoptPerSocket
	}

	app, err := device.InstallApp(apk, funcs, android.ProfileWork)
	if err != nil {
		return nil, err
	}
	tb.app = app
	return tb, nil
}

// measure runs n connections of k requests each (socket, k GETs, close)
// and returns the virtual time they took. Each connection's packets cross
// the network as one burst, so the NFQUEUE hop — the cost Fig. 4's ii→iii
// delta isolates — is charged once per connection each way, as the paper
// measured it; the NIC, wire and enforcement costs are per segment.
func (tb *fig4Testbed) measure(n, k int) (time.Duration, error) {
	fn, _ := tb.app.Functionality("get")
	fn.Op.Requests = k
	var total time.Duration
	for it := 0; it < n; it++ {
		start := tb.network.Clock.Now()
		res, err := tb.app.Invoke("get")
		if err != nil {
			return 0, err
		}
		// Device-side per-socket cost (hooks ran during Invoke).
		tb.network.Clock.Advance(tb.perSocketCost)
		for i, d := range tb.network.DeliverBatch(res.Packets) {
			if !d.Delivered {
				return 0, fmt.Errorf("packet dropped at %s", d.Stage)
			}
			if isDataPacket(res.Packets[i]) && (d.Response == nil || d.Response.Status != 200) {
				return 0, errors.New("bad response")
			}
		}
		total += tb.network.Clock.Now() - start
	}
	return total, nil
}

// RunFig4Config measures one configuration: runs × iterations × (socket +
// GET + close), and returns the mean virtual latency per request.
func RunFig4Config(id Fig4ConfigID, opts Fig4Options) (Fig4Point, error) {
	if opts.Iterations <= 0 || opts.Runs <= 0 {
		return Fig4Point{}, fmt.Errorf("fig4: invalid options %+v", opts)
	}
	tb, err := buildFig4Testbed(id)
	if err != nil {
		return Fig4Point{}, err
	}
	defer tb.close()
	wallStart := time.Now()
	requests := opts.Runs * opts.Iterations
	total, err := tb.measure(requests, 1)
	if err != nil {
		return Fig4Point{}, fmt.Errorf("fig4 %s: %w", id, err)
	}
	return Fig4Point{
		Config:      id,
		MeanLatency: total / time.Duration(requests),
		Requests:    requests,
		WallTime:    time.Since(wallStart),
	}, nil
}

// RunFig4 measures all six configurations.
func RunFig4(opts Fig4Options) (*Fig4Result, error) {
	res := &Fig4Result{Iterations: opts.Iterations, Runs: opts.Runs}
	for _, id := range AllFig4Configs() {
		p, err := RunFig4Config(id, opts)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Format renders the Fig. 4 series with the paper's headline deltas.
func (r *Fig4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — mean HTTP GET latency per configuration (%d iterations × %d runs)\n", r.Iterations, r.Runs)
	fmt.Fprintf(&b, "%-28s %-14s\n", "configuration", "latency (ms)")
	byID := make(map[Fig4ConfigID]time.Duration, len(r.Points))
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-28s %-14.2f\n", p.Config, float64(p.MeanLatency)/float64(time.Millisecond))
		byID[p.Config] = p.MeanLatency
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if base, full := byID[ConfigDefaultSLIRP], byID[ConfigDynamic]; base > 0 && full > 0 {
		fmt.Fprintf(&b, "NFQUEUE hop (ii→iii):      +%.2f ms (paper ≈ +1 ms)\n", ms(byID[ConfigTAPNFQueue]-byID[ConfigDefaultTAP]))
		fmt.Fprintf(&b, "getStackTrace (iv→v):      +%.2f ms (paper ≈ +1.6 ms)\n", ms(byID[ConfigStaticGetStack]-byID[ConfigStaticInject]))
		fmt.Fprintf(&b, "total overhead (i→vi):     +%.2f ms (paper < 2.5 ms)\n", ms(full-base))
		fmt.Fprintf(&b, "relative overhead (vi/i):  %.2fx (paper ≈ 2x)\n", float64(full)/float64(base))
	}
	return b.String()
}

// KeepAlivePoint is one row of the amortization sweep (§VI-D's closing
// argument: per-socket cost amortizes over keep-alive connections).
type KeepAlivePoint struct {
	RequestsPerSocket int
	MeanPerRequest    time.Duration
}

// RunKeepAliveAmortization sweeps requests-per-socket on the full
// BorderPatrol configuration, a fresh one per row.
func RunKeepAliveAmortization(requestsPerSocket []int, iterations int) ([]KeepAlivePoint, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("fig4: invalid iterations %d", iterations)
	}
	out := make([]KeepAlivePoint, 0, len(requestsPerSocket))
	for _, k := range requestsPerSocket {
		if k <= 0 {
			return nil, fmt.Errorf("fig4: invalid requests-per-socket %d", k)
		}
		tb, err := buildFig4Testbed(ConfigDynamic)
		if err != nil {
			return nil, err
		}
		total, err := tb.measure(iterations, k)
		tb.close()
		if err != nil {
			return nil, fmt.Errorf("keep-alive: %w", err)
		}
		out = append(out, KeepAlivePoint{RequestsPerSocket: k, MeanPerRequest: total / time.Duration(iterations*k)})
	}
	return out, nil
}

// FormatKeepAlive renders the amortization sweep.
func FormatKeepAlive(points []KeepAlivePoint) string {
	var b strings.Builder
	b.WriteString("Keep-alive amortization (§VI-D) — full BorderPatrol, per-request latency\n")
	fmt.Fprintf(&b, "%-22s %-14s\n", "requests per socket", "latency (ms)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-22d %-14.2f\n", p.RequestsPerSocket, float64(p.MeanPerRequest)/float64(time.Millisecond))
	}
	b.WriteString("per-socket tagging cost amortizes as sockets serve more requests\n")
	return b.String()
}
