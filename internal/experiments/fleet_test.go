package experiments

// Fleet tests: multiple BYOD devices sharing one gateway (the paper's
// Figure 1 shows several provisioned devices behind one enforcement point),
// with the §VII routing story — on-premises traffic hits the gateway
// directly, off-premises work traffic tunnels in over VPN, personal traffic
// rides the mobile network.

import (
	"fmt"
	"net/netip"
	"testing"

	"borderpatrol/internal/android"
	"borderpatrol/internal/contextmgr"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// fleetDevice is one provisioned device with its own Context Manager.
type fleetDevice struct {
	device  *android.Device
	manager *contextmgr.Manager
	app     *android.App
}

func fleetAPK(n int) *dex.APK {
	return &dex.APK{
		PackageName: fmt.Sprintf("com.corp.device%d", n),
		VersionCode: 1,
		Dexes: []*dex.File{{Classes: []dex.ClassDef{
			{
				Package: "com/corp/work",
				Name:    "Client",
				Methods: []dex.MethodDef{
					{Name: "sync", Proto: "()V", File: "C.java", StartLine: 1, EndLine: 10},
				},
			},
			{
				Package: "com/flurry/sdk",
				Name:    "Agent",
				Methods: []dex.MethodDef{
					{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 1, EndLine: 10},
				},
			},
		}}},
	}
}

func fleetFuncs(ep netip.AddrPort) []android.Functionality {
	return []android.Functionality{
		{
			Name:      "sync",
			Desirable: true,
			CallPath:  []dex.Frame{{Class: "com/corp/work/Client", Method: "sync", File: "C.java", Line: 3}},
			Op:        android.NetOp{Endpoint: ep, Method: "GET"},
		},
		{
			Name:     "beacon",
			CallPath: []dex.Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "A.java", Line: 3}},
			Op:       android.NetOp{Endpoint: ep, Method: "POST", PayloadBytes: 128},
		},
	}
}

func TestFleetSharedGatewayEnforcement(t *testing.T) {
	const devices = 4
	ep := netip.AddrPortFrom(netip.MustParseAddr("198.18.70.1"), 443)

	// One shared database + gateway for the whole fleet.
	network := netsim.NewNetwork(netsim.ModeTAP)
	tb := assembleDenyingFlurry(t, network)
	db, enf := tb.DB, tb.Enforcer
	network.Gateway = tb.Gateway
	network.AddServer(&netsim.Server{Addr: ep.Addr(), Handler: httpsim.StaticHandler(nil)})

	fleet := make([]*fleetDevice, devices)
	for i := range fleet {
		dev := android.NewDevice(android.Config{
			Addr:            netip.AddrFrom4([4]byte{10, 66, 0, byte(10 + i)}),
			Kernel:          kernel.Config{AllowUnprivilegedIPOptions: true, SetOptionsOncePerSocket: true},
			XposedInstalled: true,
		})
		mgr := contextmgr.New(dev)
		if err := dev.LoadModule(mgr); err != nil {
			t.Fatal(err)
		}
		apk := fleetAPK(i)
		if err := db.Add(apk); err != nil {
			t.Fatal(err)
		}
		app, err := dev.InstallApp(apk, fleetFuncs(ep), android.ProfileWork)
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = &fleetDevice{device: dev, manager: mgr, app: app}
	}

	// Every device's sync flows; every device's beacon is dropped; the
	// shared enforcer attributes each packet to the right app.
	for i, fd := range fleet {
		route := netsim.RouteDirect
		if i%2 == 1 {
			route = netsim.RouteVPN // off-premises devices tunnel in
		}
		res, err := fd.app.Invoke("sync")
		if err != nil {
			t.Fatal(err)
		}
		d := network.DeliverRoute(res.Packets[0], route)
		if !d.Delivered {
			t.Fatalf("device %d sync dropped via %s: %+v", i, route, d)
		}
		if d.Enforcement == nil || d.Enforcement.AppHash != fd.app.APK.Truncated() {
			t.Fatalf("device %d packet misattributed", i)
		}

		res, err = fd.app.Invoke("beacon")
		if err != nil {
			t.Fatal(err)
		}
		d = network.DeliverRoute(res.Packets[0], route)
		if d.Delivered {
			t.Fatalf("device %d beacon escaped via %s", i, route)
		}
	}

	reg := metrics.NewRegistry()
	enf.RegisterMetrics(reg)
	processed, _ := reg.Value("bp_enforcer_verdicts_total")
	dropped, _ := reg.Value("bp_enforcer_verdicts_total", metrics.L("decision", "drop"))
	if processed != devices*2 || dropped != devices {
		t.Fatalf("shared enforcer: %v processed, %v dropped; want %d, %d", processed, dropped, devices*2, devices)
	}
}

func TestFragmentedTaggedPacketEnforcedPerFragment(t *testing.T) {
	// A tagged packet fragmented in flight keeps its tag in every fragment
	// (copied option), so the enforcer can drop each fragment of a denied
	// flow independently — no reassembly state needed at the gateway.
	apk := fleetAPK(9)
	tb := assembleDenyingFlurry(t, netsim.NewNetwork(netsim.ModeTAP))
	db, enf := tb.DB, tb.Enforcer
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}

	// Build a tagged beacon packet with a large payload and fragment it.
	entry, _ := db.LookupTruncated(apk.Truncated())
	var beaconIdx uint32
	for i, raw := range entry.Signatures {
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Name == "beacon" {
			beaconIdx = uint32(i)
		}
	}
	pkt := taggedPacketWithPayload(t, apk.Truncated(), beaconIdx, 4000)
	frags, err := ipv4.Fragment(pkt, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("got %d fragments", len(frags))
	}
	for i, f := range frags {
		res := enf.Process(f)
		if res.Verdict != policy.VerdictDrop {
			t.Fatalf("fragment %d not dropped: %+v", i, res)
		}
		if res.Cause != enforcer.DropPolicy {
			t.Fatalf("fragment %d cause = %s", i, res.Cause)
		}
	}
}

// assembleDenyingFlurry assembles the shipped gateway on network with a
// policy denying the com/flurry library.
func assembleDenyingFlurry(t *testing.T, network *netsim.Network) *Testbed {
	t.Helper()
	tb, err := Assemble(network, TestbedConfig{
		EnforcementOn: true,
		Rules:         []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tb.Close() })
	return tb
}

func taggedPacketWithPayload(t *testing.T, hash dex.TruncatedHash, idx uint32, size int) *ipv4.Packet {
	t.Helper()
	tg, err := (&tag.Tag{AppHash: hash, Indexes: []uint32{idx}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			ID:       31337,
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.MustParseAddr("198.18.70.1"),
		},
		Payload: make([]byte, size),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: tg})
	return pkt
}
