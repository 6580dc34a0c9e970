package netsim

import (
	"testing"

	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/sanitizer"
)

func TestRouteStrings(t *testing.T) {
	if RouteDirect.String() != "direct" || RouteVPN.String() != "vpn" || RouteMobile.String() != "mobile" {
		t.Error("route names")
	}
	if Route(99).String() == "" {
		t.Error("unknown route must render")
	}
}

func TestVPNRouteStillEnforced(t *testing.T) {
	// Off-premises work traffic tunnels back through the gateway: the
	// sanitizer still cleanses, and the latency includes the tunnel cost.
	gw := NewGateway(GatewayConfig{Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)
	pkt := plainPacket(getRequest())
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3}})

	d := n.DeliverRoute(pkt, RouteVPN)
	if !d.Delivered {
		t.Fatalf("vpn-routed packet dropped: %+v", d)
	}
	if d.Latency < VPNPerPacket {
		t.Fatalf("vpn latency %v below tunnel cost", d.Latency)
	}
	if count(gw.Sanitizer(), "bp_sanitizer_cleansed_total") != 1 {
		t.Fatal("gateway did not process vpn traffic")
	}
}

func TestMobileRouteBypassesGatewayButNotBorder(t *testing.T) {
	gw := NewGateway(GatewayConfig{Sanitizer: sanitizer.New(), Clock: NewClock()})
	n := newStaticNetwork(ModeTAP, gw)

	// Personal traffic (untagged) flows over mobile without the gateway.
	d := n.DeliverRoute(plainPacket(getRequest()), RouteMobile)
	if !d.Delivered {
		t.Fatalf("personal mobile traffic dropped: %+v", d)
	}

	// A tagged packet leaking onto the mobile path never reaches the
	// sanitizer, so the carrier's RFC 7126 filtering drops it — context
	// data does not escape unsanitized.
	tagged := plainPacket(getRequest())
	tagged.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{9, 9}})
	d = n.DeliverRoute(tagged, RouteMobile)
	if d.Delivered || d.Stage != StageBorder {
		t.Fatalf("tagged mobile packet: %+v", d)
	}
	if count(gw.Sanitizer(), "bp_sanitizer_cleansed_total") != 0 {
		t.Fatal("mobile traffic touched the corporate gateway")
	}
}

func TestDirectRouteEqualsDeliver(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	d1 := n.DeliverRoute(plainPacket(getRequest()), RouteDirect)
	n2 := newStaticNetwork(ModeTAP, nil)
	d2 := n2.Deliver(plainPacket(getRequest()))
	if d1.Delivered != d2.Delivered || d1.Latency != d2.Latency {
		t.Fatalf("direct route diverges from Deliver: %+v vs %+v", d1, d2)
	}
}

func TestMobileLatencyExceedsDirect(t *testing.T) {
	n := NewNetwork(ModeTAP)
	n.AddServer(&Server{Addr: serverAddr(), Handler: httpsim.StaticHandler(nil)})
	direct := n.DeliverRoute(plainPacket(getRequest()), RouteDirect)
	mobile := n.DeliverRoute(plainPacket(getRequest()), RouteMobile)
	if mobile.Latency <= direct.Latency {
		t.Fatalf("mobile %v must exceed direct %v", mobile.Latency, direct.Latency)
	}
}
