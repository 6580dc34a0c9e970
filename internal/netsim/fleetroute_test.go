package netsim

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// fleetFixture stands up two gateways on one network: subnet A's gateway
// denies com/flurry, subnet B's allows everything. Both sanitize, so
// allowed tagged traffic survives the border filter. The returned beacon
// builder mints a fresh tracker-tagged packet from the given source.
func fleetFixture(t *testing.T) (n *Network, gwA, gwB *Gateway, beacon func(src string) *ipv4.Packet) {
	t.Helper()
	enfA, apk, db := buildEnforcerAndDB(t)
	engB, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	enfB := shipped(NewClock(), false, enforcer.Config{}, db, engB)
	gwA = NewGateway(GatewayConfig{Enforcer: enfA, Sanitizer: sanitizer.New(), Clock: NewClock()})
	gwB = NewGateway(GatewayConfig{Enforcer: enfB, Sanitizer: sanitizer.New(), Clock: NewClock()})
	n = newStaticNetwork(ModeTAP, nil)
	n.AddGatewayRoute(netip.MustParsePrefix("10.1.0.0/16"), gwA)
	n.AddGatewayRoute(netip.MustParsePrefix("10.2.0.0/16"), gwB)
	beacon = func(src string) *ipv4.Packet {
		p := taggedPacket(t, apk, db, "beacon")
		p.Header.Src = netip.MustParseAddr(src)
		return p
	}
	return n, gwA, gwB, beacon
}

func TestSubnetRoutingScalar(t *testing.T) {
	n, gwA, gwB, beacon := fleetFixture(t)

	if got := n.GatewayFor(netip.MustParseAddr("10.1.0.7")); got != gwA {
		t.Fatal("10.1/16 not routed to gateway A")
	}
	if got := n.GatewayFor(netip.MustParseAddr("10.2.200.1")); got != gwB {
		t.Fatal("10.2/16 not routed to gateway B")
	}
	if got := n.GatewayFor(netip.MustParseAddr("192.0.2.1")); got != nil {
		t.Fatal("unrouted source did not fall back to the Gateway field (nil)")
	}

	// The same tracker-tagged packet lives or dies by its source subnet.
	if d := n.Deliver(beacon("10.1.0.7")); d.Delivered || d.Stage != StageGateway {
		t.Fatalf("subnet A beacon not enforced: %+v", d)
	}
	if d := n.Deliver(beacon("10.2.0.7")); !d.Delivered {
		t.Fatalf("subnet B beacon dropped: %+v", d)
	}
}

func TestSubnetRoutingLongestPrefixAndFallback(t *testing.T) {
	n, gwA, gwB, _ := fleetFixture(t)
	// A more specific carve-out inside A's /16 goes to B.
	n.AddGatewayRoute(netip.MustParsePrefix("10.1.99.0/24"), gwB)
	if got := n.GatewayFor(netip.MustParseAddr("10.1.99.5")); got != gwB {
		t.Fatal("longest prefix not preferred")
	}
	if got := n.GatewayFor(netip.MustParseAddr("10.1.98.5")); got != gwA {
		t.Fatal("carve-out leaked beyond its /24")
	}
	// The legacy Gateway field fronts everything outside the routes.
	n.Gateway = gwA
	if got := n.GatewayFor(netip.MustParseAddr("172.16.0.1")); got != gwA {
		t.Fatal("fallback to Gateway field broken")
	}
}

func TestSubnetRoutingBatchPartition(t *testing.T) {
	n, _, _, beacon := fleetFixture(t)
	// An interleaved burst from both subnets: every A packet must drop,
	// every B packet must deliver, in input order.
	var pkts []*ipv4.Packet
	for i := 0; i < 16; i++ {
		src := "10.1.0.9"
		if i%2 == 1 {
			src = "10.2.0.9"
		}
		pkts = append(pkts, beacon(src))
	}
	ds := n.DeliverBatch(pkts)
	for i, d := range ds {
		fromA := i%2 == 0
		if fromA && (d.Delivered || d.Stage != StageGateway) {
			t.Fatalf("packet %d (subnet A): %+v", i, d)
		}
		if !fromA && !d.Delivered {
			t.Fatalf("packet %d (subnet B): %+v", i, d)
		}
	}
}

func TestDevicePool(t *testing.T) {
	if _, err := NewDevicePool(netip.MustParsePrefix("2001:db8::/64"), 1); err == nil {
		t.Fatal("IPv6 prefix accepted")
	}
	if _, err := NewDevicePool(netip.MustParsePrefix("10.1.0.0/24"), 255); err == nil {
		t.Fatal("oversubscribed pool accepted")
	}
	p, err := NewDevicePool(netip.MustParsePrefix("10.1.0.0/24"), 254)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Addr(0); got != netip.MustParseAddr("10.1.0.2") {
		t.Fatalf("Addr(0) = %v", got)
	}
	if got := p.Addr(253); got != netip.MustParseAddr("10.1.0.255") {
		t.Fatalf("Addr(253) = %v", got)
	}
	big, err := NewDevicePool(netip.MustParsePrefix("10.64.0.0/16"), 40000)
	if err != nil {
		t.Fatal(err)
	}
	if got := big.Addr(300); got != netip.MustParseAddr("10.64.1.46") {
		t.Fatalf("Addr(300) = %v (carry across octets broken)", got)
	}
}

func TestDevicePoolRewritePreservesEverythingButSrc(t *testing.T) {
	_, apk, db := buildEnforcerAndDB(t)
	tmpl := []*ipv4.Packet{taggedPacket(t, apk, db, "beacon"), taggedPacket(t, apk, db, "sync")}
	origSrc := tmpl[0].Header.Src
	p, err := NewDevicePool(netip.MustParsePrefix("10.3.0.0/16"), 100)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Rewrite(7, tmpl)
	if len(out) != 2 {
		t.Fatalf("rewrote %d packets", len(out))
	}
	for j, c := range out {
		if c.Header.Src != p.Addr(7) {
			t.Fatalf("packet %d src = %v", j, c.Header.Src)
		}
		if c.Header.Dst != tmpl[j].Header.Dst {
			t.Fatalf("packet %d dst changed", j)
		}
		orig, _ := tmpl[j].Header.FindOption(ipv4.OptSecurity)
		got, ok := c.Header.FindOption(ipv4.OptSecurity)
		if !ok || string(got.Data) != string(orig.Data) {
			t.Fatalf("packet %d tag bytes damaged", j)
		}
		if string(c.Payload) != string(tmpl[j].Payload) {
			t.Fatalf("packet %d payload damaged", j)
		}
	}
	// The template burst is untouched (clones, not aliases).
	if tmpl[0].Header.Src != origSrc {
		t.Fatal("template mutated")
	}
	out[0].Payload[0] ^= 0xff
	if tmpl[0].Payload[0] == out[0].Payload[0] {
		t.Fatal("payload aliased, not cloned")
	}
}
