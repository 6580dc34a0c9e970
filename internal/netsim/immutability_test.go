package netsim

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/sanitizer"
)

// packetPrint is a digest of everything a packet carries: each header
// field, each option's type and bytes, and the payload.
func packetPrint(p *ipv4.Packet) [sha256.Size]byte {
	h := sha256.New()
	hd := &p.Header
	fmt.Fprintf(h, "%d %d %d %d %d %d %s %s %d|", hd.TOS, hd.ID, hd.Flags, hd.FragOff, hd.TTL, hd.Protocol, hd.Src, hd.Dst, len(hd.Options))
	for _, o := range hd.Options {
		fmt.Fprintf(h, "%d %x|", o.Type, o.Data)
	}
	h.Write(p.Payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestDeliveryWritesNoInputByte pins the packet immutability contract
// (ipv4.Packet) across the delivery path: DeliverBatch, DeliverInto and
// DeliverRoute over every route, through a flow-cached enforcer and a
// sanitizer that strips the tag, with a fault plan armed and with FIN
// teardown, at 1, 2 and 4 workers, leave every byte of every packet the
// caller handed in as it was — header, options and payload. The tag sits
// between two NOPs, so a strip done in place on the caller's packet would
// compact its option list.
func TestDeliveryWritesNoInputByte(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	tagged := func(method string) *ipv4.Packet {
		p := taggedPacket(t, apk, db, method)
		p.Header.Options = append([]ipv4.Option{{Type: ipv4.OptNOP}}, p.Header.Options...)
		p.Header.Options = append(p.Header.Options, ipv4.Option{Type: ipv4.OptNOP})
		return p
	}
	allow, deny := tagged("sync"), tagged("beacon")
	// 48 devices, every fourth denied, each one keep-alive connection: a
	// burst of 192 packets, enough for four workers to share.
	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/16"), 48)
	if err != nil {
		t.Fatal(err)
	}
	burst := func(port uint16) []*ipv4.Packet {
		var out []*ipv4.Packet
		for d := 0; d < pool.Len(); d++ {
			base := allow
			if d%4 == 0 {
				base = deny
			}
			out = append(out, pool.Rewrite(d, keepAliveBurst(t, base, port, 2))...)
		}
		return out
	}
	plan := FaultPlan{Seed: 9, Drop: 0.05, Duplicate: 0.1, Reorder: 0.1, Delay: 0.1, Corrupt: 0.1, Truncate: 0.1}

	for _, workers := range []int{1, 2, 4} {
		n := newStaticNetwork(ModeTAP, nil)
		enf := shipped(n.Clock, true, enforcer.Config{}, db, eng)
		n.Gateway = gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: workers, Clock: n.Clock})
		reg := metrics.NewRegistry()
		n.Gateway.RegisterMetrics(reg)
		n.Gateway.Sanitizer().RegisterMetrics(reg)
		n.RegisterMetrics(reg)

		var inputs []*ipv4.Packet
		send := func(name string, faults bool, deliver func([]*ipv4.Packet)) {
			if faults {
				n.InstallFaults(plan)
				defer n.ClearFaults()
			}
			pkts := burst(uint16(20000 + len(inputs)))
			inputs = append(inputs, pkts...)
			prints := make([][sha256.Size]byte, len(pkts))
			for i, p := range pkts {
				prints[i] = packetPrint(p)
			}
			deliver(pkts)
			for i, p := range pkts {
				if packetPrint(p) != prints[i] {
					t.Fatalf("%d workers, %s: packet %d changed in delivery: %+v", workers, name, i, p.Header)
				}
			}
		}
		byRoute := func(route Route) func([]*ipv4.Packet) {
			return func(pkts []*ipv4.Packet) {
				for _, p := range pkts {
					n.DeliverRoute(p, route)
				}
			}
		}
		for _, faults := range []bool{false, true} {
			send("DeliverBatch", faults, func(pkts []*ipv4.Packet) { n.DeliverBatch(pkts) })
			send("DeliverInto", faults, func(pkts []*ipv4.Packet) { n.DeliverInto(new(Batch), pkts) })
			send("DeliverRoute direct", faults, byRoute(RouteDirect))
			send("DeliverRoute vpn", faults, byRoute(RouteVPN))
			send("DeliverRoute mobile", faults, byRoute(RouteMobile))
		}
		value := func(family string, labels ...metrics.Label) float64 {
			v, _ := reg.Value(family, labels...)
			return v
		}
		if value("bp_sanitizer_cleansed_total") == 0 || value("bp_conntrack_transitions_total", metrics.L("kind", "closed")) == 0 ||
			value("bp_netsim_faults_total", metrics.L("stage", "corrupt")) == 0 {
			t.Fatalf("%d workers: vacuous run: nothing cleansed, closed or corrupted", workers)
		}
		// Each packet still reads as it did when it was made.
		for i, p := range inputs {
			if _, ok := p.Header.FindOption(ipv4.OptSecurity); !ok || len(p.Header.Options) != 3 {
				t.Fatalf("%d workers: input %d lost its tag or options: %+v", workers, i, p.Header.Options)
			}
		}
	}
}
