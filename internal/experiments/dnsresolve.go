package experiments

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/dns"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
)

// DNSResolutionResult is the DNS-over-UDP workload: the first non-HTTP
// traffic through the full stack. A provisioned app's resolver opens UDP
// sockets to the corporate DNS server; the Context Manager tags them like
// any socket, the gateway policy-checks every query datagram (flow-cached
// on the UDP 5-tuple), and the zone answers over the same path. A second,
// deny-listed component tries to resolve its rendezvous name — those
// queries must die at the gateway, which is exactly the enforcement DNS
// blocklists cannot express per-functionality (§VI-C).
type DNSResolutionResult struct {
	// QueriesSent counts query datagrams the device emitted.
	QueriesSent int
	// Answered counts queries that came back with a usable answer.
	Answered int
	// NXDomain counts answered queries for names the zone lacks.
	NXDomain int
	// Blocked counts query datagrams dropped by the Policy Enforcer.
	Blocked int
	// Resolved maps each successfully resolved name to its address set.
	Resolved map[string][]netip.Addr
	// ZoneQueries is how many queries actually reached the zone — blocked
	// ones must not.
	ZoneQueries uint64
	// FlowHits and FlowMisses read the verdict cache: repeat queries on one
	// socket are answered by UDP-5-tuple cache hits.
	FlowHits, FlowMisses uint64
	// MemoHits counts repeats answered by the batch drain's same-flow
	// memo (adjacent packets of one burst skip even the table probe).
	MemoHits uint64
	// ConnsEstablished and ConnsOpen read the gateway tracker: UDP is
	// connectionless, so this workload must not register connections.
	ConnsEstablished, ConnsOpen uint64
}

// dnsServerAddr is the corporate resolver behind the gateway.
var dnsServerAddr = netip.AddrPortFrom(netip.MustParseAddr("10.66.0.53"), 53)

// dnsQuery marshals a query for a name, failing the experiment on
// malformed names rather than panicking.
func dnsQuery(id uint16, name string) ([]byte, error) {
	return (&dns.Query{ID: id, Name: name}).Marshal()
}

// RunDNSResolution stands up the zone, the resolver app and the gateway,
// and pushes tagged DNS-over-UDP queries through enforcement end to end.
func RunDNSResolution() (*DNSResolutionResult, error) {
	zone := dns.NewZone()
	records := map[string]string{
		"files.corp.example": "10.80.0.10",
		"mail.corp.example":  "10.80.0.20",
		"c2.tracker.example": "203.0.113.66", // present, but unreachable through policy
	}
	for name, addr := range records {
		if err := zone.AddRecord(name, netip.MustParseAddr(addr)); err != nil {
			return nil, err
		}
	}

	qFiles, err := dnsQuery(1, "files.corp.example")
	if err != nil {
		return nil, err
	}
	qGhost, err := dnsQuery(2, "ghost.corp.example") // not in the zone
	if err != nil {
		return nil, err
	}
	qC2, err := dnsQuery(3, "c2.tracker.example")
	if err != nil {
		return nil, err
	}

	app := scriptedApp("com.corp.resolver", "com/corp/resolver", []scriptedFn{
		{name: "resolve-files", desirable: true, class: "Resolver", method: "lookup",
			op: android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: qFiles, Requests: 3}},
		{name: "resolve-ghost", desirable: true, class: "Resolver", method: "lookupMissing",
			op: android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: qGhost}},
		{name: "resolve-c2", desirable: false, class: "Beacon", method: "phoneHome",
			op: android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: qC2, Requests: 2}},
	})

	rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelClass, Target: "com/corp/resolver/Beacon"}}
	tb, err := NewTestbed([]*apkgen.App{app}, TestbedConfig{
		EnforcementOn: true, Rules: rules, DefaultVerdict: policy.VerdictAllow,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	// Replace the default HTTP endpoint at the resolver's address with the
	// UDP zone server (inside the perimeter, like a corporate resolver).
	tb.Network.AddServer(&netsim.Server{
		Addr:       dnsServerAddr.Addr(),
		Name:       "corp-dns",
		UDPHandler: dns.ZoneHandler(zone),
		Internal:   true,
	})

	res := &DNSResolutionResult{Resolved: make(map[string][]netip.Addr)}
	for _, fn := range []string{"resolve-files", "resolve-ghost", "resolve-c2"} {
		inv, err := tb.Apps[0].Invoke(fn)
		if err != nil {
			return nil, err
		}
		res.QueriesSent += len(inv.Packets)
		for i, d := range tb.Network.DeliverBatch(inv.Packets) {
			if !d.Delivered {
				res.Blocked++
				continue
			}
			if d.Datagram == nil {
				return nil, fmt.Errorf("dnsresolve: %s query %d delivered without an answer", fn, i)
			}
			ans, err := dns.ParseAnswer(d.Datagram)
			if err != nil {
				return nil, fmt.Errorf("dnsresolve: %s answer: %w", fn, err)
			}
			res.Answered++
			if ans.RCode == dns.RCodeNXDomain {
				res.NXDomain++
				continue
			}
			name := nameForQueryID(ans.ID)
			res.Resolved[name] = ans.Addrs
		}
	}
	res.ZoneQueries = zone.Queries()
	res.FlowHits, res.FlowMisses = tb.count("bp_flowtable_hits_total"), tb.count("bp_flowtable_misses_total")
	res.MemoHits = tb.count("bp_enforcer_batch_memo_hits_total")
	res.ConnsEstablished = tb.count("bp_conntrack_transitions_total", metrics.L("kind", "established"))
	res.ConnsOpen = tb.count("bp_conntrack_connections", metrics.L("state", "open"))
	return res, nil
}

// nameForQueryID maps the experiment's fixed transaction IDs back to
// names (the answer wire format does not echo the question section).
func nameForQueryID(id uint16) string {
	switch id {
	case 1:
		return "files.corp.example"
	case 2:
		return "ghost.corp.example"
	case 3:
		return "c2.tracker.example"
	default:
		return fmt.Sprintf("id-%d", id)
	}
}

// Format renders the DNS workload outcome.
func (r *DNSResolutionResult) Format() string {
	var b strings.Builder
	b.WriteString("DNS over UDP through the gateway (transport-layer workload)\n")
	fmt.Fprintf(&b, "queries sent: %d, answered: %d (%d NXDOMAIN), blocked at gateway: %d\n",
		r.QueriesSent, r.Answered, r.NXDomain, r.Blocked)
	names := make([]string, 0, len(r.Resolved))
	for n := range r.Resolved {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-24s -> %v\n", n, r.Resolved[n])
	}
	fmt.Fprintf(&b, "zone served %d queries (blocked ones never arrived)\n", r.ZoneQueries)
	fmt.Fprintf(&b, "flow cache: %d hits (+%d memo), %d misses on UDP 5-tuples; conntrack: %d established, %d open (UDP untracked)\n",
		r.FlowHits, r.MemoHits, r.FlowMisses, r.ConnsEstablished, r.ConnsOpen)
	return b.String()
}
