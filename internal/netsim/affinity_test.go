package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"borderpatrol/internal/dns"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// flowKeyOf is the flow-table key the enforcer files a tagged packet
// under: its tuple with the peeked ports, its protocol and its tag digest.
func flowKeyOf(t testing.TB, pkt *ipv4.Packet) flowtable.Key {
	t.Helper()
	opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
	if !ok {
		t.Fatal("untagged packet has no flow key")
	}
	var info transport.Info
	transport.PeekPacket(pkt, &info)
	k := flowtable.Key{Proto: pkt.Header.Protocol}
	if k.Tuple, ok = transport.TupleOf(&pkt.Header, info.SrcPort, info.DstPort); !ok || !k.SetTag(opt.Data) {
		t.Fatal("packet bypasses the flow cache")
	}
	return k
}

// TestBurstWorkersOwnDisjointShards: at 1, 2, 4 and 8 workers, the flows
// of a 1,024-device fleet-shaped burst (one connection per device, over
// four servers) that different workers own live in different flow-table
// shards, so no two workers write one shard's lock, counters or cells; and
// the connections between one device and one server still spread over at
// least 8 shards.
func TestBurstWorkersOwnDisjointShards(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Clock: NewClock()})
	servers := []netip.Addr{
		netip.MustParseAddr("93.184.216.34"), netip.MustParseAddr("93.184.216.35"),
		netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("203.0.113.80"),
	}
	base := taggedPacket(t, apk, db, "sync")
	pkts := deviceBurst(t, 1024, func(i int) *ipv4.Packet {
		_, data, _ := tcpConn(t, base, uint16(20000+i), 1)
		data[0].Header.Dst = servers[i%len(servers)]
		return data[0]
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b := getBurst(pkts)
		for i := range b.gws {
			b.gws[i] = gw
		}
		b.split(workers)
		if len(b.workers) != workers {
			t.Fatalf("a %d-packet burst split over %d workers, want %d", len(pkts), len(b.workers), workers)
		}
		owner := map[int]int{}
		for w := range b.workers {
			for _, i := range b.workers[w].idx {
				s := flowKeyOf(t, pkts[i]).Shard()
				if o, ok := owner[s]; ok && o != w {
					t.Fatalf("%d workers: shard %d holds flows of workers %d and %d", workers, s, o, w)
				}
				owner[s] = w
			}
		}
		b.release()
		if workers > 1 && len(owner) < 2*workers {
			t.Fatalf("%d workers: the burst reached only %d shards", workers, len(owner))
		}
	}
	shards := map[int]bool{}
	for port := uint16(0); port < 256; port++ {
		_, data, _ := tcpConn(t, base, 30000+port, 1)
		shards[flowKeyOf(t, data[0]).Shard()] = true
	}
	if len(shards) < 8 {
		t.Fatalf("256 connections of one device–server pair reached %d shards, want at least 8", len(shards))
	}
}

// TestCountersExactUnderConcurrentBursts: four goroutines deliver fleet
// bursts (SYN, request and FIN phases of allowed and denied connections,
// and of connections with a truncated tag) and tagged DNS queries, four
// back to back per device, on one Network, each from devices of its own,
// while another scrapes the registry in a loop. No counter or histogram
// series ever decreases, and when the senders are done the
// counts add up exactly: every packet is one verdict and one flow-table
// hit, batch-memo hit or miss; the drops by cause sum to the drops; the
// sanitizer stripped every allowed packet; and the live gauge is the
// flows the shards hold, so purging them leaves it at zero. Run it with
// -race: the per-burst tallies and per-shard counters are shared state.
func TestCountersExactUnderConcurrentBursts(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	if err := setRules(eng, []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}); err != nil {
		t.Fatal(err)
	}
	n := newStaticNetwork(ModeTAP, nil)
	enf := shipped(n.Clock, true, enforcer.Config{}, db, eng)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: 4, Clock: n.Clock})
	n.Gateway = gw
	dnsAddr := netip.MustParseAddr("10.53.0.53")
	zone := dns.NewZone()
	if err := zone.AddRecord("files.corp.example", serverAddr()); err != nil {
		t.Fatal(err)
	}
	n.AddServer(&Server{Addr: dnsAddr, UDPHandler: dns.ZoneHandler(zone), Internal: true})
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	gw.RegisterMetrics(reg)
	enf.RegisterMetrics(reg)
	gw.Sanitizer().RegisterMetrics(reg)

	payload, err := (&dns.Query{ID: 7, Name: "files.corp.example"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	query := taggedPacket(t, apk, db, "sync")
	query.Header.Protocol, query.Header.Dst = ipv4.ProtoUDP, dnsAddr
	query.Payload = (&transport.UDPDatagram{SrcPort: 5353, DstPort: 53, Payload: payload}).Marshal()
	const senders, devices = 4, 256
	traffic := make([][][]*ipv4.Packet, senders)
	for g := range traffic {
		pool, err := NewDevicePool(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(128 + g), 0, 0}), 16), devices)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			var phases [4][]*ipv4.Packet
			for d := 0; d < devices; d++ {
				var conn []*ipv4.Packet
				switch d % 4 {
				case 0:
					conn = keepAliveBurst(t, taggedPacket(t, apk, db, "beacon"), uint16(20000+round), 2)
				case 1:
					// A connection whose tag is truncated: every packet a miss.
					conn = keepAliveBurst(t, taggedPacket(t, apk, db, "sync"), uint16(20000+round), 2)
					for _, p := range conn {
						p.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{tag.Version << 4, 1, 2}})
					}
				case 2:
					conn = keepAliveBurst(t, taggedPacket(t, apk, db, "sync"), uint16(20000+round), 2)
				default:
					// Four queries back to back in one phase: the batch
					// memo answers the last three.
					ph := d / 4 % len(phases)
					phases[ph] = append(phases[ph], pool.Rewrite(d, []*ipv4.Packet{query, query, query, query})...)
					continue
				}
				for ph, p := range pool.Rewrite(d, conn) {
					phases[ph] = append(phases[ph], p)
				}
			}
			traffic[g] = append(traffic[g], phases[:]...)
		}
	}

	series := func() map[string]float64 {
		out := map[string]float64{}
		for _, smp := range reg.Snapshot() {
			switch smp.Kind {
			case metrics.KindCounter:
				out[smp.Name+fmt.Sprint(smp.Labels)] = smp.Value
			case metrics.KindHistogram:
				out[smp.Name+fmt.Sprint(smp.Labels)] = float64(smp.Hist.Count())
			}
		}
		return out
	}
	// The senders start once the scraper has its first reading.
	done, started := make(chan struct{}), make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		last := series()
		close(started)
		for {
			select {
			case <-done:
				return
			default:
			}
			now := series()
			for name, v := range last {
				if now[name] < v {
					t.Errorf("%s went from %v to %v", name, v, now[name])
				}
			}
			last = now
		}
	}()

	var sent, allowed [senders]uint64
	var wg sync.WaitGroup
	<-started
	for g := range traffic {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := new(Batch)
			for _, burst := range traffic[g] {
				for _, d := range n.DeliverInto(h, burst) {
					sent[g]++
					if d.Enforcement == nil {
						t.Errorf("sender %d: a packet crossed the gateway unenforced", g)
						return
					}
					if d.Enforcement.Verdict == policy.VerdictAllow {
						allowed[g]++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	scraper.Wait()

	var packets, allows uint64
	for g := range sent {
		packets, allows = packets+sent[g], allows+allowed[g]
	}
	value := func(family string, labels ...metrics.Label) uint64 {
		v, _ := reg.Value(family, labels...)
		return uint64(v)
	}
	hits, memo, misses := value("bp_flowtable_hits_total"), value("bp_enforcer_batch_memo_hits_total"), value("bp_flowtable_misses_total")
	verdicts := value("bp_enforcer_verdicts_total")
	if hits == 0 || memo == 0 || misses == 0 || hits+memo+misses != verdicts || verdicts != packets {
		t.Errorf("%d flow hits + %d memo hits + %d misses, %d verdicts, %d packets sent; want all three nonzero and the sums equal",
			hits, memo, misses, verdicts, packets)
	}
	drops := value("bp_enforcer_verdicts_total", metrics.L("decision", "drop"))
	policyDrops := value("bp_enforcer_drops_total", metrics.L("cause", enforcer.DropPolicy.String()))
	malformed := value("bp_enforcer_drops_total", metrics.L("cause", enforcer.DropMalformedTag.String()))
	if byCause := value("bp_enforcer_drops_total"); byCause != drops || policyDrops == 0 || malformed == 0 {
		t.Errorf("drops by cause sum to %d (%d policy, %d malformed-tag), drops %d", byCause, policyDrops, malformed, drops)
	}
	if cleansed := value("bp_sanitizer_cleansed_total"); allows == 0 || cleansed != allows {
		t.Errorf("%d packets cleansed, %d tagged packets allowed", cleansed, allows)
	}
	live := value("bp_flowtable_live")
	enf.PurgeFlows()
	if after := value("bp_flowtable_live"); live == 0 || after != 0 {
		t.Errorf("bp_flowtable_live read %d, and %d once the shards were emptied; want it to have counted their flows", live, after)
	}
}
