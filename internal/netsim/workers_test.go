package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"net/netip"
	"reflect"
	"testing"

	"borderpatrol/internal/dns"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/transport"
)

// deviceBurst is one packet from each of n distinct devices: tmpl(i)
// re-addressed to device i.
func deviceBurst(t testing.TB, n int, tmpl func(i int) *ipv4.Packet) []*ipv4.Packet {
	t.Helper()
	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/16"), n)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*ipv4.Packet, n)
	for i := range pkts {
		pkts[i] = pool.Rewrite(i, []*ipv4.Packet{tmpl(i)})[0]
	}
	return pkts
}

// stageCalls counts enf's ProcessBatch calls: bp_enforcer_batch_packets
// takes one sample per call, so one per worker that ran a share.
func stageCalls(enf *enforcer.Enforcer) int {
	return int(count(enf, "bp_enforcer_batch_packets"))
}

// TestFlowAffineShortBurstRunsInline pins the fan-out floor: a burst is
// split only into parts of minWorkerBurst packets each on average, so a
// connection-sized burst reaches the enforcer once, on the caller's
// goroutine.
func TestFlowAffineShortBurstRunsInline(t *testing.T) {
	for _, tc := range []struct{ pkts, workers, wantCalls int }{
		{3, 4, 1},
		{34, 2, 1},
		{2*minWorkerBurst - 1, 4, 1},
		{2 * minWorkerBurst, 4, 2},
		{1024, 4, 4},
		{1024, 1, 1},
	} {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Workers: tc.workers, Clock: NewClock()})
		sync := taggedPacket(t, apk, db, "sync")
		pkts := deviceBurst(t, tc.pkts, func(int) *ipv4.Packet { return sync })
		res, err := gw.ProcessBatch(pkts)
		if err != nil || len(res) != tc.pkts {
			t.Fatalf("%d packets: %d results, err %v", tc.pkts, len(res), err)
		}
		for i := range res {
			if res[i].Out != pkts[i] || res[i].Result == nil || res[i].Result.Verdict != policy.VerdictAllow {
				t.Fatalf("%d packets: result %d misaligned: %+v", tc.pkts, i, res[i])
			}
		}
		if got := stageCalls(enf); got != tc.wantCalls {
			t.Errorf("%d packets over %d workers: %d stage calls, want %d", tc.pkts, tc.workers, got, tc.wantCalls)
		}
	}
}

// TestFlowAffineParallelWorkers pushes a burst from 1,024 devices, every
// seventh of them sending denied traffic, through four workers under
// -race: every worker takes a share, every packet gets exactly one
// verdict, and outcomes align with the input.
func TestFlowAffineParallelWorkers(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Workers: 4, Clock: NewClock()})
	sync, beacon := taggedPacket(t, apk, db, "sync"), taggedPacket(t, apk, db, "beacon")
	evil := func(i int) bool { return i%7 == 0 }
	pkts := deviceBurst(t, 1024, func(i int) *ipv4.Packet {
		if evil(i) {
			return beacon
		}
		return sync
	})
	res, err := gw.ProcessBatch(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if got := stageCalls(enf); got != 4 {
		t.Fatalf("%d workers ran the enforcer, want all 4", got)
	}
	if got := count(enf, "bp_enforcer_verdicts_total"); got != uint64(len(pkts)) {
		t.Fatalf("%d verdicts for %d packets", got, len(pkts))
	}
	for i, o := range res {
		want, out := policy.VerdictAllow, pkts[i]
		if evil(i) {
			want, out = policy.VerdictDrop, nil
		}
		if o.Result == nil || o.Result.Verdict != want || o.Out != out {
			t.Fatalf("packet %d: outcome %+v misaligned", i, o)
		}
	}
}

// TestFlowAffineOneDeviceOneWorker: a 200-packet connection from one
// device stays on one worker, in burst order, however many workers the
// gateway has — so its FIN is observed only after each data segment was
// served and its response checked on the open connection.
func TestFlowAffineOneDeviceOneWorker(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: 4, Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)
	burst := keepAliveBurst(t, taggedPacket(t, apk, db, "sync"), 41000, 198)

	for i, d := range n.DeliverBatch(burst) {
		if !d.Delivered || d.ResponseDropped || (d.Response == nil) != (i == 0 || i == len(burst)-1) {
			t.Fatalf("packet %d: %+v", i, d)
		}
	}
	if got := stageCalls(enf); got != 1 {
		t.Fatalf("%d stage calls for one connection, want one worker's", got)
	}
	st := conntrack(gw.ct)
	if st["established"] != 1 || st["closed"] != 1 || st["checked"] != 198 || st["adopted"] != 0 || st["late"] != 0 || st["seq_drop"] != 0 {
		t.Fatalf("conntrack: %+v, want every response checked after the SYN and before the FIN", st)
	}
}

// TestSplitIsFlowAffine: the split puts every packet between one pair of
// addresses on one worker, keeps burst order within each worker, and
// covers the burst exactly once.
func TestSplitIsFlowAffine(t *testing.T) {
	plain := plainPacket(getRequest())
	tmpl := func(int) *ipv4.Packet { return plain }
	pkts := deviceBurst(t, 512, tmpl)
	pkts = append(pkts, deviceBurst(t, 512, tmpl)...) // every device twice
	b := getBurst(pkts)
	defer b.release()
	b.split(4)
	owner := map[netip.Addr]int{}
	covered := 0
	for w := range b.workers {
		idx := b.workers[w].idx
		for k, i := range idx {
			if k > 0 && idx[k-1] >= i {
				t.Fatalf("worker %d out of burst order", w)
			}
			src := pkts[i].Header.Src
			if o, ok := owner[src]; ok && o != w {
				t.Fatalf("device %v on workers %d and %d", src, o, w)
			}
			owner[src] = w
		}
		covered += len(idx)
	}
	if covered != len(pkts) {
		t.Fatalf("split covers %d of %d packets", covered, len(pkts))
	}
}

// diffRun is everything a run of the differential workload exposes.
type diffRun struct {
	dels    [][]Delivery
	clocks  []int64
	ct      map[string]uint64
	verdict map[string]uint64
	// cleansed is the sanitizer's count; egress is a last ProcessBatch
	// drain of the data phase, its sanitized copies in burst order.
	cleansed uint64
	egress   []*ipv4.Packet
}

// TestWorkerCountChangesNothing is the differential check on the fan-out:
// the same bursts from 256 pooled devices — SYN, data and FIN phases of
// allowed and denied TCP connections and tagged DNS queries over UDP,
// with a policy swap and a swap back between bursts — through gateways
// of 1, 2 and 4 workers must be indistinguishable: every delivery's fate,
// stage, response and latency, the clock after each burst, the
// connection tracker's counters, the enforcer's and sanitizer's counters,
// and the sanitized egress copies of a last drain, packet by packet.
func TestWorkerCountChangesNothing(t *testing.T) {
	_, apk, db := buildEnforcerAndDB(t)
	const devices = 256
	dnsAddr := netip.MustParseAddr("10.53.0.53")
	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/16"), devices)
	if err != nil {
		t.Fatal(err)
	}
	query := func() *ipv4.Packet {
		p := taggedPacket(t, apk, db, "sync")
		q := dns.Query{ID: 7, Name: "files.corp.example"}
		payload, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		dg := transport.UDPDatagram{SrcPort: 5353, DstPort: 53, Payload: payload}
		p.Header.Protocol, p.Header.Dst, p.Payload = ipv4.ProtoUDP, dnsAddr, dg.Marshal()
		return p
	}
	// Four phases per device; a DNS device queries in every phase.
	phases := make([][]*ipv4.Packet, 4)
	for i := 0; i < devices; i++ {
		var conn []*ipv4.Packet
		switch i % 4 {
		case 0, 1:
			conn = keepAliveBurst(t, taggedPacket(t, apk, db, "sync"), uint16(41000+i), 2)
		case 2:
			conn = keepAliveBurst(t, taggedPacket(t, apk, db, "beacon"), uint16(41000+i), 2)
		default:
			q := query()
			conn = []*ipv4.Packet{q, q, q, q}
		}
		for ph, p := range pool.Rewrite(i, conn) {
			phases[ph] = append(phases[ph], p)
		}
	}
	strict := []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}

	run := func(workers int) diffRun {
		eng, err := policy.NewEngine(strict, policy.VerdictAllow)
		if err != nil {
			t.Fatal(err)
		}
		clock := NewClock()
		enf := shipped(clock, true, enforcer.Config{}, db, eng)
		gw := NewGateway(GatewayConfig{
			Enforcer: enf, Sanitizer: sanitizer.New(), Workers: workers, Clock: clock,
		})
		n := newStaticNetwork(ModeTAP, gw)
		n.Clock = clock
		zone := dns.NewZone()
		if err := zone.AddRecord("files.corp.example", serverAddr()); err != nil {
			t.Fatal(err)
		}
		n.AddServer(&Server{Addr: dnsAddr, UDPHandler: dns.ZoneHandler(zone), Internal: true})

		var r diffRun
		for ph, burst := range phases {
			switch ph {
			case 2: // allow everything: denied flows' data now passes, mid-stream
				if err := setRules(eng, nil); err != nil {
					t.Fatal(err)
				}
			case 3:
				if err := setRules(eng, strict); err != nil {
					t.Fatal(err)
				}
			}
			if workers > 1 {
				b := getBurst(burst)
				b.split(workers)
				for w := range b.workers {
					if len(b.workers[w].idx) == 0 {
						t.Fatalf("%d workers: worker %d got none of a %d-packet burst", workers, w, len(burst))
					}
				}
				b.release()
			}
			// Each phase's deliveries are kept past the next burst, so they
			// go into storage of their own.
			r.dels = append(r.dels, n.DeliverInto(new(Batch), burst))
			r.clocks = append(r.clocks, int64(n.Clock.Now()))
		}
		r.ct = conntrack(gw.ct)
		r.verdict = verdicts(enf)
		r.cleansed = count(gw.Sanitizer(), "bp_sanitizer_cleansed_total")
		outs, err := gw.ProcessBatch(phases[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Out != nil {
				r.egress = append(r.egress, o.Out)
			}
		}
		return r
	}

	want := run(1)
	var checked, dropped, answered int
	for _, d := range want.dels {
		for _, del := range d {
			if del.Response != nil || del.Datagram != nil {
				answered++
			}
			if !del.Delivered {
				dropped++
			}
		}
	}
	if answered == 0 || dropped == 0 || want.ct["adopted"] == 0 || want.ct["closed"] == 0 || want.verdict["decision=drop"] == 0 || len(want.egress) == 0 {
		t.Fatalf("workload too narrow: answered %d, dropped %d, conntrack %+v, verdicts %+v, egress %d", answered, dropped, want.ct, want.verdict, len(want.egress))
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for ph := range want.dels {
			for i, w := range want.dels[ph] {
				g := got.dels[ph][i]
				checked++
				if g.Delivered != w.Delivered || g.Stage != w.Stage || g.ResponseDropped != w.ResponseDropped ||
					g.Latency != w.Latency || (g.Response == nil) != (w.Response == nil) || !bytes.Equal(g.Datagram, w.Datagram) {
					t.Fatalf("%d workers, phase %d, packet %d: %+v, with one worker %+v", workers, ph, i, g, w)
				}
			}
		}
		if !reflect.DeepEqual(got.clocks, want.clocks) {
			t.Fatalf("%d workers: clock after each burst %v, with one worker %v", workers, got.clocks, want.clocks)
		}
		if !maps.Equal(got.ct, want.ct) {
			t.Fatalf("%d workers: conntrack %+v, with one worker %+v", workers, got.ct, want.ct)
		}
		if !reflect.DeepEqual(got.verdict, want.verdict) {
			t.Fatalf("%d workers: verdicts %+v, with one worker %+v", workers, got.verdict, want.verdict)
		}
		if got.cleansed != want.cleansed {
			t.Fatalf("%d workers: %d packets cleansed, with one worker %d", workers, got.cleansed, want.cleansed)
		}
		if len(got.egress) != len(want.egress) {
			t.Fatalf("%d workers: %d packets egress, with one worker %d", workers, len(got.egress), len(want.egress))
		}
		for i := range want.egress {
			g, w := got.egress[i], want.egress[i]
			if g.Header.Src != w.Header.Src || g.Header.Dst != w.Header.Dst || g.Header.HasOptions() || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("%d workers: egress %d is %v→%v, with one worker %v→%v", workers, i, g.Header.Src, g.Header.Dst, w.Header.Src, w.Header.Dst)
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing compared")
	}
}

// BenchmarkDeliverBatchFleet is the fleet workload's burst shape through
// DeliverBatch: 1,024 packets from 1,024 pooled devices, phase-major (a
// burst of SYNs, one of requests, one of FINs), every packet of a burst
// another flow. Reported ns/op and allocs/op are per packet. Source ports
// cycle so every connection's predecessor on its tuple has left
// TIME_WAIT.
func BenchmarkDeliverBatchFleet(b *testing.B) {
	n, _, _, base := tailFixture(b)
	const devices = 1024
	bursts := fleetBursts(b, base, devices, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i, k = i+devices, k+1 {
		for _, d := range n.DeliverBatch(bursts[k%len(bursts)]) {
			if !d.Delivered || d.ResponseDropped {
				b.Fatalf("delivery: %+v", d)
			}
		}
	}
}

// fleetBursts is the fleet workload's traffic: rounds connections (SYN,
// one request, FIN) from each of devices pooled devices, phase-major, so
// each burst holds one packet per device. Round r's connections leave from
// source port 20000+r.
func fleetBursts(tb testing.TB, base *ipv4.Packet, devices, rounds int) [][]*ipv4.Packet {
	tb.Helper()
	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/16"), devices)
	if err != nil {
		tb.Fatal(err)
	}
	var bursts [][]*ipv4.Packet
	for r := 0; r < rounds; r++ {
		conn := keepAliveBurst(tb, base, uint16(20000+r), 1)
		phases := make([][]*ipv4.Packet, len(conn))
		for i := 0; i < devices; i++ {
			for ph, p := range pool.Rewrite(i, conn) {
				phases[ph] = append(phases[ph], p)
			}
		}
		bursts = append(bursts, phases...)
	}
	return bursts
}

// TestFlowAffineSplitGolden pins the flow-affine split itself: a fixed
// 1,024-packet fleet burst — one packet per pooled device, spread over four
// servers — lands packet for packet on the workers recorded here, at 2 and
// at 4 workers. A change to the worker hash would move flows between
// workers and fails this test.
func TestFlowAffineSplitGolden(t *testing.T) {
	servers := []netip.Addr{
		netip.MustParseAddr("93.184.216.34"), netip.MustParseAddr("93.184.216.35"),
		netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("203.0.113.80"),
	}
	pkts := deviceBurst(t, 1024, func(i int) *ipv4.Packet {
		p := fwdPkt(transport.FlagPSH|transport.FlagACK, 1, getRequest())
		p.Header.Dst = servers[i%len(servers)]
		return p
	})
	for _, tc := range []struct {
		workers int
		want    string
	}{
		{2, "cfec088db73e70c7"},
		{4, "9948006025613c9a"},
	} {
		b := getBurst(pkts)
		b.split(tc.workers)
		of := make([]byte, len(pkts))
		for w := range b.workers {
			for _, i := range b.workers[w].idx {
				of[i] = byte(w)
			}
		}
		b.release()
		sum := sha256.Sum256(of)
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%d workers: split digest %s, want %s", tc.workers, got, tc.want)
		}
	}
}

// BenchmarkDeliverBatchDNS is the churn workload's burst shape through
// DeliverBatch: 1,024 tagged DNS queries over UDP from 1,024 pooled
// devices, each flow sending four, answered by a dns.ZoneHandler. Reported
// ns/op and allocs/op are per packet.
func BenchmarkDeliverBatchDNS(b *testing.B) {
	n, _, _, base := tailFixture(b)
	dnsAddr := netip.MustParseAddr("10.53.0.53")
	zone := dns.NewZone()
	if err := zone.AddRecord("files.corp.example", serverAddr()); err != nil {
		b.Fatal(err)
	}
	n.AddServer(&Server{Addr: dnsAddr, UDPHandler: dns.ZoneHandler(zone), Internal: true})
	payload, err := (&dns.Query{ID: 7, Name: "files.corp.example"}).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	const devices, rounds, perFlow = 1024, 4, 4
	var bursts [][]*ipv4.Packet
	for r := 0; r < rounds; r++ {
		dg := transport.UDPDatagram{SrcPort: uint16(5300 + r), DstPort: 53, Payload: payload}
		burst := deviceBurst(b, devices, func(int) *ipv4.Packet {
			p := *base
			p.Header.Protocol, p.Header.Dst, p.Payload = ipv4.ProtoUDP, dnsAddr, dg.Marshal()
			return &p
		})
		for i := 0; i < perFlow; i++ {
			bursts = append(bursts, burst)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i, k = i+devices, k+1 {
		for _, d := range n.DeliverBatch(bursts[k%len(bursts)]) {
			if !d.Delivered || d.Datagram == nil {
				b.Fatalf("delivery: %+v", d)
			}
		}
	}
}
