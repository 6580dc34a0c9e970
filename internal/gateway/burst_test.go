package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/transport"
)

// splitBy is a pooled burst of pkts, every one of them gw's, split as gw
// splits its bursts.
func splitBy(pkts []*ipv4.Packet, gw *Gateway) *burst {
	gws := make([]*Gateway, len(pkts))
	for i := range gws {
		gws[i] = gw
	}
	b := getBurst(pkts, gws)
	b.split()
	return b
}

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
		gw := NewGateway(GatewayConfig{Enforcer: enf, Workers: tc.workers, Clock: newClock()})
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

// TestSplitIsFlowAffine: the split puts every packet between one pair of
// addresses on one worker, keeps burst order within each worker, and
// covers the burst exactly once.
func TestSplitIsFlowAffine(t *testing.T) {
	plain := plainPacket(getRequest())
	tmpl := func(int) *ipv4.Packet { return plain }
	pkts := deviceBurst(t, 512, tmpl)
	pkts = append(pkts, deviceBurst(t, 512, tmpl)...) // every device twice
	b := splitBy(pkts, NewGateway(GatewayConfig{Workers: 4, Clock: newClock()}))
	defer b.release()
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
		b := splitBy(pkts, NewGateway(GatewayConfig{Workers: tc.workers, Clock: newClock()}))
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

// TestBurstWorkersOwnDisjointShards: at 1, 2, 4 and 8 workers, the flows
// of a 1,024-device fleet-shaped burst (one connection per device, over
// four servers) that different workers own live in different flow-table
// shards, so no two workers write one shard's lock, counters or cells; and
// the connections between one device and one server still spread over at
// least 8 shards.
func TestBurstWorkersOwnDisjointShards(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
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
		b := splitBy(pkts, NewGateway(GatewayConfig{Enforcer: enf, Workers: workers, Clock: newClock()}))
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

// TestEgressCopySharesPayloadKeepsOriginalTag pins what replaced the deep
// clone in front of the sanitizer: the copy loses the tag and shares the
// payload bytes; the original keeps its tag — and its options slice, which
// a selective strip compacts in place — so the FIN still tears the flow's
// cached verdict down; and the copy lands in the worker's slabs, so it
// allocates nothing.
func TestEgressCopySharesPayloadKeepsOriginalTag(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	clock := newClock()
	enf := shipped(clock, true, enforcer.Config{}, db, eng)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	base := taggedPacket(t, apk, db, "sync")
	base.Header.Options = append([]ipv4.Option{{Type: ipv4.OptNOP}}, base.Header.Options...)
	base.Header.Options = append(base.Header.Options, ipv4.Option{Type: ipv4.OptNOP})
	burst := keepAliveBurst(t, base, 41000, 3)
	tagOf := func(p *ipv4.Packet) []byte {
		opt, _ := p.Header.FindOption(ipv4.OptSecurity)
		return opt.Data
	}
	wantTag := append([]byte(nil), tagOf(burst[0])...)

	outcomes, err := gw.ProcessBatch(burst[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Out == nil {
			t.Fatalf("packet %d dropped", i)
		}
		if _, tagged := o.Out.Header.FindOption(ipv4.OptSecurity); tagged {
			t.Fatalf("packet %d left the gateway tagged", i)
		}
		if &o.Out.Payload[0] != &burst[i].Payload[0] {
			t.Fatalf("packet %d: sanitized copy has its own payload bytes", i)
		}
		if got := burst[i].Header.Options; len(got) != 3 || got[0].Type != ipv4.OptNOP ||
			got[2].Type != ipv4.OptNOP || !bytes.Equal(tagOf(burst[i]), wantTag) {
			t.Fatalf("packet %d: original's options damaged by the strip: %+v", i, got)
		}
	}
	if st := flowCounts(enf); st["live"] != 1 {
		t.Fatalf("mid-connection flow stats %+v", st)
	}
	// The rest of the path: the FIN's teardown keys on the original's tag.
	fin, err := gw.ProcessBatch(burst[4:])
	if err != nil || fin[0].Out == nil || !fin[0].Out.Header.HasOptions() {
		t.Fatalf("FIN: out %+v err %v", fin[0].Out, err)
	}
	if st := flowCounts(enf); st["live"] != 0 {
		t.Fatalf("FIN did not tear the flow down: %+v", st)
	}

	bw := &burstWorker{egress: make([]ipv4.Packet, 0, 1), opts: make([]ipv4.Option, 0, len(base.Header.Options))}
	if allocs := testing.AllocsPerRun(100, func() {
		bw.egress, bw.opts = bw.egress[:0], bw.opts[:0]
		bw.egressCopy(base)
	}); allocs != 0 {
		t.Fatalf("egressCopy: %.0f allocs, want 0", allocs)
	}
}
