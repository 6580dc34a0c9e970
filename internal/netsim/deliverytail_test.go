package netsim

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/transport"
)

// tailFixture is a gateway (flow-cached enforcer + sanitizer, capture off)
// in front of the static server, and the tagged keep-alive request its
// connections carry.
func tailFixture(tb testing.TB) (*Network, *Gateway, *enforcer.FlowCache, *ipv4.Packet) {
	tb.Helper()
	enf0, apk, db := buildEnforcerAndDB(tb)
	flows := enforcer.NewFlowCache(flowtable.Config{Capacity: 4096})
	enf := enforcer.New(enforcer.Config{Flows: flows}, db, enf0.Engine())
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New()})
	n := newStaticNetwork(ModeTAP, gw)
	n.SetCapture(false)
	base := taggedPacket(tb, apk, db, "sync")
	base.Payload = plainPacket((&httpsim.Request{Method: "GET", Path: "/static/page.html", Host: "example", KeepAlive: true}).Marshal()).Payload
	return n, gw, flows, base
}

// keepAliveBurst is one connection as the device emits it: SYN, n
// requests, FIN.
func keepAliveBurst(t testing.TB, base *ipv4.Packet, srcPort uint16, n int) []*ipv4.Packet {
	syn, data, fin := tcpConn(t, base, srcPort, n)
	return append(append([]*ipv4.Packet{syn}, data...), fin)
}

// TestEgressCopySharesPayloadKeepsOriginalTag pins what replaced the deep
// clone in front of the sanitizer: the copy loses the tag and shares the
// payload bytes; the original keeps its tag — and its options slice, which
// a selective strip compacts in place — so the FIN still tears the flow's
// cached verdict down; and the copy lands in the worker's slabs, so it
// allocates nothing.
func TestEgressCopySharesPayloadKeepsOriginalTag(t *testing.T) {
	_, gw, flows, base := tailFixture(t)
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
	if st := flowCounts(flows); st["live"] != 1 {
		t.Fatalf("mid-connection flow stats %+v", st)
	}
	// The rest of the path: the FIN's teardown keys on the original's tag.
	fin, err := gw.ProcessBatch(burst[4:])
	if err != nil || fin[0].Out == nil || !fin[0].Out.Header.HasOptions() {
		t.Fatalf("FIN: out %+v err %v", fin[0].Out, err)
	}
	if st := flowCounts(flows); st["live"] != 0 {
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

// TestDeliveryTailAllocatesNothingPerPacket pins the ownership of the
// delivery tail: the egress copies live in the burst's slabs, the request
// is parsed into the worker's Request and the static handler's responses
// are shared, so a keep-alive connection of 64 requests costs DeliverBatch
// the same allocations as one of 8 — per burst, none per packet. Each
// size's count is the least over 32 bursts, not their mean: the race
// detector makes sync.Pool drop a share of what is put back, so now and
// then a burst starts from fresh, unsized scratch.
func TestDeliveryTailAllocatesNothingPerPacket(t *testing.T) {
	perBurst := func(requests int) float64 {
		n, _, _, base := tailFixture(t)
		bursts := make([][]*ipv4.Packet, 64)
		for i := range bursts {
			bursts[i] = keepAliveBurst(t, base, uint16(20000+i), requests)
		}
		least, k := math.Inf(1), 0
		deliver := func() {
			for i, d := range n.DeliverBatch(bursts[k]) {
				if !d.Delivered || d.ResponseDropped || (i > 0 && i <= requests && d.Response == nil) {
					t.Fatalf("burst %d packet %d: %+v", k, i, d)
				}
			}
			k++
		}
		for k < len(bursts) {
			// One warm-up burst, then one measured.
			least = min(least, testing.AllocsPerRun(1, deliver))
		}
		return least
	}
	if short, long := perBurst(8), perBurst(64); short != long {
		t.Fatalf("DeliverBatch: %.0f allocs for 8 requests, %.0f for 64: the tail allocates per packet", short, long)
	}
}

// TestProcessBatchOutcomesOutlivePool pins that ProcessBatch hands its
// egress copies to the caller: the outcomes it returned are byte for byte
// what they were after later bursts have reused the pooled burst memory.
func TestProcessBatchOutcomesOutlivePool(t *testing.T) {
	n, gw, _, base := tailFixture(t)
	outcomes, err := gw.ProcessBatch(keepAliveBurst(t, base, 41000, 8))
	if err != nil {
		t.Fatal(err)
	}
	wire := make([][]byte, len(outcomes))
	results := make([]enforcer.Result, len(outcomes))
	for i, o := range outcomes {
		if o.Out == nil || o.Result == nil {
			t.Fatalf("packet %d: %+v", i, o)
		}
		if wire[i], err = o.Out.Marshal(); err != nil {
			t.Fatal(err)
		}
		results[i] = *o.Result
	}

	for r := 0; r < 100; r++ {
		for i, d := range n.DeliverBatch(keepAliveBurst(t, base, uint16(42000+r), 8)) {
			if !d.Delivered {
				t.Fatalf("burst %d packet %d: %+v", r, i, d)
			}
		}
	}

	for i, o := range outcomes {
		got, err := o.Out.Marshal()
		if err != nil || !bytes.Equal(got, wire[i]) {
			t.Fatalf("packet %d changed after later bursts: %x, was %x (err %v)", i, got, wire[i], err)
		}
		if !reflect.DeepEqual(*o.Result, results[i]) {
			t.Fatalf("packet %d: result changed after later bursts: %+v, was %+v", i, *o.Result, results[i])
		}
	}
}

// TestResponseSegmentRenderedInScratch pins the response path's reuse: the
// segment rendered into a recycled packet is still a valid wire segment
// (transport.ParseTCP, checksum included), successive responses continue
// the connection's sequence, and steady state allocates nothing.
func TestResponseSegmentRenderedInScratch(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	fwd := fwdPkt(transport.FlagPSH|transport.FlagACK, 100, getRequest())
	info, ok := transport.PeekPacket(fwd)
	if !ok {
		t.Fatal("fixture does not peek")
	}
	k, ok := makeConnKey(fwd.Header.Src, fwd.Header.Dst, info.SrcPort, info.DstPort)
	if !ok {
		t.Fatal("fixture is not IPv4")
	}
	scratch := new(ipv4.Packet)
	var next uint32
	for i, body := range [][]byte{httpsim.StaticPage(), []byte("short"), nil, httpsim.StaticPage()} {
		resp := n.responsePacket(scratch, fwd, k, body)
		if resp != scratch || resp.Header.Src != fwd.Header.Dst || resp.Header.Dst != fwd.Header.Src {
			t.Fatalf("response %d: header %+v", i, resp.Header)
		}
		seg, err := transport.ParseTCP(resp.Payload)
		if err != nil {
			t.Fatalf("response %d does not parse: %v", i, err)
		}
		if seg.SrcPort != info.DstPort || seg.DstPort != info.SrcPort || !bytes.Equal(seg.Payload, body) {
			t.Fatalf("response %d: segment %+v", i, seg)
		}
		if i > 0 && seg.Seq != next {
			t.Fatalf("response %d: seq %d, want %d", i, seg.Seq, next)
		}
		next = seg.Seq + uint32(len(body))
	}
	body := httpsim.StaticPage()
	if allocs := testing.AllocsPerRun(100, func() { n.responsePacket(scratch, fwd, k, body) }); allocs != 0 {
		t.Fatalf("steady-state response render: %.0f allocs, want 0", allocs)
	}
}

// TestRespSeqTrimmedOnClose pins that the server-side sequence map follows
// open connections: more sequential connections than its cap leave no
// entry behind, so connections that stayed open throughout are never
// evicted and their responses keep passing the gateway's continuity check.
func TestRespSeqTrimmedOnClose(t *testing.T) {
	n, gw, _, base := tailFixture(t)
	const longLived = 8
	var open [][]*ipv4.Packet
	for c := 0; c < longLived; c++ {
		burst := keepAliveBurst(t, base, uint16(50000+c), 2)
		open = append(open, burst)
		for i, d := range n.DeliverBatch(burst[:2]) {
			if !d.Delivered || (i == 1 && d.Response == nil) {
				t.Fatalf("long-lived connection %d packet %d: %+v", c, i, d)
			}
		}
	}

	// One template connection re-addressed 70,000 times: new source address
	// per connection, same bytes.
	burst := keepAliveBurst(t, base, 40000, 1)
	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/15"), maxRespTracked+4464)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < pool.Len(); c++ {
		for i, d := range n.DeliverBatch(pool.Rewrite(c, burst)) {
			if !d.Delivered || d.ResponseDropped || (i == 1 && d.Response == nil) {
				t.Fatalf("connection %d packet %d: %+v", c, i, d)
			}
		}
	}
	if tracked := respTracked(n); tracked != longLived {
		t.Fatalf("%d response-sequence entries tracked, want the %d open connections", tracked, longLived)
	}

	for c, burst := range open {
		for i, d := range n.DeliverBatch(burst[2:]) {
			if !d.Delivered || d.ResponseDropped || (i == 0 && d.Response == nil) {
				t.Fatalf("long-lived connection %d, after the churn, packet %d: %+v", c, i, d)
			}
		}
	}
	if st := conntrack(gw.ct); st["seq_drop"] != 0 || st["open"] != 0 {
		t.Fatalf("conntrack after every connection closed: %+v", st)
	}
	if tracked := respTracked(n); tracked != 0 {
		t.Fatalf("%d response-sequence entries outlive their connections", tracked)
	}
}

// TestRespSeqFloodKeepsLiveConnection pins respSeq's overflow policy: a
// full shard keeps the connections it recorded and leaves newcomers
// unrecorded. A victim connection opens, then eight times the shard's bound
// of new connections land in the same shard and stay open; the victim's
// next response must still continue its sequence and pass the gateway.
func TestRespSeqFloodKeepsLiveConnection(t *testing.T) {
	n, _, _, base := tailFixture(t)
	victim := keepAliveBurst(t, base, 50000, 2)
	for i, d := range n.DeliverBatch(victim[:2]) {
		if !d.Delivered || (i == 1 && d.Response == nil) {
			t.Fatalf("victim packet %d: %+v", i, d)
		}
	}
	vk, _ := makeConnKey(victim[0].Header.Src, victim[0].Header.Dst, 50000, 443)

	// Flood connections: pooled sources × a few source ports, kept when they
	// hash to the victim's shard; SYN and one request each, never closed.
	var templates [][]*ipv4.Packet
	for p := uint16(0); p < 16; p++ {
		templates = append(templates, keepAliveBurst(t, base, 40000+p, 1)[:2])
	}
	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/12"), 1<<20-2)
	if err != nil {
		t.Fatal(err)
	}
	perShard := maxRespTracked / ctShards
	var burst []*ipv4.Packet
	flood := func() {
		for _, d := range n.DeliverBatch(burst) {
			if !d.Delivered {
				t.Fatalf("flood packet dropped: %+v", d)
			}
		}
		burst = burst[:0]
	}
	for dev, flooded := 0, 0; flooded < 8*perShard; dev++ {
		for p, tmpl := range templates {
			if k, _ := makeConnKey(pool.Addr(dev), victim[0].Header.Dst, 40000+uint16(p), 443); k.shard() == vk.shard() {
				burst = append(burst, pool.Rewrite(dev, tmpl)...)
				flooded++
			}
		}
		if len(burst) >= 1024 {
			flood()
		}
	}
	flood()
	if got, want := n.respUntracked.Load(), uint64(8*perShard-(perShard-1)); got != want {
		t.Fatalf("%d flood responses went unrecorded, want %d (all but the shard's free slots)", got, want)
	}

	d := n.DeliverBatch(victim[2:3])[0]
	if !d.Delivered || d.ResponseDropped || d.Response == nil {
		t.Fatalf("victim's response after the flood: %+v", d)
	}
}

// respTracked counts the response-sequence entries over every shard.
func respTracked(n *Network) int {
	total := 0
	for i := range n.respSeq {
		s := &n.respSeq[i]
		s.mu.Lock()
		total += len(s.next)
		s.mu.Unlock()
	}
	return total
}

// BenchmarkServeKeepAlive is the delivery tail per packet: DeliverBatch of
// one 34-packet keep-alive connection (SYN, 32 requests, FIN) through
// enforcer, sanitizer, conntrack, server-side validation and parse, and
// the response-direction check. Source ports cycle so that every burst is
// a fresh connection whose predecessor on the tuple has left TIME_WAIT.
func BenchmarkServeKeepAlive(b *testing.B) {
	n, _, _, base := tailFixture(b)
	bursts := make([][]*ipv4.Packet, 1024)
	for i := range bursts {
		bursts[i] = keepAliveBurst(b, base, uint16(20000+i), 32)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(bursts[0]) {
		for _, d := range n.DeliverBatch(bursts[i/len(bursts[0])%len(bursts)]) {
			if !d.Delivered || d.ResponseDropped {
				b.Fatalf("delivery: %+v", d)
			}
		}
	}
}
