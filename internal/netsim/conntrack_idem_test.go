package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/transport"
)

// ctSeg builds a bare TCP control/data segment between fixed hosts for
// driving the tracker directly — no tagging or enforcement involved.
func ctSeg(srcPort uint16, flags byte) *ipv4.Packet {
	seg := transport.TCPSegment{
		SrcPort: srcPort, DstPort: 443, Seq: 1, Flags: flags, Window: 65535,
	}
	return &ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.MustParseAddr("192.0.2.10"),
		},
		Payload: seg.Marshal(),
	}
}

// TestConntrackDuplicateFIN: a retransmitted FIN still reports connClosed
// (EndFlow is idempotent, teardown is the safe direction) but must not
// count a second close.
func TestConntrackDuplicateFIN(t *testing.T) {
	clk := NewClock()
	ct := NewConntrack(clk)
	ct.Observe(ctSeg(40000, transport.FlagSYN))
	if !ct.Observe(ctSeg(40000, transport.FlagFIN|transport.FlagACK)) {
		t.Fatal("first FIN did not close")
	}
	if !ct.Observe(ctSeg(40000, transport.FlagFIN|transport.FlagACK)) {
		t.Fatal("duplicate FIN must still report closed (idempotent teardown)")
	}
	st := conntrack(ct)
	if st["established"] != 1 || st["closed"] != 1 || st["dup_close"] != 1 {
		t.Fatalf("stats = %+v, want 1 established / 1 closed / 1 dup", st)
	}
	if st["open"] != 0 || st["time_wait"] != 1 {
		t.Fatalf("tables = %+v, want 0 open / 1 time-wait", st)
	}
}

// TestConntrackRSTAfterFIN: an RST landing after the FIN already closed
// the connection is a duplicate close, not a second one.
func TestConntrackRSTAfterFIN(t *testing.T) {
	ct := NewConntrack(NewClock())
	ct.Observe(ctSeg(40001, transport.FlagSYN))
	ct.Observe(ctSeg(40001, transport.FlagFIN|transport.FlagACK))
	if !ct.Observe(ctSeg(40001, transport.FlagRST)) {
		t.Fatal("RST-after-FIN must still report closed")
	}
	st := conntrack(ct)
	if st["closed"] != 1 || st["dup_close"] != 1 {
		t.Fatalf("stats = %+v, want 1 closed / 1 dup", st)
	}
}

// TestConntrackLateSYNNoResurrection: a delayed handshake retransmission
// arriving while the tuple sits in TIME_WAIT must not re-establish the
// dead connection; after TIME_WAIT expires the tuple is reusable.
func TestConntrackLateSYNNoResurrection(t *testing.T) {
	clk := NewClock()
	ct := NewConntrack(clk)
	ct.Observe(ctSeg(40002, transport.FlagSYN))
	ct.Observe(ctSeg(40002, transport.FlagFIN|transport.FlagACK))

	ct.Observe(ctSeg(40002, transport.FlagSYN)) // reordered dup of the original SYN
	st := conntrack(ct)
	if st["established"] != 1 || st["late_syn"] != 1 || st["open"] != 0 {
		t.Fatalf("late SYN resurrected the flow: %+v", st)
	}

	// Past TIME_WAIT the 5-tuple is legitimately reusable.
	clk.Advance(timeWaitTTL + time.Second)
	ct.Observe(ctSeg(40002, transport.FlagSYN))
	st = conntrack(ct)
	if st["established"] != 2 || st["open"] != 1 || st["time_wait"] != 0 {
		t.Fatalf("tuple not reusable after TIME_WAIT expiry: %+v", st)
	}
}

// TestConntrackDuplicateSYN: a SYN retransmission for a live connection
// refreshes activity without counting a second establishment.
func TestConntrackDuplicateSYN(t *testing.T) {
	ct := NewConntrack(NewClock())
	ct.Observe(ctSeg(40003, transport.FlagSYN))
	ct.Observe(ctSeg(40003, transport.FlagSYN))
	st := conntrack(ct)
	if st["established"] != 1 || st["open"] != 1 {
		t.Fatalf("dup SYN double-established: %+v", st)
	}
}

// TestConntrackUntrackedClose: a FIN for a connection the tracker never
// saw open (gateway restarted mid-stream) still fires teardown.
func TestConntrackUntrackedClose(t *testing.T) {
	ct := NewConntrack(NewClock())
	if !ct.Observe(ctSeg(40004, transport.FlagFIN|transport.FlagACK)) {
		t.Fatal("untracked FIN must still report closed")
	}
	st := conntrack(ct)
	if st["untracked_close"] != 1 || st["closed"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConntrackSweep: idle open connections (lost FINs) are reclaimed by
// the GC sweep; fresh ones survive; expired TIME_WAIT entries are purged.
func TestConntrackSweep(t *testing.T) {
	clk := NewClock()
	ct := NewConntrack(clk)
	ct.Observe(ctSeg(40005, transport.FlagSYN)) // will go idle
	ct.Observe(ctSeg(40006, transport.FlagSYN))
	ct.Observe(ctSeg(40006, transport.FlagFIN|transport.FlagACK)) // parks in TIME_WAIT

	clk.Advance(2 * time.Minute)
	ct.Observe(ctSeg(40007, transport.FlagSYN)) // fresh at sweep time

	if got := ct.Sweep(time.Minute); got != 1 {
		t.Fatalf("sweep reclaimed %d, want 1", got)
	}
	st := conntrack(ct)
	if st["idle_reclaimed"] != 1 || st["open"] != 1 || st["time_wait"] != 0 {
		t.Fatalf("post-sweep: %+v", st)
	}

	// A non-positive idle: the sweep is a no-op.
	if got := ct.Sweep(0); got != 0 {
		t.Fatalf("idle<=0 sweep reclaimed %d", got)
	}
}

// TestConntrackReset: a gateway restart discards all connection state but
// no count; in-flight connections are then picked up mid-stream.
func TestConntrackReset(t *testing.T) {
	ct := NewConntrack(NewClock())
	ct.Observe(ctSeg(40008, transport.FlagSYN))
	ct.Observe(ctSeg(40009, transport.FlagSYN))
	ct.Observe(ctSeg(40009, transport.FlagFIN|transport.FlagACK))
	before := conntrack(ct)
	ct.Reset()
	st := conntrack(ct)
	if st["open"] != 0 || st["time_wait"] != 0 {
		t.Fatalf("reset left state: %v", st)
	}
	if st["established"] != 2 || st["closed"] != 1 || st["established"] != before["established"] {
		t.Fatalf("reset lost counts: %v, before %v", st, before)
	}
	if !ct.Observe(ctSeg(40008, transport.FlagFIN|transport.FlagACK)) {
		t.Fatal("post-restart FIN must fire teardown")
	}
	if st := conntrack(ct); st["untracked_close"] != 1 {
		t.Fatalf("post-restart close not counted untracked: %+v", st)
	}
}

// TestConntrackTimeWaitBound: the TIME_WAIT ring caps parked connections
// at maxTimeWait, maxTimeWait/ctShards per shard, releasing the oldest
// early — the first tuple parked in a shard is the first released — and
// the time_wait gauge counts exactly the parked records, also after a
// Sweep and after a Reset.
func TestConntrackTimeWaitBound(t *testing.T) {
	clk := NewClock()
	ct := NewConntrack(clk)
	per := maxTimeWait / ctShards
	fin := func(src, dst netip.Addr, sp uint16) *ipv4.Packet {
		seg := transport.TCPSegment{SrcPort: sp, DstPort: 443, Seq: 1, Flags: transport.FlagFIN | transport.FlagACK, Window: 65535}
		return &ipv4.Packet{
			Header:  ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: dst},
			Payload: seg.Marshal(),
		}
	}
	src := netip.MustParseAddr("10.66.0.2")
	inShard := make([]int, ctShards)
	for i := 0; i < maxTimeWait+100; i++ {
		dst := netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", i%200+1))
		sp := uint16(1 + i) // Peek refuses port 0
		ct.Observe(fin(src, dst, sp))
		inShard[shardOf(tupleFor(src, dst, sp, 443))]++
	}
	want := 0
	for _, n := range inShard {
		want += min(n, per)
	}
	if st := conntrack(ct); st["time_wait"] != uint64(want) || st["time_wait"] > maxTimeWait {
		t.Fatalf("time_wait gauge %d, want the %d parked records (bound %d)", st["time_wait"], want, maxTimeWait)
	}

	// Expired records leave with the sweep; ten fresh ones stay.
	clk.Advance(timeWaitTTL + time.Second)
	for sp := uint16(1); sp <= 10; sp++ {
		ct.Observe(fin(src, netip.MustParseAddr("198.51.100.1"), sp))
	}
	ct.Sweep(time.Minute)
	if st := conntrack(ct); st["time_wait"] != 10 || st["open"] != 0 {
		t.Fatalf("after the sweep: %+v, want 10 parked records", st)
	}
	ct.Reset()
	if st := conntrack(ct); st["time_wait"] != 0 || st["open"] != 0 {
		t.Fatalf("after the reset: %+v, want no record", st)
	}

	// FIFO: one shard parks one more than its share. The first tuple parked
	// was released, so its FIN closes anew; the second is still parked.
	syns := sameShardSYNs(0, per+1)
	finOf := func(syn *ipv4.Packet) *ipv4.Packet {
		var info transport.Info
		transport.PeekPacket(syn, &info)
		return fin(syn.Header.Src, syn.Header.Dst, info.SrcPort)
	}
	for _, syn := range syns {
		ct.Observe(finOf(syn))
	}
	before := conntrack(ct)
	ct.Observe(finOf(syns[1]))
	ct.Observe(finOf(syns[0]))
	st := conntrack(ct)
	if st["dup_close"] != before["dup_close"]+1 || st["untracked_close"] != before["untracked_close"]+1 {
		t.Fatalf("FIFO release: %+v, before %+v; want the first tuple released and the second parked", st, before)
	}
	if st["time_wait"] != uint64(per) {
		t.Fatalf("full shard holds %d parked records, want %d", st["time_wait"], per)
	}
}

// parkedRecords walks a shard's index and counts its parked records, the
// number its parked field must hold.
func parkedRecords(s *ctShard) int {
	n := 0
	s.conns.Sweep(func(_ transport.Tuple, st *connState) bool {
		if st.parked {
			n++
		}
		return false
	})
	return n
}

// TestConntrackReclaimsExpiredTimeWait: a shard parks a full ring of closed
// connections, their TIME_WAIT runs out, and new connections arrive. The
// add that would double the shard's index first frees the expired records:
// the index keeps the cells the open connections need, the parked count
// stays exact, and every open connection keeps its record.
func TestConntrackReclaimsExpiredTimeWait(t *testing.T) {
	const opened = 300
	clk := NewClock()
	ct := NewConntrack(clk)
	per := maxTimeWait / ctShards
	syns := sameShardSYNs(0, per+opened)
	for _, syn := range syns[:per] {
		ct.Observe(syn)
		ct.Observe(withFlags(syn, transport.FlagFIN|transport.FlagACK))
	}
	clk.Advance(timeWaitTTL + time.Second)
	for _, syn := range syns[per:] {
		ct.Observe(syn)
	}
	s := &ct.shards[0]
	if cells, want := indexCells(&s.conns), shardCells(opened); cells != want {
		t.Fatalf("%d cells for %d open and %d expired parked records, want the %d the open ones need", cells, opened, per, want)
	}
	if st := conntrack(ct); st["open"] != opened || st["time_wait"] != 0 || s.parked != parkedRecords(s) {
		t.Fatalf("after the reclaim: %+v, parked field %d for %d parked records", st, s.parked, parkedRecords(s))
	}
	for _, syn := range syns[per:] {
		if st := s.conns.Get(peekFlow(syn).t.Hash(), peekFlow(syn).t); st == nil || st.parked {
			t.Fatalf("open connection lost its record: %+v", st)
		}
	}
}

// TestConntrackLateSYNAcrossGrowth: connections park, and before their
// TIME_WAIT runs out enough new ones arrive to double the shard's index
// twice. The reclaim passes on the way leave the parked records alone, so
// a delayed SYN of a closed connection is still refused.
func TestConntrackLateSYNAcrossGrowth(t *testing.T) {
	const parked, opened = 100, 400
	clk := NewClock()
	ct := NewConntrack(clk)
	syns := sameShardSYNs(0, parked+opened)
	for _, syn := range syns[:parked] {
		ct.Observe(syn)
		ct.Observe(withFlags(syn, transport.FlagFIN|transport.FlagACK))
	}
	clk.Advance(time.Second)
	cells := indexCells(&ct.shards[0].conns)
	for _, syn := range syns[parked:] {
		ct.Observe(syn)
	}
	if grown := indexCells(&ct.shards[0].conns); grown < 4*cells {
		t.Fatalf("index grew from %d to %d cells, want two doublings", cells, grown)
	}
	before := conntrack(ct)
	for _, syn := range syns[:parked] {
		ct.Observe(syn) // reordered duplicate of the original handshake
	}
	st := conntrack(ct)
	if st["late_syn"] != before["late_syn"]+parked || st["established"] != before["established"] || st["time_wait"] != parked {
		t.Fatalf("late SYNs after the index grew: %+v, before %+v; want all %d refused", st, before, parked)
	}
}

// tupleFor is the tuple of a device→server segment between src and dst.
func tupleFor(src, dst netip.Addr, sp, dp uint16) transport.Tuple {
	t, _ := transport.TupleOf(&ipv4.Header{Src: src, Dst: dst}, sp, dp)
	return t
}

// sameShardSYNs returns n SYNs of distinct connections from 10.200.0.0/16
// to the canonical test server (fwdPkt's), every one hashing to shard.
func sameShardSYNs(shard, n int) []*ipv4.Packet {
	dst := fwdPkt(transport.FlagSYN, 1, nil).Header.Dst
	var out []*ipv4.Packet
	for i := 0; len(out) < n; i++ {
		src := netip.AddrFrom4([4]byte{10, 200, byte(i >> 8), byte(i)})
		port := uint16(1024 + i>>16)
		if shardOf(tupleFor(src, dst, port, 443)) != shard {
			continue
		}
		seg := transport.TCPSegment{SrcPort: port, DstPort: 443, Seq: 1, Flags: transport.FlagSYN, Window: 65535}
		out = append(out, &ipv4.Packet{
			Header:  ipv4.Header{TTL: 64, Protocol: ipv4.ProtoTCP, Src: src, Dst: dst},
			Payload: seg.Marshal(),
		})
	}
	return out
}

// replyTo is the server's segment answering a device→server segment.
func replyTo(fwd *ipv4.Packet, seq uint32, body []byte) *ipv4.Packet {
	var info transport.Info
	transport.PeekPacket(fwd, &info)
	seg := transport.TCPSegment{
		SrcPort: info.DstPort, DstPort: info.SrcPort, Seq: seq,
		Flags: transport.FlagPSH | transport.FlagACK, Window: 65535, Payload: body,
	}
	return &ipv4.Packet{
		Header:  ipv4.Header{TTL: 64, Protocol: ipv4.ProtoTCP, Src: fwd.Header.Dst, Dst: fwd.Header.Src},
		Payload: seg.Marshal(),
	}
}

// TestSYNFloodCannotDisarmInjectionCheck: a SYN flood into a full shard
// evicts only unreplied connections, so a live connection whose response
// stream is primed keeps its continuity check — an injected
// out-of-sequence response is still dropped, and its in-sequence one still
// passes. (Evicting an arbitrary entry, the victim's next response would
// be adopted and re-prime the check: flood-then-inject.)
func TestSYNFloodCannotDisarmInjectionCheck(t *testing.T) {
	ct := NewConntrack(NewClock())
	victim := fwdPkt(transport.FlagSYN, 1, nil)
	ct.Observe(victim)
	body := []byte("HTTP/1.1 200 OK\r\n\r\n")
	if ct.ObserveResponse(replyTo(victim, 5000, body)) {
		t.Fatal("priming response dropped")
	}
	next := 5000 + uint32(len(body))

	perShard := maxTracked / ctShards
	for _, syn := range sameShardSYNs(shardOf(tupleFor(victim.Header.Src, victim.Header.Dst, 40900, 443)), perShard-1+8*perShard) {
		ct.Observe(syn)
	}
	if st := conntrack(ct); st["open"] != uint64(perShard) || st["table_full"] != 0 || st["established"] != uint64(9*perShard) {
		t.Fatalf("after the flood: %+v, want a full shard and every SYN admitted", st)
	}
	if !ct.ObserveResponse(replyTo(victim, 99999, []byte("evil"))) {
		t.Fatal("injected response accepted after a SYN flood")
	}
	if ct.ObserveResponse(replyTo(victim, next, body)) {
		t.Fatal("the victim's in-sequence response dropped after the flood")
	}
	if st := conntrack(ct); st["seq_drop"] != 1 || st["adopted"] != 0 {
		t.Fatalf("response stats after the flood: %+v", st)
	}
}

// TestFullShardRefusesNewcomers: a shard full of replied connections
// evicts none of them. A new SYN goes untracked (kind="table_full"), and a
// response for a connection the shard cannot adopt passes unchecked
// (outcome="unchecked"); the tracked connections keep their checks.
func TestFullShardRefusesNewcomers(t *testing.T) {
	gw := NewGateway(GatewayConfig{Clock: NewClock()})
	ct := gw.ct
	perShard := maxTracked / ctShards
	syns := sameShardSYNs(0, perShard+1)
	body := []byte("ok")
	for _, syn := range syns[:perShard] {
		ct.Observe(syn)
		if ct.ObserveResponse(replyTo(syn, 100, body)) {
			t.Fatal("priming response dropped")
		}
	}
	late := syns[perShard]
	ct.Observe(late)
	if ct.ObserveResponse(replyTo(late, 7, body)) || ct.ObserveResponse(replyTo(late, 12345, body)) {
		t.Fatal("a response the full shard could not adopt was dropped")
	}
	st := conntrack(ct)
	if st["open"] != uint64(perShard) || st["established"] != uint64(perShard) || st["table_full"] != 1 || st["unchecked"] != 2 {
		t.Fatalf("full shard: %+v", st)
	}
	if !ct.ObserveResponse(replyTo(syns[0], 99999, body)) {
		t.Fatal("a tracked connection lost its continuity check to the newcomer")
	}
	reg := metrics.NewRegistry()
	gw.RegisterMetrics(reg)
	if got := sumMetric(reg, "bp_conntrack_transitions_total", metrics.L("kind", "table_full")); got != 1 {
		t.Fatalf(`bp_conntrack_transitions_total{kind="table_full"} = %v, want 1`, got)
	}
	if got := sumMetric(reg, "bp_conntrack_responses_total", metrics.L("outcome", "unchecked")); got != 2 {
		t.Fatalf(`bp_conntrack_responses_total{outcome="unchecked"} = %v, want 2`, got)
	}
}

// TestNonIPv4ConnectionUntracked: a connection whose endpoints are not
// IPv4 is not tracked, but its FIN still reports closed so teardown fires.
func TestNonIPv4ConnectionUntracked(t *testing.T) {
	ct := NewConntrack(NewClock())
	syn, fin := ctSeg(40010, transport.FlagSYN), ctSeg(40010, transport.FlagFIN|transport.FlagACK)
	for _, p := range []*ipv4.Packet{syn, fin} {
		p.Header.Src = netip.MustParseAddr("2001:db8::2")
	}
	if ct.Observe(syn) || !ct.Observe(fin) {
		t.Fatal("non-IPv4 SYN closed, or its FIN did not")
	}
	for k, v := range conntrack(ct) {
		if v != 0 {
			t.Fatalf("non-IPv4 connection tracked: %s = %d", k, v)
		}
	}
}

// BenchmarkConntrackObserveResponse is the response-direction check on an
// established connection, every segment in sequence.
func BenchmarkConntrackObserveResponse(b *testing.B) {
	ct := NewConntrack(NewClock())
	syn := fwdPkt(transport.FlagSYN, 1, nil)
	ct.Observe(syn)
	body := make([]byte, 512)
	resp := replyTo(syn, 1000, body)
	seq := uint32(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint32(resp.Payload[4:8], seq)
		if ct.ObserveResponse(resp) {
			b.Fatal("in-sequence response dropped")
		}
		seq += uint32(len(body))
	}
}
