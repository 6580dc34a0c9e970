package netsim

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/transport"
)

// shardCells is the cell count of a per-shard index holding the given
// records: doubling from 8 at ¾ load.
func shardCells(records int) int {
	c := 8
	for 4*records > 3*c {
		c *= 2
	}
	return c
}

// handOrder walks cells cells of ix one at a time from its eviction hand,
// evicting nothing, and reports the walk position of every value seen by
// the name id gives it. The walk ends where it began.
func handOrder[V any](ix *flowtable.Index[transport.Tuple, V], cells int, id func(*V) (int, bool)) map[int]int {
	at := map[int]int{}
	for c := 0; c < cells; c++ {
		ix.Evict(1, func(v *V) bool {
			if name, ok := id(v); ok {
				at[name] = c
			}
			return false
		})
	}
	return at
}

// indexCells counts ix's cells by walking its eviction hand, which samples
// one cell per Evict(1) and so comes back to a key after exactly that many
// calls. ix must hold a key; the walk evicts nothing.
func indexCells[V any](ix *flowtable.Index[transport.Tuple, V]) int {
	var first *V
	start := 0
	for step := 1; ; step++ {
		var at *V
		ix.Evict(1, func(v *V) bool { at = v; return false })
		switch {
		case at == nil:
		case first == nil:
			first, start = at, step
		case at == first:
			return step - start
		}
	}
}

// withFlags is the segment of p's connection carrying flags alone.
func withFlags(p *ipv4.Packet, flags byte) *ipv4.Packet {
	var info transport.Info
	transport.PeekPacket(p, &info)
	seg := transport.TCPSegment{SrcPort: info.SrcPort, DstPort: info.DstPort, Seq: 2, Flags: flags, Window: 65535}
	return &ipv4.Packet{Header: p.Header, Payload: seg.Marshal()}
}

// TestConntrackHandFindsUnrepliedRecord: the overflow sampler covers the
// whole shard. A full shard holds 1,024 open records, all replied but
// one, and 100 parked ones; the unreplied one sits at the far end of the
// eviction hand's walk. Newcomer SYNs evict it within
// ⌈cells/evictSample⌉ attempts, and evict nothing else on the way.
func TestConntrackHandFindsUnrepliedRecord(t *testing.T) {
	const parked = 100
	perShard := maxTracked / ctShards
	cells := shardCells(perShard + parked)
	attempts := (cells + evictSample - 1) / evictSample
	clk := NewClock()
	ct := NewConntrack(clk)
	syns := sameShardSYNs(0, parked+perShard+attempts)
	for _, syn := range syns[:parked] {
		ct.Observe(syn)
		ct.Observe(withFlags(syn, transport.FlagFIN|transport.FlagACK))
	}
	open := syns[parked : parked+perShard]
	opened := map[time.Duration]int{} // open time → index into open
	for i, syn := range open {
		clk.Advance(time.Microsecond)
		opened[clk.Now()] = i
		ct.Observe(syn)
	}
	s := &ct.shards[0]
	at := handOrder(&s.conns, cells, func(st *connState) (int, bool) {
		i, ok := opened[st.last]
		return i, ok && !st.parked
	})
	if len(at) != perShard {
		t.Fatalf("the hand's walk saw %d open records, want %d", len(at), perShard)
	}
	victim := 0
	for i, pos := range at {
		if pos > at[victim] {
			victim = i
		}
	}
	if at[victim] < cells/2 {
		t.Fatalf("the farthest open record sits at cell %d of the walk over %d", at[victim], cells)
	}
	for i, syn := range open {
		if i != victim && ct.ObserveResponse(replyTo(syn, 100, []byte("ok"))) {
			t.Fatal("priming response dropped")
		}
	}

	newcomers := syns[parked+perShard:]
	established := conntrack(ct)["established"]
	for n := uint64(1); ; n++ {
		if n > uint64(attempts) {
			t.Fatalf("%d newcomers did not find the unreplied record (cells %d, sample %d)", attempts, cells, evictSample)
		}
		ct.Observe(newcomers[n-1])
		st := conntrack(ct)
		if st["open"] != uint64(perShard) || st["time_wait"] != parked || st["table_full"]+st["established"]-established != n {
			t.Fatalf("attempt %d: %+v", n, st)
		}
		if st["established"] > established {
			break
		}
	}
	for i, syn := range open {
		k := peekFlow(syn).t
		st := s.conns.Get(k.Hash(), k)
		if (st != nil) != (i != victim) || st != nil && (st.parked || !st.revSeen) {
			t.Fatalf("open record %d (victim %d) after the newcomers: %+v", i, victim, st)
		}
	}
}

// TestRespSeqHandFindsIdleEntry: respSeq's idle reclaim covers the whole
// shard. A full shard holds 1,024 entries, one of them idle past respIdle
// at the far end of the eviction hand's walk. Newcomers reclaim it within
// ⌈cells/evictSample⌉ arrivals and reclaim nothing live: the ones before
// go unrecorded.
func TestRespSeqHandFindsIdleEntry(t *testing.T) {
	perShard := maxRespTracked / ctShards
	cells := shardCells(perShard)
	attempts := (cells + evictSample - 1) / evictSample
	n := NewNetwork(ModeTAP)
	fwd := &ipv4.Packet{Header: ipv4.Header{Src: netip.MustParseAddr("10.200.0.1"), Dst: serverAddr()}}
	dst := tupleFor(fwd.Header.Src, fwd.Header.Dst, 1, 80).Dst
	var tuples []transport.Tuple
	for i := uint32(0); len(tuples) < perShard+attempts; i++ {
		if k := (transport.Tuple{Src: 0x0ac80000 + i, Dst: dst, SrcPort: 40000, DstPort: 80}); shardOf(k) == 0 {
			tuples = append(tuples, k)
		}
	}
	body := []byte("HTTP/1.1 200 OK\r\n\r\n")
	scratch := &ipv4.Packet{}
	next := map[uint32]int{} // sequence after the first response → index
	for i, k := range tuples[:perShard] {
		n.responsePacket(scratch, fwd, k, body)
		next[uint32(k.Hash())+uint32(len(body))] = i
	}
	s := &n.respSeq[0]
	at := handOrder(&s.next, cells, func(e *respEntry) (int, bool) {
		i, ok := next[e.seq]
		return i, ok
	})
	if len(at) != perShard {
		t.Fatalf("the hand's walk saw %d entries, want %d", len(at), perShard)
	}
	victim := 0
	for i, pos := range at {
		if pos > at[victim] {
			victim = i
		}
	}
	if at[victim] < cells/2 {
		t.Fatalf("the farthest entry sits at cell %d of the walk over %d", at[victim], cells)
	}
	n.Clock.Advance(respIdle + 5*time.Second)
	for i, k := range tuples[:perShard] {
		if i != victim {
			n.responsePacket(scratch, fwd, k, body)
		}
	}

	newcomers := tuples[perShard:]
	for a := 1; n.respReclaimed.Load() == 0; a++ {
		if a > attempts {
			t.Fatalf("%d newcomers did not reclaim the idle entry (cells %d, sample %d)", attempts, cells, evictSample)
		}
		n.responsePacket(scratch, fwd, newcomers[a-1], body)
		if got := n.respUntracked.Load() + n.respReclaimed.Load(); got != uint64(a) {
			t.Fatalf("after %d newcomers: %d unrecorded + reclaimed", a, got)
		}
	}
	for i, k := range tuples[:perShard] {
		if e := s.next.Get(k.Hash(), k); (e != nil) != (i != victim) {
			t.Fatalf("entry %d (victim %d) after the newcomers: %+v", i, victim, e)
		}
	}
}

// heapHeld is the live heap after two collections (the second empties
// the sync.Pools' victim caches).
func heapHeld() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdleTablesFootprint pins what an idle gateway's per-flow tables
// hold. A fresh flow cache with the default config and a fresh conntrack
// allocate their 128 shard headers (lock, counters, empty index: 26 KiB
// in all) and no cell, slab slot or ring; preallocated maps and rings
// held about 2.7 MiB. After
// 16,384 connections fill the cache and the tracker of a gateway,
// Restart gives all of it back, as a reboot that loses the RAM would.
func TestIdleTablesFootprint(t *testing.T) {
	before := heapHeld()
	ft := flowtable.New[uint64](flowtable.Config{Clock: NewClock()})
	ct := NewConntrack(NewClock())
	if idle := heapHeld() - before; idle > 32<<10 {
		t.Fatalf("an idle flow table and conntrack hold %d B, want ≤ 32 KiB", idle)
	}
	runtime.KeepAlive(ft)
	runtime.KeepAlive(ct)

	eng, apk, db := buildEngineAndDB(t)
	clock := NewClock()
	enf := shipped(clock, false, enforcer.Config{Flows: enforcer.NewFlowCache(flowtable.Config{Clock: clock})}, db, eng)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Clock: clock})
	base := taggedPacket(t, apk, db, "sync")
	open := keepAliveBurst(t, base, 40000, 1)[:2] // SYN and a request, never closed
	if _, err := gw.ProcessBatch(open); err != nil {
		t.Fatal(err)
	}
	warm := heapHeld()

	pool, err := NewDevicePool(netip.MustParsePrefix("10.128.0.0/16"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	var burst []*ipv4.Packet
	for d := 0; d < pool.Len(); d++ {
		burst = append(burst, pool.Rewrite(d, open)...)
		if len(burst) == 1024 || d == pool.Len()-1 {
			outs, _ := gw.ProcessBatch(burst)
			for _, o := range outs {
				if o.Out == nil {
					t.Fatalf("packet dropped: %+v", o.Result)
				}
			}
			burst = burst[:0]
		}
	}
	if st := conntrack(gw.ct); st["open"] != uint64(pool.Len()+1) {
		t.Fatalf("conntrack after the fill: %+v", st)
	}
	full := heapHeld()
	gw.Restart()
	after := heapHeld()
	if after-warm > 4<<10 {
		t.Fatalf("after Restart the gateway holds %d B more than before its 16,384 connections (%d B at their peak), want ≤ 4 KiB",
			after-warm, full-warm)
	}
	runtime.KeepAlive(pool)
}
