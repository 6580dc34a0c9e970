package gateway

import (
	"sync"
	"time"

	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/transport"
)

// Conntrack is the gateway's lightweight connection tracker: the
// user-space analogue of nf_conntrack that turns TCP control flags into
// flow lifecycle events. A SYN establishes a connection, a FIN or RST
// ends it — and ending a connection is what triggers the enforcer's
// EndFlow, deleting the flow's cached verdict the moment the connection
// dies instead of leaving it to TTL or eviction pressure.
//
// Only connection events touch the table: data segments (no SYN/FIN/RST)
// return without taking a lock, so the per-packet cost on the hot path
// is the caller's one transport peek. UDP is connectionless and
// deliberately untracked — its flow-cache entries age out via TTL,
// matching how real conntrack expires UDP by timeout. So are endpoints
// that are not IPv4: their FIN/RST still reports connClosed, so teardown
// fires.
//
// # Shards
//
// The table is ctShards shards, picked by the top bits of the forward
// transport.Tuple's hash. Each shard holds one record per connection —
// open, or parked in TIME_WAIT — in one flowtable.Index keyed on the
// tuple, plus a ring of the parked records' FIFO order, its own lock and
// its bounds: maxTracked open and maxTimeWait parked records, each divided
// evenly among the shards. Both directions of a connection land on one
// shard, so there is no global lock; a scrape sums the shards. A packet's
// lookup is one probe, and an update writes through the record it found.
// Collisions cost probes, never a wrong record: the index compares the
// whole tuple, and seeds its probe start per shard, so a device that picks
// its own ports cannot line its connections up in one probe cluster
// (transport.Tuple.Hash is unseeded). Index and ring grow on use; an idle
// tracker holds neither. Before a shard's index doubles, it frees the
// records whose TIME_WAIT has run out, so a tracker of short connections
// grows with the connections that close within timeWaitTTL, not with every
// tuple it has seen since the last Sweep.
//
// # A full shard
//
// Following nf_conntrack's early_drop, a new connection (a SYN, or a
// response adopted mid-stream) that finds its shard at the bound evicts
// an unreplied open record — one whose response direction has not been
// primed — found among the next evictSample cells of the shard's rotating
// eviction hand. The hand moves on after every look, so repeated attempts
// walk the whole shard: an unreplied record anywhere is found within
// ⌈cells/evictSample⌉ attempts. If it finds none, the newcomer is not
// tracked and counts as a table_full transition; a response for a
// connection that could not be adopted passes unchecked and counts as an
// unchecked response. A connection whose response stream is primed is
// therefore never evicted by a flood: a SYN flood cannot disarm the
// injection check of a live connection.
//
// # Idempotency under faults
//
// A faulty network retransmits, duplicates, and reorders control
// segments, so lifecycle transitions must be idempotent. A closed
// connection's record stays, parked in a TIME_WAIT analogue for
// timeWaitTTL of virtual time: a duplicate FIN or an RST-after-FIN there
// still reports connClosed (teardown is the safe direction and EndFlow is
// idempotent) but counts as a duplicate close, not a second close; a SYN
// arriving there — a delayed retransmission of the original handshake —
// is refused rather than resurrecting the dead flow. Once TIME_WAIT
// expires the 5-tuple is legitimately reusable and a SYN reopens the
// record as a fresh connection, as on a real host.
type Conntrack struct {
	clock  flowtable.Clock
	shards [ctShards]ctShard
}

// ctShard is one lock domain of the tracker. Its counters share the lock.
type ctShard struct {
	mu    sync.Mutex
	conns flowtable.Index[transport.Tuple, connState]
	// parked counts the records in TIME_WAIT; the rest of conns is open.
	parked int
	// ring holds the parked records' FIFO order and bounds them; next is
	// the slot the next park overwrites, the oldest once the ring wrapped.
	// The first park allocates it.
	ring []parkedRecord
	next int

	n [ctCounts]uint64
}

// connState is one connection's record. An open connection's carries its
// directional verdict state: last activity for idle sweeps, plus the
// response half's expected sequence number. revNext is primed by the
// first server→device segment observed (the tracker cannot know the
// server's ISN in advance) and every later response must continue it
// exactly — the continuity check that flags a mid-stream injected
// segment. A parked record's last is its close time.
type connState struct {
	last    time.Duration
	revNext uint32
	revSeen bool
	parked  bool
}

// ctShardBits sizes the tracker: 64 shards.
const ctShardBits = 6

const ctShards = 1 << ctShardBits

// shardOfHash picks a tuple's shard from the top bits of its hash.
func shardOfHash(h uint64) int { return int(h >> (64 - ctShardBits)) }

// parkedRecord is one ring slot: the parked tuple and the close time it
// was parked with, so a slot overtaken by churn only releases the record
// it actually corresponds to.
type parkedRecord struct {
	key transport.Tuple
	at  time.Duration
}

// ctCount indexes a shard's counters. The per-kind registration in
// RegisterMetrics names each one's series.
type ctCount int

const (
	// ctEstablished counts connections opened (SYN observed on an accepted
	// packet).
	ctEstablished ctCount = iota
	// ctClosed counts connections ended (first FIN or RST observed).
	ctClosed
	// ctDupClose counts redundant teardowns: a retransmitted FIN or an
	// RST-after-FIN landing on a connection already in TIME_WAIT.
	ctDupClose
	// ctLateSYN counts SYNs refused because their 5-tuple was in TIME_WAIT —
	// a delayed/duplicated handshake that must not resurrect a dead flow.
	ctLateSYN
	// ctUntrackedClose counts FIN/RSTs for connections the tracker never saw
	// open (the gateway restarted mid-stream, or the SYN predates it).
	// Teardown still fires for them.
	ctUntrackedClose
	// ctIdleReclaimed counts open entries swept after exceeding the idle
	// deadline (half-open connections whose teardown was lost).
	ctIdleReclaimed
	// ctTableFull counts SYNs left untracked because their shard was full of
	// replied connections (see Conntrack, "A full shard").
	ctTableFull
	// ctChecked counts server→device TCP segments run through the
	// response-direction continuity check.
	ctChecked
	// ctAdopted counts responses for unknown connections adopted mid-stream
	// (gateway restarted, or the SYN predates the tracker).
	ctAdopted
	// ctLate counts responses landing on a connection already in TIME_WAIT
	// (the server's reply raced the close); accepted, since the teardown
	// already fired.
	ctLate
	// ctSeqDrop counts response segments dropped for breaking sequence
	// continuity — the mid-stream injection signature.
	ctSeqDrop
	// ctUnchecked counts responses for unknown connections that passed
	// unchecked because their shard was full and could not adopt them.
	ctUnchecked
	ctCounts
)

// maxTracked bounds the open connections, maxTracked/ctShards per shard.
// Teardown does not depend on an entry being present (a FIN/RST always
// fires EndFlow), but without a bound any connection whose SYN was
// accepted and whose FIN is later dropped (a policy swap mid-connection,
// an app error path that never calls Finish) would leak its entry
// forever. What a full shard does is stated on Conntrack.
const maxTracked = 65536

// evictSample is how many cells a full shard's eviction hand looks at for
// a record to evict before it refuses the newcomer. A full shard's index is
// about half empty: at 16 cells a look now and then saw no record at all,
// and a flood of 9,000 SYNs into a shard of unreplied connections refused
// one in about one run of 13.
const evictSample = 32

// maxTimeWait bounds the parked records, maxTimeWait/ctShards per shard;
// at the bound the shard's oldest parked connection is released early
// (its 5-tuple becomes reusable), trading a sliver of late-segment
// protection for a hard memory bound — real nf_conntrack does the same
// under table pressure.
const maxTimeWait = 16384

// timeWaitTTL is how long a closed connection's 5-tuple stays parked in
// virtual time. Real TIME_WAIT is 2*MSL (60–120 s); the simulation uses a
// shorter window so soak epochs can legitimately reuse tuples.
const timeWaitTTL = 30 * time.Second

// NewConntrack builds an empty tracker. c supplies virtual time for
// TIME_WAIT expiry and idle sweeps; NewConntrack panics without one. It
// allocates no records: each shard's index and ring grow on use.
func NewConntrack(c flowtable.Clock) *Conntrack {
	if c == nil {
		panic("gateway: NewConntrack needs a clock")
	}
	ct := &Conntrack{clock: c}
	for i := range ct.shards {
		ct.shards[i].conns = flowtable.NewIndex[transport.Tuple, connState]((maxTracked + maxTimeWait) / ctShards)
	}
	return ct
}

// waiting reports whether a connection parked at virtual time at is
// still in TIME_WAIT at now.
func waiting(at, now time.Duration) bool {
	return now-at <= timeWaitTTL
}

// put finds or adds k's record (k hashes to h). An add that would double
// the shard's index first frees the parked records whose TIME_WAIT has run
// out (flowtable.Index.PutReclaim), keeping s.parked exact; open records
// stay, since the tracker has no idle deadline of its own (Sweep takes one
// from its caller). Caller holds s.mu.
func (s *ctShard) put(h uint64, k transport.Tuple, now time.Duration) (*connState, bool) {
	return s.conns.PutReclaim(h, k, func(_ transport.Tuple, st *connState) bool {
		if st.parked && !waiting(st.last, now) {
			s.parked--
			return true
		}
		return false
	})
}

// parkLocked moves k's record (k hashes to h) into TIME_WAIT, releasing
// the shard's oldest parked record at capacity. Caller holds s.mu.
func (s *ctShard) parkLocked(h uint64, k transport.Tuple, now time.Duration) {
	if s.ring == nil {
		s.ring = make([]parkedRecord, maxTimeWait/ctShards)
	}
	// Only release the record the overwritten slot still owns: the tuple may
	// have been reopened since, or re-parked with a newer close time in a
	// newer slot. An unused slot's zero tuple is never tracked (Peek refuses
	// port 0).
	old := s.ring[s.next]
	oh := old.key.Hash()
	if st := s.conns.Get(oh, old.key); st != nil && st.parked && st.last == old.at {
		s.conns.Delete(oh, old.key)
		s.parked--
	}
	s.ring[s.next] = parkedRecord{key: k, at: now}
	s.next = (s.next + 1) % len(s.ring)
	st, added := s.put(h, k, now)
	if added || !st.parked {
		s.parked++
	}
	*st = connState{last: now, parked: true}
}

// openLocked records st as k's open record (k hashes to h) if the shard
// has room for it: below the bound it does; at it, an unreplied open
// record is evicted if the shard's eviction hand finds one among the next
// evictSample cells. A parked record of k (its TIME_WAIT expired) reopens
// in place. Caller holds s.mu.
func (s *ctShard) openLocked(h uint64, k transport.Tuple, parked bool, st connState) bool {
	if s.conns.Len()-s.parked >= maxTracked/ctShards &&
		!s.conns.Evict(evictSample, func(c *connState) bool { return !c.parked && !c.revSeen }) {
		return false
	}
	if parked {
		s.parked--
	}
	v, _ := s.put(h, k, st.last) // st.last is now
	*v = st
	return true
}

// peekFlow peeks pkt's transport header and builds its Flow.
func peekFlow(pkt *ipv4.Packet) Flow {
	var info transport.Info
	transport.PeekPacket(pkt, &info)
	t, v4 := transport.TupleOf(&pkt.Header, info.SrcPort, info.DstPort)
	return Flow{Tuple: t, Proto: info.Proto, Flags: info.Flags, V4: v4}
}

// Observe updates connection state for one accepted packet and reports
// whether the packet ended its connection — the caller's cue to tear the
// flow's cached verdict down. Packets without a transport header
// (non-first fragments, malformed headers) and UDP datagrams are ignored.
func (ct *Conntrack) Observe(pkt *ipv4.Packet) (connClosed bool) {
	return ct.observe(peekFlow(pkt))
}

// observe is Observe on a packet its caller has already peeked.
func (ct *Conntrack) observe(f Flow) (connClosed bool) {
	if f.Proto != ipv4.ProtoTCP {
		return false
	}
	if f.Flags&(transport.FlagSYN|transport.FlagFIN|transport.FlagRST) == 0 {
		return false // data segment: no lifecycle event, no lock
	}
	closing := f.Flags&(transport.FlagFIN|transport.FlagRST) != 0
	if !f.V4 {
		return closing
	}
	now := ct.clock.Now()
	h := f.Tuple.Hash()
	s := &ct.shards[shardOfHash(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.conns.Get(h, f.Tuple)
	known := st != nil
	if closing {
		switch {
		case known && !st.parked:
			// First close of a tracked connection.
			s.n[ctClosed]++
		case known && waiting(st.last, now):
			// Retransmitted FIN or RST-after-FIN: the connection is already
			// down. Teardown still fires — EndFlow is idempotent and closing
			// is the fail-safe direction — but it is not a second close.
			s.n[ctDupClose]++
			return true
		default:
			// Connection picked up mid-stream (gateway restart, or the SYN
			// predates the tracker): still counts as closed so teardown fires.
			s.n[ctUntrackedClose]++
			s.n[ctClosed]++
		}
		s.parkLocked(h, f.Tuple, now)
		return true
	}
	// SYN path.
	if known && !st.parked {
		st.last = now // SYN retransmission: refresh activity only
		return false
	}
	if known && waiting(st.last, now) {
		// A delayed handshake retransmission for a dead connection must
		// not resurrect it.
		s.n[ctLateSYN]++
		return false
	}
	if !s.openLocked(h, f.Tuple, known, connState{last: now}) {
		s.n[ctTableFull]++
		return false
	}
	s.n[ctEstablished]++
	return false
}

// ObserveResponse runs one server→device segment through the response
// half of the connection's verdict state and reports whether the gateway
// must drop it. The forward direction is enforced per packet by the
// policy pipeline; the response direction has no tag to enforce, so what
// it gets is continuity: the first response observed primes the expected
// sequence number (the tracker cannot know the server's ISN), and every
// later one must continue it exactly. A segment that breaks continuity
// is the mid-stream injection signature and is dropped.
//
// Unknown connections are adopted mid-stream (a restarted gateway must
// not go fail-open on established traffic, and adoption re-primes the
// check) unless their shard is full (see Conntrack); responses landing in
// TIME_WAIT are accepted as the server's reply racing the close.
// Non-TCP, non-IPv4 and headerless packets pass untouched.
func (ct *Conntrack) ObserveResponse(pkt *ipv4.Packet) (drop bool) {
	var info transport.Info
	if !transport.PeekPacket(pkt, &info) || info.Proto != ipv4.ProtoTCP {
		return false
	}
	t, ok := transport.TupleOf(&pkt.Header, info.SrcPort, info.DstPort)
	if !ok {
		return false
	}
	// The response's key is the forward connection's tuple, so it lands
	// on the record the SYN established.
	k := t.Reverse()
	dataLen := uint32(len(pkt.Payload) - info.DataOff)
	now := ct.clock.Now()
	h := k.Hash()
	s := &ct.shards[shardOfHash(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.conns.Get(h, k)
	known := st != nil
	if known && !st.parked {
		s.n[ctChecked]++
		if st.revSeen && info.Seq != st.revNext {
			s.n[ctSeqDrop]++
			return true
		}
		st.revNext = info.Seq + dataLen
		st.revSeen = true
		st.last = now
		return false
	}
	if known && waiting(st.last, now) {
		s.n[ctLate]++
		return false
	}
	if !s.openLocked(h, k, known, connState{last: now, revNext: info.Seq + dataLen, revSeen: true}) {
		s.n[ctUnchecked]++
		return false
	}
	s.n[ctChecked]++
	s.n[ctAdopted]++
	return false
}

// Sweep reclaims open connections idle longer than the given deadline —
// half-open flows whose FIN was lost — and releases expired TIME_WAIT
// records. Returns how many open records it reclaimed. A no-op with
// idle <= 0.
func (ct *Conntrack) Sweep(idle time.Duration) int {
	if idle <= 0 {
		return 0
	}
	now := ct.clock.Now()
	reclaimed := 0
	for i := range ct.shards {
		s := &ct.shards[i]
		s.mu.Lock()
		n := 0
		s.conns.Sweep(func(_ transport.Tuple, st *connState) bool {
			switch {
			case st.parked && !waiting(st.last, now):
				s.parked--
				return true
			case !st.parked && now-st.last > idle:
				n++
				return true
			}
			return false
		})
		s.n[ctIdleReclaimed] += uint64(n)
		s.mu.Unlock()
		reclaimed += n
	}
	return reclaimed
}

// Reset discards all connection state and releases its memory — the
// tracker's share of a gateway restart. The counters survive: they count
// over the tracker's life, and bp_gateway_restarts_total marks the reboot.
// The next packet of every live connection is picked up mid-stream (an
// untracked close, an adoption).
func (ct *Conntrack) Reset() {
	for i := range ct.shards {
		s := &ct.shards[i]
		s.mu.Lock()
		s.conns.Clear()
		s.ring = nil
		s.parked, s.next = 0, 0
		s.mu.Unlock()
	}
}

func (ct *Conntrack) registerMetrics(r *metrics.Registry) {
	count := func(c ctCount) func() uint64 {
		return func() uint64 { return ct.sum(func(s *ctShard) uint64 { return s.n[c] }) }
	}
	const transHelp = "Connection-tracker state transitions by kind."
	for _, t := range []struct {
		c    ctCount
		kind string
	}{
		{ctEstablished, "established"}, {ctClosed, "closed"}, {ctDupClose, "dup_close"},
		{ctLateSYN, "late_syn"}, {ctUntrackedClose, "untracked_close"},
		{ctIdleReclaimed, "idle_reclaimed"}, {ctTableFull, "table_full"},
	} {
		r.CounterFunc("bp_conntrack_transitions_total", transHelp, count(t.c), metrics.L("kind", t.kind))
	}

	const stateHelp = "Connections currently tracked, by state."
	r.GaugeFunc("bp_conntrack_connections", stateHelp,
		func() float64 {
			return float64(ct.sum(func(s *ctShard) uint64 { return uint64(s.conns.Len() - s.parked) }))
		},
		metrics.L("state", "open"))
	r.GaugeFunc("bp_conntrack_connections", stateHelp,
		func() float64 { return float64(ct.sum(func(s *ctShard) uint64 { return uint64(s.parked) })) },
		metrics.L("state", "time_wait"))

	// Response-direction (server→device) enforcement: seq_drop is a
	// segment refused for breaking TCP sequence continuity (mid-stream
	// injection); unchecked is one passed because its full shard could not
	// adopt its connection.
	const respHelp = "Response-direction segments checked, by outcome."
	for _, o := range []struct {
		c       ctCount
		outcome string
	}{
		{ctChecked, "checked"}, {ctAdopted, "adopted"}, {ctLate, "late"},
		{ctSeqDrop, "seq_drop"}, {ctUnchecked, "unchecked"},
	} {
		r.CounterFunc("bp_conntrack_responses_total", respHelp, count(o.c), metrics.L("outcome", o.outcome))
	}
}

// sum adds one reading over the shards, each taken under its shard's lock
// (so the sum is not one instant).
func (ct *Conntrack) sum(read func(s *ctShard) uint64) uint64 {
	var total uint64
	for i := range ct.shards {
		s := &ct.shards[i]
		s.mu.Lock()
		total += read(s)
		s.mu.Unlock()
	}
	return total
}
