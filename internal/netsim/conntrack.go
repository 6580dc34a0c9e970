package netsim

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"time"

	"borderpatrol/internal/ipv4"
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
// is one transport peek. UDP is connectionless and deliberately
// untracked — its flow-cache entries age out via TTL, matching how real
// conntrack expires UDP by timeout. So are endpoints that are not IPv4:
// their FIN/RST still reports connClosed, so teardown fires.
//
// # Shards
//
// The table is ctShards shards, picked by a hash of the 5-tuple. Each has
// its own lock, open map, TIME_WAIT map and ring, and bounds: maxTracked
// and maxTimeWait divided evenly among the shards. Both directions of a
// connection land on one shard, so there is no global lock; a scrape sums
// the shards.
//
// # A full shard
//
// Following nf_conntrack's early_drop, a new connection (a SYN, or a
// response adopted mid-stream) that finds its shard at the bound evicts
// an unreplied entry — one whose response direction has not been primed —
// found among the first evictSample entries it looks at. If it finds
// none, the newcomer is not tracked and counts as a table_full
// transition; a response for a connection that could not be adopted
// passes unchecked and counts as an unchecked response. A connection whose
// response stream is primed is therefore never evicted by a flood: a
// SYN flood cannot disarm the injection check of a live connection.
//
// # Idempotency under faults
//
// A faulty network retransmits, duplicates, and reorders control
// segments, so lifecycle transitions must be idempotent. A closed
// connection parks in a TIME_WAIT analogue for timeWaitTTL of virtual
// time: a duplicate FIN or an RST-after-FIN there still reports
// connClosed (teardown is the safe direction and EndFlow is idempotent)
// but counts as a duplicate close, not a second close; a SYN arriving
// there — a delayed retransmission of the original handshake — is refused
// rather than resurrecting the dead flow. Once TIME_WAIT expires the
// 5-tuple is legitimately reusable and a SYN establishes a fresh
// connection, as on a real host.
type Conntrack struct {
	clock  *Clock
	shards [ctShards]ctShard
}

// ctShard is one lock domain of the tracker. Its counters share the lock.
type ctShard struct {
	mu   sync.Mutex
	open map[connKey]connState

	// timeWait parks recently closed connections; ring bounds it FIFO.
	timeWait map[connKey]time.Duration // key → close time (virtual)
	ring     []timeWaitRecord
	ringPos  int
	ringLen  int

	n [ctCounts]uint64
}

// connState is one open connection's directional verdict state: last
// activity for idle sweeps, plus the response half's expected sequence
// number. revNext is primed by the first server→device segment observed
// (the tracker cannot know the server's ISN in advance) and every later
// response must continue it exactly — the continuity check that flags a
// mid-stream injected segment.
type connState struct {
	last    time.Duration
	revNext uint32
	revSeen bool
}

// connKey identifies a TCP connection by its forward (device→server)
// 5-tuple; the protocol is implicitly TCP. Twelve bytes and no pointers:
// a map probe hashes and compares it without chasing netip.Addr's zone.
type connKey struct {
	src, dst         [4]byte
	srcPort, dstPort uint16
}

// makeConnKey builds the key of a device→server segment; ok is false when
// either endpoint is not IPv4 (such a connection is not tracked).
func makeConnKey(src, dst netip.Addr, srcPort, dstPort uint16) (k connKey, ok bool) {
	if !src.Is4() || !dst.Is4() {
		return connKey{}, false
	}
	return connKey{src: src.As4(), dst: dst.As4(), srcPort: srcPort, dstPort: dstPort}, true
}

// ctShardBits sizes the conntrack and response-sequence tables: 64 shards.
const ctShardBits = 6

const ctShards = 1 << ctShardBits

// shard picks the key's shard from the top bits of a mixed 5-tuple hash.
func (k connKey) shard() int {
	h := uint64(binary.BigEndian.Uint32(k.src[:]))<<32 | uint64(binary.BigEndian.Uint32(k.dst[:]))
	h ^= (uint64(k.srcPort)<<16 | uint64(k.dstPort)) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h >> (64 - ctShardBits))
}

// timeWaitRecord is one ring slot: the parked key and the close time it
// was parked with, so a slot overwritten by churn only deletes the map
// entry it actually corresponds to.
type timeWaitRecord struct {
	key connKey
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

// evictSample is how many entries a full shard looks at for an unreplied
// one to evict before it refuses the newcomer.
const evictSample = 16

// maxTimeWait bounds the TIME_WAIT tables, maxTimeWait/ctShards per
// shard; at the bound the shard's oldest parked connection is released
// early (its 5-tuple becomes reusable), trading a sliver of late-segment
// protection for a hard memory bound — real nf_conntrack does the same
// under table pressure.
const maxTimeWait = 16384

// timeWaitTTL is how long a closed connection's 5-tuple stays parked in
// virtual time. Real TIME_WAIT is 2*MSL (60–120 s); the simulation uses a
// shorter window so soak epochs can legitimately reuse tuples.
const timeWaitTTL = 30 * time.Second

// NewConntrack builds an empty tracker. clock supplies virtual time for
// TIME_WAIT expiry and idle sweeps; nil disables time-based expiry (the
// TIME_WAIT tables are then bounded only by maxTimeWait).
func NewConntrack(clock *Clock) *Conntrack {
	ct := &Conntrack{clock: clock}
	for i := range ct.shards {
		s := &ct.shards[i]
		s.open = make(map[connKey]connState)
		s.timeWait = make(map[connKey]time.Duration)
		s.ring = make([]timeWaitRecord, maxTimeWait/ctShards)
	}
	return ct
}

// now reads virtual time (zero without a clock).
func (ct *Conntrack) now() time.Duration {
	if ct.clock == nil {
		return 0
	}
	return ct.clock.Now()
}

// waiting reports whether a connection parked at virtual time at is
// still in TIME_WAIT at now.
func (ct *Conntrack) waiting(at, now time.Duration) bool {
	return ct.clock == nil || now-at <= timeWaitTTL
}

// parkLocked moves a key into TIME_WAIT, evicting the shard's oldest
// parked entry at capacity. Caller holds s.mu.
func (s *ctShard) parkLocked(k connKey, now time.Duration) {
	if s.ringLen == len(s.ring) {
		old := s.ring[s.ringPos]
		// Only delete the map entry this slot still owns: the key may have
		// been re-parked since, with a newer close time in a newer slot.
		if at, ok := s.timeWait[old.key]; ok && at == old.at {
			delete(s.timeWait, old.key)
		}
		s.ringPos = (s.ringPos + 1) % len(s.ring)
		s.ringLen--
	}
	slot := (s.ringPos + s.ringLen) % len(s.ring)
	s.ring[slot] = timeWaitRecord{key: k, at: now}
	s.ringLen++
	s.timeWait[k] = now
}

// admitLocked makes room for one more open entry: below the bound there
// is room; at it, an unreplied entry among the first evictSample looked
// at is evicted. It reports false when none was found. Caller holds s.mu.
func (s *ctShard) admitLocked() bool {
	if len(s.open) < maxTracked/ctShards {
		return true
	}
	looked := 0
	for k, st := range s.open {
		if !st.revSeen {
			delete(s.open, k)
			return true
		}
		if looked++; looked == evictSample {
			break
		}
	}
	return false
}

// Observe updates connection state for one accepted packet and reports
// whether the packet ended its connection — the caller's cue to tear the
// flow's cached verdict down. Packets without a transport header
// (non-first fragments, malformed headers) and UDP datagrams are ignored.
func (ct *Conntrack) Observe(pkt *ipv4.Packet) (connClosed bool) {
	info, ok := transport.PeekPacket(pkt)
	if !ok || info.Proto != ipv4.ProtoTCP {
		return false
	}
	if info.Flags&(transport.FlagSYN|transport.FlagFIN|transport.FlagRST) == 0 {
		return false // data segment: no lifecycle event, no lock
	}
	closing := info.Flags&(transport.FlagFIN|transport.FlagRST) != 0
	k, ok := makeConnKey(pkt.Header.Src, pkt.Header.Dst, info.SrcPort, info.DstPort)
	if !ok {
		return closing
	}
	now := ct.now()
	s := &ct.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if closing {
		if _, wasOpen := s.open[k]; wasOpen {
			// First close of a tracked connection.
			delete(s.open, k)
			s.n[ctClosed]++
			s.parkLocked(k, now)
			return true
		}
		if at, parked := s.timeWait[k]; parked && ct.waiting(at, now) {
			// Retransmitted FIN or RST-after-FIN: the connection is already
			// down. Teardown still fires — EndFlow is idempotent and closing
			// is the fail-safe direction — but it is not a second close.
			s.n[ctDupClose]++
			return true
		}
		// Connection picked up mid-stream (gateway restart, or the SYN
		// predates the tracker): still counts as closed so teardown fires.
		s.n[ctUntrackedClose]++
		s.n[ctClosed]++
		s.parkLocked(k, now)
		return true
	}
	// SYN path.
	if at, parked := s.timeWait[k]; parked {
		if ct.waiting(at, now) {
			// A delayed handshake retransmission for a dead connection must
			// not resurrect it.
			s.n[ctLateSYN]++
			return false
		}
		delete(s.timeWait, k) // TIME_WAIT expired: the tuple is reusable
	}
	if st, dup := s.open[k]; dup {
		st.last = now // SYN retransmission: refresh activity only
		s.open[k] = st
		return false
	}
	if !s.admitLocked() {
		s.n[ctTableFull]++
		return false
	}
	s.open[k] = connState{last: now}
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
	info, ok := transport.PeekPacket(pkt)
	if !ok || info.Proto != ipv4.ProtoTCP {
		return false
	}
	// The response's key is the forward connection's: swap the endpoints
	// back so it lands on the entry the SYN established.
	k, ok := makeConnKey(pkt.Header.Dst, pkt.Header.Src, info.DstPort, info.SrcPort)
	if !ok {
		return false
	}
	dataLen := uint32(len(pkt.Payload) - info.DataOff)
	now := ct.now()
	s := &ct.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, open := s.open[k]; open {
		s.n[ctChecked]++
		if st.revSeen && info.Seq != st.revNext {
			s.n[ctSeqDrop]++
			return true
		}
		st.revNext = info.Seq + dataLen
		st.revSeen = true
		st.last = now
		s.open[k] = st
		return false
	}
	if at, parked := s.timeWait[k]; parked && ct.waiting(at, now) {
		s.n[ctLate]++
		return false
	}
	if !s.admitLocked() {
		s.n[ctUnchecked]++
		return false
	}
	s.n[ctChecked]++
	s.n[ctAdopted]++
	s.open[k] = connState{last: now, revNext: info.Seq + dataLen, revSeen: true}
	return false
}

// Sweep reclaims open connections idle longer than the given deadline —
// half-open flows whose FIN was lost — and purges expired TIME_WAIT
// entries. Returns how many open entries it reclaimed. A no-op without a
// clock or with idle <= 0.
func (ct *Conntrack) Sweep(idle time.Duration) int {
	if ct.clock == nil || idle <= 0 {
		return 0
	}
	now := ct.now()
	reclaimed := 0
	for i := range ct.shards {
		s := &ct.shards[i]
		s.mu.Lock()
		n := 0
		for k, st := range s.open {
			if now-st.last > idle {
				delete(s.open, k)
				n++
			}
		}
		s.n[ctIdleReclaimed] += uint64(n)
		for k, at := range s.timeWait {
			if now-at > timeWaitTTL {
				delete(s.timeWait, k)
			}
		}
		s.mu.Unlock()
		reclaimed += n
	}
	return reclaimed
}

// Reset discards all connection state — the tracker's share of a gateway
// restart. The counters survive: they count over the tracker's life, and
// bp_gateway_restarts_total marks the reboot. The next packet of every live
// connection is picked up mid-stream (an untracked close, an adoption).
func (ct *Conntrack) Reset() {
	for i := range ct.shards {
		s := &ct.shards[i]
		s.mu.Lock()
		clear(s.open)
		clear(s.timeWait)
		s.ringPos, s.ringLen = 0, 0
		s.mu.Unlock()
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
