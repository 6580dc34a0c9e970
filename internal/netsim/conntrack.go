package netsim

import (
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
// return without taking the lock, so the per-packet cost on the hot path
// is one transport peek. UDP is connectionless and deliberately
// untracked — its flow-cache entries age out via TTL, matching how real
// conntrack expires UDP by timeout.
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
	clock *Clock

	mu   sync.Mutex
	open map[conntrackKey]connState

	// timeWait parks recently closed connections; ring bounds it FIFO.
	timeWait map[conntrackKey]time.Duration // key → close time (virtual)
	ring     []timeWaitRecord
	ringPos  int
	ringLen  int

	established     uint64
	closed          uint64
	dupCloses       uint64
	lateSYNs        uint64
	untrackedCloses uint64
	idleReclaimed   uint64

	responsesChecked uint64
	responseSeqDrops uint64
	responseAdopts   uint64
	responseLate     uint64
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

// conntrackKey identifies a TCP connection at the gateway. The protocol
// is implicitly TCP — nothing else is tracked.
type conntrackKey struct {
	src, dst         netip.Addr
	srcPort, dstPort uint16
}

// timeWaitRecord is one ring slot: the parked key and the close time it
// was parked with, so a slot overwritten by churn only deletes the map
// entry it actually corresponds to.
type timeWaitRecord struct {
	key conntrackKey
	at  time.Duration
}

// ConntrackStats snapshots the tracker.
type ConntrackStats struct {
	// Established counts connections opened (SYN observed on an accepted
	// packet).
	Established uint64
	// Closed counts connections ended (first FIN or RST observed).
	Closed uint64
	// DupCloses counts redundant teardowns: a retransmitted FIN or an
	// RST-after-FIN landing on a connection already in TIME_WAIT.
	DupCloses uint64
	// LateSYNs counts SYNs refused because their 5-tuple was in TIME_WAIT —
	// a delayed/duplicated handshake that must not resurrect a dead flow.
	LateSYNs uint64
	// UntrackedCloses counts FIN/RSTs for connections the tracker never saw
	// open (the gateway restarted mid-stream, or the SYN predates it).
	// Teardown still fires for them.
	UntrackedCloses uint64
	// IdleReclaimed counts open entries swept after exceeding the idle
	// deadline (half-open connections whose teardown was lost).
	IdleReclaimed uint64
	// ResponsesChecked counts server→device TCP segments run through the
	// response-direction continuity check.
	ResponsesChecked uint64
	// ResponseSeqDrops counts response segments dropped for breaking
	// sequence continuity — the mid-stream injection signature.
	ResponseSeqDrops uint64
	// ResponseAdopts counts responses for unknown connections adopted
	// mid-stream (gateway restarted, or the SYN predates the tracker).
	ResponseAdopts uint64
	// ResponseLate counts responses landing on a connection already in
	// TIME_WAIT (the server's reply raced the close); accepted, since the
	// teardown already fired.
	ResponseLate uint64
	// Open is the number of connections currently tracked; TimeWait the
	// number parked awaiting 5-tuple reuse.
	Open     int
	TimeWait int
}

// maxTracked bounds the open-connection map. Teardown does not depend on
// an entry being present (a FIN/RST always fires EndFlow), so the table
// exists for stats and double-SYN dedup only — but without a bound, any
// connection whose SYN was accepted and whose FIN is later dropped (a
// policy swap mid-connection, an app error path that never calls Finish)
// would leak its entry forever. At the cap an arbitrary entry is evicted,
// mirroring real nf_conntrack's table-full behaviour.
const maxTracked = 65536

// maxTimeWait bounds the TIME_WAIT table; at the cap the oldest parked
// connection is released early (its 5-tuple becomes reusable), trading a
// sliver of late-segment protection for a hard memory bound — real
// nf_conntrack does the same under table pressure.
const maxTimeWait = 16384

// timeWaitTTL is how long a closed connection's 5-tuple stays parked in
// virtual time. Real TIME_WAIT is 2*MSL (60–120 s); the simulation uses a
// shorter window so soak epochs can legitimately reuse tuples.
const timeWaitTTL = 30 * time.Second

// NewConntrack builds an empty tracker. clock supplies virtual time for
// TIME_WAIT expiry and idle sweeps; nil disables time-based expiry (the
// TIME_WAIT table is then bounded only by maxTimeWait).
func NewConntrack(clock *Clock) *Conntrack {
	return &Conntrack{
		clock:    clock,
		open:     make(map[conntrackKey]connState),
		timeWait: make(map[conntrackKey]time.Duration),
		ring:     make([]timeWaitRecord, maxTimeWait),
	}
}

// now reads virtual time (zero without a clock).
func (ct *Conntrack) now() time.Duration {
	if ct.clock == nil {
		return 0
	}
	return ct.clock.Now()
}

// parkLocked moves a key into TIME_WAIT, evicting the oldest parked entry
// at capacity. Caller holds ct.mu.
func (ct *Conntrack) parkLocked(k conntrackKey, now time.Duration) {
	if ct.ringLen == len(ct.ring) {
		old := ct.ring[ct.ringPos]
		// Only delete the map entry this slot still owns: the key may have
		// been re-parked since, with a newer close time in a newer slot.
		if at, ok := ct.timeWait[old.key]; ok && at == old.at {
			delete(ct.timeWait, old.key)
		}
		ct.ringPos = (ct.ringPos + 1) % len(ct.ring)
		ct.ringLen--
	}
	slot := (ct.ringPos + ct.ringLen) % len(ct.ring)
	ct.ring[slot] = timeWaitRecord{key: k, at: now}
	ct.ringLen++
	ct.timeWait[k] = now
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
	k := conntrackKey{
		src: pkt.Header.Src, dst: pkt.Header.Dst,
		srcPort: info.SrcPort, dstPort: info.DstPort,
	}
	now := ct.now()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if info.Flags&(transport.FlagFIN|transport.FlagRST) != 0 {
		if _, wasOpen := ct.open[k]; wasOpen {
			// First close of a tracked connection.
			delete(ct.open, k)
			ct.closed++
			ct.parkLocked(k, now)
			return true
		}
		if at, parked := ct.timeWait[k]; parked && (ct.clock == nil || now-at <= timeWaitTTL) {
			// Retransmitted FIN or RST-after-FIN: the connection is already
			// down. Teardown still fires — EndFlow is idempotent and closing
			// is the fail-safe direction — but it is not a second close.
			ct.dupCloses++
			return true
		}
		// Connection picked up mid-stream (gateway restart, or the SYN
		// predates the tracker): still counts as closed so teardown fires.
		ct.untrackedCloses++
		ct.closed++
		ct.parkLocked(k, now)
		return true
	}
	// SYN path.
	if at, parked := ct.timeWait[k]; parked {
		if ct.clock == nil || now-at <= timeWaitTTL {
			// A delayed handshake retransmission for a dead connection must
			// not resurrect it.
			ct.lateSYNs++
			return false
		}
		delete(ct.timeWait, k) // TIME_WAIT expired: the tuple is reusable
	}
	if st, dup := ct.open[k]; dup {
		st.last = now // SYN retransmission: refresh activity only
		ct.open[k] = st
		return false
	}
	ct.evictAtCapLocked()
	ct.open[k] = connState{last: now}
	ct.established++
	return false
}

// evictAtCapLocked frees one arbitrary open slot when the table is full,
// mirroring real nf_conntrack's table-full behaviour. Caller holds ct.mu.
func (ct *Conntrack) evictAtCapLocked() {
	if len(ct.open) >= maxTracked {
		for victim := range ct.open {
			delete(ct.open, victim)
			break
		}
	}
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
// check); responses landing in TIME_WAIT are accepted as the server's
// reply racing the close. Non-TCP and headerless packets pass untouched.
func (ct *Conntrack) ObserveResponse(pkt *ipv4.Packet) (drop bool) {
	info, ok := transport.PeekPacket(pkt)
	if !ok || info.Proto != ipv4.ProtoTCP {
		return false
	}
	// The response's key is the forward connection's: swap the endpoints
	// back so it lands on the entry the SYN established.
	k := conntrackKey{
		src: pkt.Header.Dst, dst: pkt.Header.Src,
		srcPort: info.DstPort, dstPort: info.SrcPort,
	}
	dataLen := uint32(len(pkt.Payload) - info.DataOff)
	now := ct.now()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if st, open := ct.open[k]; open {
		ct.responsesChecked++
		if st.revSeen && info.Seq != st.revNext {
			ct.responseSeqDrops++
			return true
		}
		st.revNext = info.Seq + dataLen
		st.revSeen = true
		st.last = now
		ct.open[k] = st
		return false
	}
	if at, parked := ct.timeWait[k]; parked && (ct.clock == nil || now-at <= timeWaitTTL) {
		ct.responseLate++
		return false
	}
	ct.responsesChecked++
	ct.responseAdopts++
	ct.evictAtCapLocked()
	ct.open[k] = connState{last: now, revNext: info.Seq + dataLen, revSeen: true}
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
	ct.mu.Lock()
	defer ct.mu.Unlock()
	reclaimed := 0
	for k, st := range ct.open {
		if now-st.last > idle {
			delete(ct.open, k)
			reclaimed++
		}
	}
	ct.idleReclaimed += uint64(reclaimed)
	for k, at := range ct.timeWait {
		if now-at > timeWaitTTL {
			delete(ct.timeWait, k)
		}
	}
	return reclaimed
}

// Reset discards all connection state and zeroes the counters — the
// tracker's share of a gateway restart. The next packet of every live
// connection is picked up mid-stream (see UntrackedCloses).
func (ct *Conntrack) Reset() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	clear(ct.open)
	clear(ct.timeWait)
	ct.ringPos, ct.ringLen = 0, 0
	ct.established, ct.closed = 0, 0
	ct.dupCloses, ct.lateSYNs, ct.untrackedCloses, ct.idleReclaimed = 0, 0, 0, 0
	ct.responsesChecked, ct.responseSeqDrops, ct.responseAdopts, ct.responseLate = 0, 0, 0, 0
}

// Stats snapshots the tracker's counters.
func (ct *Conntrack) Stats() ConntrackStats {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ConntrackStats{
		Established:      ct.established,
		Closed:           ct.closed,
		DupCloses:        ct.dupCloses,
		LateSYNs:         ct.lateSYNs,
		UntrackedCloses:  ct.untrackedCloses,
		IdleReclaimed:    ct.idleReclaimed,
		ResponsesChecked: ct.responsesChecked,
		ResponseSeqDrops: ct.responseSeqDrops,
		ResponseAdopts:   ct.responseAdopts,
		ResponseLate:     ct.responseLate,
		Open:             len(ct.open),
		TimeWait:         len(ct.timeWait),
	}
}
