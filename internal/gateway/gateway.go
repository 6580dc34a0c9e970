// Package gateway is BorderPatrol's enforcement host (§VI-A): the
// appliance at the enterprise perimeter whose NFQUEUE readers run every
// BYOD packet through the Policy Enforcer and the Packet Sanitizer, and
// whose connection tracker tears a closed connection's cached verdict
// down and checks the continuity of the responses coming back. It knows
// no wire, route, server or device: the simulated testbed
// (internal/netsim) hands it each burst with a Continuation (Drain), and
// time comes from a flowtable.Clock.
package gateway

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/sanitizer"
	"borderpatrol/internal/transport"
)

// Gateway is one enforcement point, its stages called directly (NFQUEUE 1
// and 2 in the paper). One with neither stage is Fig. 4's bare NFQUEUE
// reader: it tracks connections and reinjects packets unmodified.
//
// A burst (of one packet or of thousands) is split by flow over the
// gateway's workers, the way NFQUEUE --queue-balance hashes flows to
// readers: each worker runs its share through the stages and then the
// connection tracker, in burst order. The flow table's shards follow the
// same split, so at 1, 2, 4 or 8 workers a flow-table hit writes only its
// own worker's shard, and the enforcer and the sanitizer add their counts
// once per burst. The workers still meet at the connection tracker, whose
// shards follow the whole tuple. Concurrent bursts, or Process calls
// beside one, may share any shard: each keeps its lock.
type Gateway struct {
	enforcer  *enforcer.Enforcer
	sanitizer *sanitizer.Sanitizer
	// ct tracks TCP connection state on accepted packets: SYN establishes,
	// FIN/RST ends the connection and tears down the flow's cached verdict
	// through the enforcer.
	ct *Conntrack
	// workers caps the flow-affine fan-out (≤0 = GOMAXPROCS).
	workers int

	restarts atomic.Uint64
}

// GatewayConfig assembles a gateway.
type GatewayConfig struct {
	// Enforcer enables the Policy Enforcer stage (nil leaves the stage out).
	Enforcer *enforcer.Enforcer
	// Sanitizer enables the Packet Sanitizer stage (nil leaves it out).
	Sanitizer *sanitizer.Sanitizer
	// Workers caps how many workers a burst is split over, by flow, for
	// its whole path: enforcer, sanitizer, conntrack and the continuation
	// (≤0 = GOMAXPROCS). Each worker takes at least 64 packets on average,
	// so a shorter burst runs on the caller alone. Where a burst crosses
	// several gateways, the widest one sizes it.
	Workers int
	// Clock supplies virtual time to the connection tracker (TIME_WAIT
	// expiry, idle sweeps). Required: NewGateway panics without one.
	Clock flowtable.Clock
}

// NewGateway assembles the pipeline from its stages. It panics without
// cfg.Clock.
func NewGateway(cfg GatewayConfig) *Gateway {
	return &Gateway{
		enforcer:  cfg.Enforcer,
		sanitizer: cfg.Sanitizer,
		ct:        NewConntrack(cfg.Clock),
		workers:   cfg.Workers,
	}
}

// HasEnforcer reports whether the enforcement stage is present.
func (g *Gateway) HasEnforcer() bool { return g.enforcer != nil }

// HasSanitizer reports whether the sanitizing stage is present.
func (g *Gateway) HasSanitizer() bool { return g.sanitizer != nil }

// ProcessResponse runs one server→device packet through the gateway's
// response-direction verdict state and reports whether it may pass. The
// return path carries no tag, so enforcement there is TCP sequence
// continuity (see Conntrack.ObserveResponse): a mid-stream injected
// segment whose sequence number breaks the connection's continuity is
// dropped and counted as bp_conntrack_responses_total{outcome="seq_drop"}.
func (g *Gateway) ProcessResponse(pkt *ipv4.Packet) bool {
	return !g.ct.ObserveResponse(pkt)
}

// BatchOutcome is the fate of one packet in a ProcessBatch drain.
type BatchOutcome struct {
	// Out is the surviving (sanitized) packet; nil when dropped.
	Out *ipv4.Packet
	// Result is the Policy Enforcer's decision when that stage ran.
	Result *enforcer.Result
}

// Flow is a forward packet's transport identity, peeked once by its worker
// for its connection event and the continuation: the tuple (valid when
// V4), the protocol and the TCP flags (zero when the peek refused it).
type Flow struct {
	Tuple        transport.Tuple
	Proto, Flags byte
	V4           bool
}

// Continuation carries a burst's packets on past the gateway (in the
// simulated testbed: the wire, the server and the response check). Drain
// calls Workers once with the burst's worker count, then Continue for each
// packet i on the worker w that owns its flow, in burst order, after the
// packet's stages and connection event, so a flow's FIN is observed after
// its data was answered. A dropped packet's o.Out is nil and its f zero.
// Calls on different workers run concurrently.
type Continuation interface {
	Workers(n int)
	Continue(w, i int, o BatchOutcome, f Flow)
}

// Drain runs pkts through their gateways (gws[i] owns pkts[i]; nil passes
// it on unenforced and untracked) and next, on flow-affine workers (see
// GatewayConfig.Workers). It writes the enforcement results into results,
// grown when short, and returns that slab: the outcomes' Results live
// there until the next Drain into it, an egress copy only for the call.
func Drain(pkts []*ipv4.Packet, gws []*Gateway, results []enforcer.Result, next Continuation) []enforcer.Result {
	b := getBurst(pkts, gws)
	b.results, b.next = results, next
	b.split()
	next.Workers(len(b.workers))
	b.run()
	results = b.results
	b.release()
	return results
}

// ProcessBatch runs a burst through this gateway alone: Drain with no
// continuation. Outcomes align with pkts; they, the Results they point at
// and the egress copies are the caller's to keep. The error is always nil.
// It charges no virtual time. Calls are not serialized against each
// other — the flow table and the tracker lock per shard, not per call —
// so callers needing a totally ordered audit trail should order on the
// returned outcomes, not on side effects.
func (g *Gateway) ProcessBatch(pkts []*ipv4.Packet) ([]BatchOutcome, error) {
	gws := make([]*Gateway, len(pkts))
	for i := range gws {
		gws[i] = g
	}
	b := getBurst(pkts, gws)
	b.split()
	b.run()
	out := slices.Clone(b.outcomes)
	b.egress, b.opts = nil, nil // the caller's now: release must not clear them
	b.release()
	return out, nil
}

// width is how many workers a burst of these gateways may use: the widest
// gateway's cap (GatewayConfig.Workers, ≤ 0 = GOMAXPROCS), GOMAXPROCS when
// no packet has a gateway.
func width(gws []*Gateway) int {
	procs, workers := runtime.GOMAXPROCS(0), 0
	for _, gw := range gws {
		if gw != nil {
			workers = max(workers, cmp.Or(max(gw.workers, 0), procs))
		}
	}
	return cmp.Or(workers, procs)
}

// Restart models a gateway crash and reboot: all per-flow state — the
// enforcer's flow-verdict cache and the connection tracker's tables — is
// discarded, exactly as a real appliance loses its RAM tables. Counters
// are not state: they keep counting across the reboot, which
// bp_gateway_restarts_total marks. The policy engine and signature database survive (they are
// control-plane state, re-read from persistent config on a real host), so
// the next packet of every live flow re-resolves through the full
// pipeline and must reach the same verdict cold — the re-resolution
// property the soak harness asserts.
func (g *Gateway) Restart() {
	if g.enforcer != nil {
		g.enforcer.PurgeFlows()
	}
	g.ct.Reset()
	g.restarts.Add(1)
}

// Restarts counts Restart calls over the gateway's lifetime.
func (g *Gateway) Restarts() uint64 { return g.restarts.Load() }

// GC runs one idle sweep: connections with no activity for longer than
// idle leave the conntrack (their FIN was lost — the half-open leak), and
// flow-cache entries that can never answer again (enforcer.SweepFlows: idle
// past the TTL, or of a moved generation) are reclaimed. Returns what each
// sweep freed. Deployments call it periodically; the soak harness calls it
// between epochs and asserts the tables return to empty.
func (g *Gateway) GC(idle time.Duration) (conns, flows int) {
	conns = g.ct.Sweep(idle)
	if g.enforcer != nil {
		flows = g.enforcer.SweepFlows()
	}
	return conns, flows
}

// RegisterMetrics attaches the gateway's connection-tracker series and
// restart count to a registry. The tracker's series sum its per-shard
// counters at scrape time, so the packet path pays nothing. The
// enforcement stage registers itself separately (it may run without a
// gateway in unit benches).
func (g *Gateway) RegisterMetrics(r *metrics.Registry) {
	g.ct.registerMetrics(r)
	r.CounterFunc("bp_gateway_restarts_total", "Gateway crash/reboot cycles.", g.Restarts)
}

// Sanitizer returns the sanitizing stage, if present.
func (g *Gateway) Sanitizer() *sanitizer.Sanitizer { return g.sanitizer }
