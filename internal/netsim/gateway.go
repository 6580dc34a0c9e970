package netsim

import (
	"runtime"
	"sync/atomic"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/sanitizer"
)

// Gateway is the enterprise-perimeter appliance: every packet from BYOD
// devices goes to the user-space Policy Enforcer and, if it survives, to the
// Packet Sanitizer. The paper's worker host diverts traffic to them over
// NFQUEUE 1 and 2 (§VI-A); here the gateway calls the stages directly and
// the queue hop is charged in virtual time (LatencyModel.NFQueueHopPerPacket).
//
// A burst (of one packet or of thousands) is split by flow over the
// gateway's workers, the way NFQUEUE --queue-balance hashes flows to
// readers: each worker runs its share through the enforcer and sanitizer
// and then the connection tracker, in burst order. The enforcer's
// ProcessBatch amortizes resolve+decode across packets of the same flow,
// and the lock-free enforcement path and the sharded tracker let the
// workers proceed on every core without waiting on each other.
type Gateway struct {
	enforcer  *enforcer.Enforcer
	sanitizer *sanitizer.Sanitizer
	// ct tracks TCP connection state on accepted packets: SYN establishes,
	// FIN/RST ends the connection and tears down the flow's cached verdict
	// through the enforcer.
	ct *Conntrack
	// workers caps the flow-affine fan-out (≤0 = GOMAXPROCS).
	workers int
	// passthrough models config (iii) of Fig. 4: a reader that consumes
	// the queue and reinjects packets unmodified.
	passthrough bool

	restarts atomic.Uint64
}

// GatewayConfig assembles a gateway.
type GatewayConfig struct {
	// Enforcer enables the Policy Enforcer stage (nil leaves the stage out).
	Enforcer *enforcer.Enforcer
	// Sanitizer enables the Packet Sanitizer stage (nil leaves it out).
	Sanitizer *sanitizer.Sanitizer
	// Passthrough makes the gateway active with no enforcer or sanitizer: it
	// charges the bare NFQUEUE hop and reinjects packets unmodified.
	Passthrough bool
	// Workers caps how many workers a burst is split over, by flow, for
	// its whole delivery path: enforcer, sanitizer, conntrack, serve and
	// response check (≤0 = GOMAXPROCS). Each worker takes at least 64
	// packets on average, so a shorter burst runs on the caller alone.
	// Where a burst crosses several gateways, the widest one sizes it.
	Workers int
	// Clock supplies virtual time to the connection tracker (TIME_WAIT
	// expiry, idle sweeps); nil disables time-based conntrack expiry.
	Clock *Clock
}

// NewGateway assembles the pipeline from its stages.
func NewGateway(cfg GatewayConfig) *Gateway {
	return &Gateway{
		enforcer:    cfg.Enforcer,
		sanitizer:   cfg.Sanitizer,
		ct:          NewConntrack(cfg.Clock),
		workers:     cfg.Workers,
		passthrough: cfg.Passthrough,
	}
}

// Active reports whether the gateway diverts packets to user space at all
// (used for latency accounting).
func (g *Gateway) Active() bool {
	return g.enforcer != nil || g.sanitizer != nil || g.passthrough
}

// HasEnforcer reports whether the enforcement stage is present.
func (g *Gateway) HasEnforcer() bool { return g.enforcer != nil }

// HasSanitizer reports whether the sanitizing stage is present.
func (g *Gateway) HasSanitizer() bool { return g.sanitizer != nil }

// width resolves the worker cap (GatewayConfig.Workers).
func (g *Gateway) width() int {
	if g.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return g.workers
}

// observeConn feeds one accepted packet to the conntrack; a FIN/RST tears
// the flow's cached verdict down through the enforcer. The original
// (still-tagged) packet is used, not the sanitized output — teardown keys
// on the same (5-tuple, tag bytes) the cache does. Dropped packets never
// reach it, so a denied flow's cached drop verdict deliberately survives
// its FIN: repeat offenders stay cheap to block.
func (g *Gateway) observeConn(pkt *ipv4.Packet) {
	if g.ct.Observe(pkt) {
		if g.enforcer != nil {
			g.enforcer.EndFlow(pkt)
		}
	}
}

// ProcessResponse runs one server→device packet through the gateway's
// response-direction verdict state and reports whether it may pass. The
// return path carries no tag, so enforcement there is TCP sequence
// continuity (see Conntrack.ObserveResponse): a mid-stream injected
// segment whose sequence number breaks the connection's continuity is
// dropped and counted as bp_conntrack_responses_total{outcome="seq_drop"}.
func (g *Gateway) ProcessResponse(pkt *ipv4.Packet) bool {
	if !g.Active() {
		return true
	}
	return !g.ct.ObserveResponse(pkt)
}

// BatchOutcome is the fate of one packet in a ProcessBatch drain.
type BatchOutcome struct {
	// Out is the surviving (sanitized) packet; nil when dropped.
	Out *ipv4.Packet
	// Result is the Policy Enforcer's decision when that stage ran.
	Result *enforcer.Result
}

// ProcessBatch runs a burst through this gateway alone: the first half of
// DeliverBatch's path, on the same flow-affine workers (see
// GatewayConfig.Workers), stopping before the serve. Each worker runs
// its packets through the stages (enforcer, sanitizer), then observes the
// accepted ones' connection events in burst order, so a FIN at the end of
// a keep-alive train tears the flow down only after its data packets were
// answered from the cache. Outcomes align with pkts; the error is always
// nil. It charges no virtual time. Calls are not serialized against each
// other — the enforcement path is lock-free by design — so callers
// needing a totally ordered audit trail should order on the returned
// outcomes, not on side effects.
func (g *Gateway) ProcessBatch(pkts []*ipv4.Packet) ([]BatchOutcome, error) {
	out := make([]BatchOutcome, len(pkts))
	b := getBurst(pkts)
	b.outcomes = out
	for i := range b.gws {
		b.gws[i] = g
	}
	b.split(g.workers)
	b.run()
	b.detach()
	b.release()
	return out, nil
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
// flow-cache entries idle past the TTL are reclaimed. Returns what each sweep
// freed. Deployments call it periodically; the soak harness calls it
// between epochs and asserts the tables return to empty.
func (g *Gateway) GC(idle time.Duration) (conns, flows int) {
	conns = g.ct.Sweep(idle)
	if g.enforcer != nil {
		flows = g.enforcer.SweepFlows()
	}
	return conns, flows
}

// Enforcer returns the enforcement stage, if present.
func (g *Gateway) Enforcer() *enforcer.Enforcer { return g.enforcer }

// Sanitizer returns the sanitizing stage, if present.
func (g *Gateway) Sanitizer() *sanitizer.Sanitizer { return g.sanitizer }
