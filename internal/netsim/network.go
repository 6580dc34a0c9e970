// Package netsim simulates the world around the paper's enterprise testbed
// (§VI-A, §VI-D): the emulator's NIC modes (QEMU SLIRP vs TAP), the wire to
// the perimeter with its faults and off-premises routes, pooled device
// addresses, HTTP and UDP servers, RFC 7126 border filtering, and a
// virtual clock with a calibrated latency model. The gateway host is
// internal/gateway: a Network charges each burst's costs in virtual time,
// hands it to its packets' gateways (gateway.Drain) and serves the
// survivors on the gateway's workers.
package netsim

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/transport"
)

// NICMode is the emulator's network interface mode.
type NICMode int

// NIC modes.
const (
	// ModeSLIRP is QEMU user-mode networking (the SDK default).
	ModeSLIRP NICMode = iota + 1
	// ModeTAP is the virtual TAP interface the paper's testbed uses.
	ModeTAP
)

// String names the mode.
func (m NICMode) String() string {
	switch m {
	case ModeSLIRP:
		return "slirp"
	case ModeTAP:
		return "tap"
	default:
		return fmt.Sprintf("nic(%d)", int(m))
	}
}

// DropStage identifies where in the path a packet died.
type DropStage int

// Drop stages.
const (
	// StageNone means the packet was delivered.
	StageNone DropStage = iota
	// StageGateway is a Policy Enforcer drop.
	StageGateway
	// StageBorder is an RFC 7126 drop at the upstream router.
	StageBorder
	// StageNoRoute is an unknown destination.
	StageNoRoute
	// StageFault is a loss injected by the installed FaultPlan (the wire
	// ate the packet before the gateway ever saw it).
	StageFault
)

// String names the stage.
func (s DropStage) String() string {
	switch s {
	case StageNone:
		return "delivered"
	case StageGateway:
		return "gateway"
	case StageBorder:
		return "border-router"
	case StageNoRoute:
		return "no-route"
	case StageFault:
		return "wire-fault"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Server is a network endpoint handling HTTP requests (over TCP segments)
// and/or UDP datagrams.
type Server struct {
	// Addr is the server's IPv4 address.
	Addr netip.Addr
	// Name is the DNS name(s) it serves, for reporting.
	Name string
	// Handler produces HTTP responses.
	Handler httpsim.Handler
	// UDPHandler answers UDP datagrams (e.g. dns.ZoneHandler serving a
	// zone); the returned bytes become Delivery.Datagram (nil = no reply).
	UDPHandler func(payload []byte) []byte
	// Internal servers sit inside the corporate perimeter: traffic to them
	// passes the gateway but not the RFC 7126 border router.
	Internal bool
}

// Network is the assembled testbed.
type Network struct {
	Clock *Clock
	Model LatencyModel
	// NIC selects the emulator interface mode.
	NIC NICMode
	// Gateway is the perimeter appliance; nil routes straight to servers.
	// When subnet routes are installed (AddGatewayRoute) it becomes the
	// default for sources no route covers — the N=1 topology is just the
	// zero-route special case of the fleet.
	Gateway *gateway.Gateway

	// gwRoutes, when non-nil, maps device source subnets to their owning
	// gateways: the fleet topology, where each enforcement point fronts
	// one slice of the device population. One atomic pointer load per
	// delivery when no routes are installed.
	gwRoutes atomic.Pointer[[]gatewayRoute]

	// faults, when non-nil, injects wire faults on the device→gateway
	// path. One atomic pointer load per delivery when disarmed — the
	// fault-free fast path is otherwise untouched. Every plan armed counts
	// into faultN.
	faults atomic.Pointer[Faults]
	faultN faultCounts

	// mu serializes AddServer and AddGatewayRoute.
	mu sync.Mutex
	// servers is copy-on-write: AddServer is rare, and every delivery
	// worker reads the table with one atomic load.
	servers atomic.Pointer[map[netip.Addr]*Server]

	// respSeq is the server-side TCP sequence position per connection:
	// what the next synthesized response segment starts at. Keyed on the
	// forward tuple and sharded by the top bits of its hash: each shard is
	// a seeded flowtable.Index that compares the whole tuple (collisions
	// cost probes, never another connection's sequence), read and advanced
	// in one probe, and bounded as maxRespTracked says.
	respSeq [respShards]respShard
	// respUntracked counts responses rendered for a connection its full
	// respSeq shard could not record (see maxRespTracked); respReclaimed
	// counts entries a full shard reclaimed after idling past respIdle.
	respUntracked, respReclaimed atomic.Uint64

	// kept is the Batch DeliverBatch writes into, taken with a swap for the
	// call's length: a call that finds it taken uses a Batch of its own.
	kept atomic.Pointer[Batch]
}

// respShard is one lock domain of Network.respSeq.
type respShard struct {
	mu   sync.Mutex
	next flowtable.Index[transport.Tuple, respEntry]
}

// respEntry is the server's side of one connection: where its next
// response segment starts, and the virtual second it last answered in
// (whole seconds keep a table slot at 20 bytes, the tuple included).
type respEntry struct {
	seq, last uint32
}

// RegisterMetrics attaches the network's fault-injection counters and the
// response-sequence table's overflow and reclaim counts to a registry. The
// fault counts belong to the network, not to a plan: they exist (at zero)
// on a clean network and survive every InstallFaults and ClearFaults.
func (n *Network) RegisterMetrics(r *metrics.Registry) {
	const faultHelp = "Wire faults injected on the device-to-gateway path, by stage."
	for st := range n.faultN.n {
		r.CounterFunc("bp_netsim_faults_total", faultHelp, n.faultN.n[st].Load, metrics.L("stage", faultStageNames[st]))
	}
	r.CounterFunc("bp_netsim_fault_delay_virtual_ns_total",
		"Total virtual wire time charged by the delay fault.",
		func() uint64 { return uint64(n.faultN.delay.Load()) })
	r.CounterFunc("bp_netsim_response_seq_untracked_total",
		"Server responses of connections a full response-sequence shard could not record.",
		n.respUntracked.Load)
	r.CounterFunc("bp_netsim_response_seq_reclaimed_total",
		"Server response-sequence entries a full shard reclaimed after they idled past the keep-alive timeout.",
		n.respReclaimed.Load)
}

// NewNetwork builds a testbed with the given NIC mode and the default
// latency model. Its upstream router applies RFC 7126 to traffic for
// non-internal destinations.
func NewNetwork(nic NICMode) *Network {
	n := &Network{
		Clock: NewClock(),
		Model: DefaultLatencyModel(),
		NIC:   nic,
	}
	n.servers.Store(&map[netip.Addr]*Server{})
	for i := range n.respSeq {
		n.respSeq[i].next = flowtable.NewIndex[transport.Tuple, respEntry](maxRespTracked / respShards)
	}
	return n
}

// gatewayRoute binds a device source subnet to its enforcement point.
type gatewayRoute struct {
	prefix netip.Prefix
	gw     *gateway.Gateway
}

// AddGatewayRoute routes traffic whose source lies in prefix through gw —
// the fleet's subnet topology. Routes are longest-prefix matched; sources
// outside every route fall back to the legacy Gateway field. Installing a
// route is copy-on-write, safe against concurrent deliveries.
func (n *Network) AddGatewayRoute(prefix netip.Prefix, gw *gateway.Gateway) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var routes []gatewayRoute
	if rp := n.gwRoutes.Load(); rp != nil {
		routes = append(routes, *rp...)
	}
	routes = append(routes, gatewayRoute{prefix: prefix.Masked(), gw: gw})
	n.gwRoutes.Store(&routes)
}

// GatewayFor resolves the gateway that fronts a device source address:
// the longest matching installed route, else the legacy Gateway field.
func (n *Network) GatewayFor(src netip.Addr) *gateway.Gateway {
	if rp := n.gwRoutes.Load(); rp != nil {
		routes := *rp
		best := -1
		for i := range routes {
			if routes[i].prefix.Contains(src) && (best < 0 || routes[i].prefix.Bits() > routes[best].prefix.Bits()) {
				best = i
			}
		}
		if best >= 0 {
			return routes[best].gw
		}
	}
	return n.Gateway
}

// AddServer registers an endpoint. The table is copied on write, so
// registering is safe against concurrent deliveries.
func (n *Network) AddServer(s *Server) {
	n.mu.Lock()
	defer n.mu.Unlock()
	servers := maps.Clone(*n.servers.Load())
	servers[s.Addr] = s
	n.servers.Store(&servers)
}

// ServerAt returns the server at an address.
func (n *Network) ServerAt(addr netip.Addr) (*Server, bool) {
	s, ok := (*n.servers.Load())[addr]
	return s, ok
}

// InstallFaults arms a fault plan on the device→gateway wire, replacing
// any previous plan. The fault counts carry on from the previous plans'.
func (n *Network) InstallFaults(plan FaultPlan) {
	n.faults.Store(newFaults(plan, &n.faultN))
}

// ClearFaults disarms fault injection (the pre-fault fast path returns to
// a single nil pointer load). The fault counts keep what was injected.
func (n *Network) ClearFaults() {
	n.faults.Store(nil)
}

// Delivery is the fate of one packet pushed through the network. A
// delivery, and the enforcement Result it points at, live in the Batch the
// burst was written into: DeliverBatch's stay valid until the next
// DeliverBatch on the same Network, DeliverInto's until the next burst
// written into the same Batch. Deliver and DeliverRoute return deliveries
// the caller owns.
type Delivery struct {
	// Delivered reports whether the packet reached its server.
	Delivered bool
	// Stage is where the packet died when not delivered.
	Stage DropStage
	// Enforcement is the Policy Enforcer's result when that stage ran. It
	// points into the burst's Batch.
	Enforcement *enforcer.Result
	// Response is the server's reply (nil when dropped or non-HTTP).
	Response *httpsim.Response
	// Datagram is the server's UDP reply (a DNS answer, typically); nil
	// when the packet carried no datagram, the server has no UDPHandler or
	// the handler refused the query. A dns.ZoneHandler answer is a
	// capacity-capped cut of a block the handler shares across queries:
	// appending to it reallocates, and holding it pins that block.
	Datagram []byte
	// ResponseDropped reports that the server produced a response but the
	// gateway's response-direction verdict state dropped it on the way
	// back in (sequence-continuity violation); Response is nil then.
	ResponseDropped bool
	// Latency is the virtual one-way + response time charged.
	Latency time.Duration
}

// Batch is the storage a delivery burst is written into: its deliveries
// and the enforcement results they point at. Each burst written into a
// Batch overwrites the one before, so a caller that keeps deliveries or
// delivers from several goroutines holds a Batch of its own per burst in
// flight. The zero Batch is ready to use; it grows to the largest burst it
// carried and keeps that storage.
type Batch struct {
	results []enforcer.Result
	// active lists the distinct gateways the burst crosses.
	active []*gateway.Gateway
	serve  serve
}

// serve is the world's half of a burst in the Batch, the Continuation
// Drain calls on each packet's worker: the deliveries, each packet's
// gateway, and per worker its serves' virtual time, the request each HTTP
// payload is parsed into and the packet each response is rendered into.
type serve struct {
	n       *Network
	dels    []Delivery
	gws     []*gateway.Gateway
	workers []struct {
		charge time.Duration
		req    httpsim.Request
		resp   ipv4.Packet
		_      [56]byte // to 256 B: no two workers write one cache line
	}
}

// Workers sizes the per-worker scratch for the burst Drain is about to
// run; deliverBatchCore zeroes the charges as it sums them.
func (s *serve) Workers(n int) { s.workers = slices.Grow(s.workers[:0], n)[:n] }

// Continue is packet i's tail past the gateway, on worker w: route lookup,
// RFC 7126 border filtering and the server — HTTP out of TCP data
// segments, datagrams through its UDPHandler. A payload the worker's peek
// refused is delivered but serves nothing; the server only forgets a
// closing connection's sequence position (lifecycle is the conntrack's).
// An HTTP reply then crosses the owning gateway as a wire segment and is
// removed if the gateway drops it for breaking sequence continuity. Every
// field is written: the Batch still holds an earlier burst's delivery.
func (s *serve) Continue(w, i int, o gateway.BatchOutcome, f gateway.Flow) {
	d := &s.dels[i]
	*d = Delivery{Enforcement: o.Result}
	if o.Out == nil {
		d.Stage = StageGateway
		return
	}
	n, sw, cur := s.n, &s.workers[w], o.Out
	srv, ok := (*n.servers.Load())[cur.Header.Dst]
	if !ok {
		d.Stage = StageNoRoute
		return
	}
	// RFC 7126 filtering on the public path.
	if !srv.Internal && ipv4.BorderFilter(cur) == ipv4.BorderDrop {
		d.Stage = StageBorder
		return
	}
	d.Delivered = true
	sw.charge += n.Model.WireRTT
	// The views validate the segment the peek accepted in full, checksum
	// included, before the payload is trusted; one that fails serves
	// nothing. The request is parsed in place into the worker's, and
	// zeroed once the handler has answered; it and the datagram alias
	// cur.Payload, which nothing writes once emitted (see ipv4.Packet).
	switch f.Proto {
	case ipv4.ProtoTCP:
		if seg, err := transport.ViewTCP(cur.Payload); err == nil {
			if len(seg.Payload) > 0 && sw.req.Parse(seg.Payload) == nil {
				if srv.Handler != nil {
					d.Response = srv.Handler(&sw.req)
				}
				sw.charge += n.Model.ServerProcessing
				sw.req = httpsim.Request{}
			}
			// SYN/FIN/RST carry no request: delivered, nothing served.
			if seg.Flags&(transport.FlagFIN|transport.FlagRST) != 0 && f.V4 {
				n.forgetResp(f.Tuple)
			}
		}
	case ipv4.ProtoUDP:
		if dg, err := transport.ViewUDP(cur.Payload); err == nil {
			sw.charge += n.Model.ServerProcessing
			if srv.UDPHandler != nil {
				d.Datagram = srv.UDPHandler(dg.Payload)
			}
		}
	}
	if gw := s.gws[i]; gw != nil && d.Response != nil && f.V4 &&
		!gw.ProcessResponse(n.responsePacket(&sw.resp, cur, f.Tuple, d.Response.Body)) {
		d.ResponseDropped, d.Response = true, nil
	}
}

// DeliverBatch pushes a burst of device-egress packets through the
// network in one gateway drain: the per-packet NIC, queue-hop and stage
// costs are charged for the whole burst up front (the batch crosses into
// user space once), then gateway.Drain runs each packet's whole path —
// stages, conntrack, serve, response check — on its flow's worker.
// Deliveries align with pkts; each Latency spans the whole burst window,
// matching how a batched queue reader delays individual packets until its
// drain completes.
//
// The deliveries, and the Results they point at, are written into a Batch
// the Network keeps: they are valid until the next DeliverBatch on this
// Network, which reuses that storage. A call that overlaps another uses
// storage of its own, so two calls in flight never share memory; but a
// caller that keeps deliveries past its next call, or that delivers while
// another goroutine does, uses DeliverInto with a Batch of its own.
//
// With a fault plan armed, faults apply per packet on the wire view of the
// burst before the gateway drain: drops remove packets (StageFault),
// duplicates insert extra copies, corruption/truncation damage payload
// clones, reorders swap wire neighbours, and delays stretch the burst
// window in virtual time. Deliveries still align one-to-one with pkts —
// a duplicate's extra outcome is discarded, a reordered packet reports
// its own fate wherever it landed on the wire.
func (n *Network) DeliverBatch(pkts []*ipv4.Packet) []Delivery {
	h := n.kept.Swap(nil)
	if h == nil {
		h = new(Batch)
	}
	out := n.DeliverInto(h, pkts)
	n.kept.Store(h)
	return out
}

// DeliverInto is DeliverBatch writing into h: the deliveries and the
// Results they point at are valid until the next burst written into h.
// Calls with distinct Batches may run concurrently.
func (n *Network) DeliverInto(h *Batch, pkts []*ipv4.Packet) []Delivery {
	f := n.faults.Load()
	if f == nil || len(pkts) == 0 {
		return n.deliverBatchCore(h, pkts, false)
	}
	out := make([]Delivery, len(pkts))
	// Build the wire view: what the gateway-side of the link actually
	// carries. origIdx maps each wire slot back to its input packet (-1
	// for injected duplicates).
	wire := make([]*ipv4.Packet, 0, len(pkts)+len(pkts)/8+1)
	origIdx := make([]int, 0, cap(wire))
	var delay time.Duration
	for i, pkt := range pkts {
		if f.rollDrop() {
			out[i] = Delivery{Stage: StageFault}
			continue
		}
		delay += f.rollDelay()
		cur := pkt
		if m := f.mutate(pkt); m != nil {
			cur = m
		}
		wire = append(wire, cur)
		origIdx = append(origIdx, i)
		if f.rollDup() {
			wire = append(wire, cur)
			origIdx = append(origIdx, -1)
		}
	}
	// Reorder by adjacent swap: each firing exchanges a packet with its
	// wire predecessor — enough to put a FIN ahead of its data segment or
	// a data segment ahead of its SYN, the cases teardown and establishment
	// must tolerate.
	for j := 1; j < len(wire); j++ {
		if f.rollReorder() {
			wire[j-1], wire[j] = wire[j], wire[j-1]
			origIdx[j-1], origIdx[j] = origIdx[j], origIdx[j-1]
		}
	}
	n.Clock.Advance(delay)
	res := n.deliverBatchCore(h, wire, false)
	for j, d := range res {
		if origIdx[j] >= 0 {
			out[origIdx[j]] = d
		}
	}
	return out
}

// Deliver pushes one device-egress packet through NIC → gateway → border →
// server, charging virtual time for each stage, and returns what happened.
// It is a burst of one through DeliverInto, so a packet's fate and its
// charges do not depend on which of the two the caller used; the delivery
// is the caller's to keep.
func (n *Network) Deliver(pkt *ipv4.Packet) Delivery { return n.deliverOne(pkt, RouteDirect) }

// singles are the Batches of bursts of one (deliverOne).
var singles = sync.Pool{New: func() any { return new(Batch) }}

// deliverOne is a burst of one along route, its access cost charged:
// through DeliverInto on RouteDirect, faults included, else straight to
// deliverBatchCore. Its enforcement result is copied out, so the delivery
// is the caller's and the Batch goes back.
func (n *Network) deliverOne(pkt *ipv4.Packet, route Route) Delivery {
	h := singles.Get().(*Batch)
	defer singles.Put(h)
	pkts := []*ipv4.Packet{pkt}
	var d Delivery
	if route == RouteDirect {
		d = n.DeliverInto(h, pkts)[0]
	} else {
		d = n.deliverBatchCore(h, pkts, route == RouteMobile)[0]
	}
	if d.Enforcement != nil {
		r := *d.Enforcement
		d.Enforcement = &r
	}
	return d
}

// deliverBatchCore is the fault-free pipeline, writing the burst's
// deliveries and enforcement results into h; skipGateway models paths
// (like the mobile carrier) that never touch the corporate perimeter.
//
// Virtual time does not depend on how the burst splits: the NIC, one
// queue hop per active gateway crossed and each packet's enforcer and
// sanitizer costs are charged before the fan-out, so every clock read
// inside the burst (conntrack activity, TIME_WAIT age, flow TTL) sees the
// same post-gateway instant; the workers' wire and server charges are
// summed and advanced after the join, then the return hop.
func (n *Network) deliverBatchCore(h *Batch, pkts []*ipv4.Packet, skipGateway bool) []Delivery {
	s := &h.serve
	s.dels = slices.Grow(s.dels[:0], len(pkts))[:len(pkts)]
	out := s.dels
	if len(pkts) == 0 {
		return out
	}
	start := n.Clock.Now()
	perNIC := n.Model.TapPerPacket
	if n.NIC == ModeSLIRP {
		perNIC = n.Model.SlirpPerPacket
	}
	n.Clock.Advance(perNIC * time.Duration(len(pkts)))

	s.n = n
	s.gws = slices.Grow(s.gws[:0], len(pkts))[:len(pkts)]
	h.active = h.active[:0]
	var stages time.Duration
	for i, pkt := range pkts {
		var gw *gateway.Gateway
		if !skipGateway {
			gw = n.GatewayFor(pkt.Header.Src)
		}
		s.gws[i] = gw
		if gw == nil {
			continue
		}
		if gw.HasEnforcer() {
			stages += n.Model.EnforcerPerPacket
		}
		if gw.HasSanitizer() {
			stages += n.Model.SanitizerPerPacket
		}
		if !slices.Contains(h.active, gw) {
			h.active = append(h.active, gw)
		}
	}
	hops := n.Model.NFQueueHopPerPacket * time.Duration(len(h.active))
	n.Clock.Advance(hops + stages)

	h.results = gateway.Drain(pkts, s.gws, h.results, s)

	var served time.Duration
	for w := range s.workers {
		served += s.workers[w].charge
		s.workers[w].charge = 0
	}
	n.Clock.Advance(served)
	// The responses traverse each involved gateway's queue on the way back
	// in — one reinjection hop per gateway touched by the burst.
	n.Clock.Advance(hops)
	total := n.Clock.Now() - start
	for i := range out {
		out[i].Latency = total
	}
	return out
}

// maxRespTracked bounds the response-sequence table, matching the
// conntrack's open-table bound: maxRespTracked/respShards per shard. A
// connection's entry leaves with its FIN/RST (serve.Continue), or from a
// full shard once idle past respIdle: each newcomer to a full shard looks
// at the next respEvictSample cells of the shard's eviction hand, so an
// idle entry anywhere is reclaimed within ⌈cells/respEvictSample⌉
// newcomers. A full shard with no idle entry keeps every connection it
// records and leaves the newcomer unrecorded, its responses all starting
// at its ISN: evicting a live entry would let a connection flood restart a
// live connection's sequence, and the gateway's continuity check would
// drop that connection's next response.
const (
	maxRespTracked  = 65536
	respShardBits   = 6
	respShards      = 1 << respShardBits
	respEvictSample = 32
)

// respShardOf picks a tuple's shard from the top bits of its hash.
func respShardOf(h uint64) int { return int(h >> (64 - respShardBits)) }

// respIdle is a server's keep-alive timeout in virtual time. Without it a
// shard full of connections that lost their FIN would stay full after the
// gateway's idle sweep let them go, and every newcomer go unrecorded.
const respIdle = 75 * time.Second

// responsePacket renders the server→device segment carrying a response
// body into scratch, reusing its payload buffer, and advances the
// connection's server-side sequence position. A connection's first
// response starts at an ISN derived from its tuple, stable across the run
// so retransmissions of the first response carry the same number. The
// gateway only inspects the segment, so it lives no longer than the check.
func (n *Network) responsePacket(scratch, fwd *ipv4.Packet, t transport.Tuple, body []byte) *ipv4.Packet {
	now := uint32(n.Clock.Now() / time.Second)
	h := t.Hash()
	s := &n.respSeq[respShardOf(h)]
	s.mu.Lock()
	e := s.next.Get(h, t)
	if e == nil {
		if s.next.Len() >= maxRespTracked/respShards &&
			s.next.Evict(respEvictSample, func(e *respEntry) bool { return now-e.last > uint32(respIdle/time.Second) }) {
			n.respReclaimed.Add(1)
		}
		if s.next.Len() < maxRespTracked/respShards {
			e, _ = s.next.Put(h, t)
			e.seq = uint32(h)
		}
	}
	seq := uint32(h)
	if e != nil {
		seq = e.seq
		e.seq += uint32(len(body))
		e.last = now
	} else {
		n.respUntracked.Add(1)
	}
	s.mu.Unlock()

	seg := transport.TCPSegment{
		SrcPort: t.DstPort,
		DstPort: t.SrcPort,
		Seq:     seq,
		Flags:   transport.FlagPSH | transport.FlagACK,
		Payload: body,
	}
	scratch.Header = ipv4.Header{
		TTL:      64,
		Protocol: ipv4.ProtoTCP,
		Src:      fwd.Header.Dst,
		Dst:      fwd.Header.Src,
	}
	scratch.Payload = seg.AppendTo(scratch.Payload[:0])
	return scratch
}

// forgetResp drops a closing connection's server-side sequence position.
func (n *Network) forgetResp(t transport.Tuple) {
	h := t.Hash()
	s := &n.respSeq[respShardOf(h)]
	s.mu.Lock()
	s.next.Delete(h, t)
	s.mu.Unlock()
}

// Conntrack and NewConntrack serve benchmark/trace.go's stand-alone
// conntrack probe alone, and go with it (ROADMAP item 1(e)).
type Conntrack = gateway.Conntrack

// NewConntrack is gateway.NewConntrack on a Network's clock.
func NewConntrack(c *Clock) *Conntrack { return gateway.NewConntrack(c) }
