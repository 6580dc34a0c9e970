// Package netsim simulates the enterprise network testbed of the paper's
// evaluation (§VI-A, §VI-D): the emulator's NIC modes (QEMU SLIRP vs TAP),
// the gateway host whose iptables rules divert BYOD traffic into the
// user-space Policy Enforcer and Packet Sanitizer, local and external HTTP
// servers, RFC 7126 border filtering, packet capture for the analysis
// pipeline, and a virtual clock with a calibrated latency model.
package netsim

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
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

	requests atomic.Uint64
	rxBytes  atomic.Uint64
}

// Requests returns the number of requests the server handled.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// RxBytes returns the total request-body bytes received.
func (s *Server) RxBytes() uint64 { return s.rxBytes.Load() }

// CapturePoint identifies where a capture was taken.
type CapturePoint int

// Capture points, mirroring where the paper inspects traffic.
const (
	// CaptureDeviceEgress sees packets as they leave the device (tagged).
	CaptureDeviceEgress CapturePoint = iota + 1
	// CapturePostGateway sees packets after enforcement + sanitizing.
	CapturePostGateway
)

// Capture is an append-only packet log (pcap stand-in).
type Capture struct {
	mu   sync.Mutex
	pkts []*ipv4.Packet
}

// Append clones and stores a packet.
func (c *Capture) Append(pkt *ipv4.Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pkts = append(c.pkts, pkt.Clone())
}

// Packets returns the captured packets (shared slice of clones; callers
// must not mutate).
func (c *Capture) Packets() []*ipv4.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ipv4.Packet(nil), c.pkts...)
}

// Len returns the number of captured packets.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

// Reset clears the capture.
func (c *Capture) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pkts = nil
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
	Gateway *Gateway
	// BorderFilterEnabled applies RFC 7126 at the upstream router for
	// non-internal destinations.
	BorderFilterEnabled bool

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
	// captureOff disables the packet-capture logs: soak runs push millions
	// of packets and must stay memory-bounded, which an append-only pcap
	// defeats.
	captureOff atomic.Bool

	// mu serializes AddServer and AddGatewayRoute.
	mu sync.Mutex
	// egress and postGateway are the capture logs (CaptureAt).
	egress, postGateway Capture
	// servers is copy-on-write: AddServer is rare, and every delivery
	// worker reads the table with one atomic load.
	servers atomic.Pointer[map[netip.Addr]*Server]

	// respSeq is the server-side TCP sequence position per connection:
	// what the next synthesized response segment starts at. Keyed on the
	// forward 5-tuple and sharded like the conntrack, each shard bounded at
	// maxRespTracked/ctShards open connections.
	respSeq [ctShards]respShard
	// respUntracked counts responses rendered for a connection its full
	// respSeq shard could not record (see maxRespTracked).
	respUntracked atomic.Uint64
}

// respShard is one lock domain of Network.respSeq.
type respShard struct {
	mu   sync.Mutex
	next map[connKey]uint32
}

// NewNetwork builds a testbed with the given NIC mode and latency model.
func NewNetwork(nic NICMode, model LatencyModel) *Network {
	n := &Network{
		Clock:               NewClock(),
		Model:               model,
		NIC:                 nic,
		BorderFilterEnabled: true,
	}
	n.servers.Store(&map[netip.Addr]*Server{})
	for i := range n.respSeq {
		n.respSeq[i].next = make(map[connKey]uint32)
	}
	return n
}

// gatewayRoute binds a device source subnet to its enforcement point.
type gatewayRoute struct {
	prefix netip.Prefix
	gw     *Gateway
}

// AddGatewayRoute routes traffic whose source lies in prefix through gw —
// the fleet's subnet topology. Routes are longest-prefix matched; sources
// outside every route fall back to the legacy Gateway field. Installing a
// route is copy-on-write, safe against concurrent deliveries.
func (n *Network) AddGatewayRoute(prefix netip.Prefix, gw *Gateway) {
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
func (n *Network) GatewayFor(src netip.Addr) *Gateway {
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

// CaptureAt returns the capture log for a point (nil for an unknown one).
func (n *Network) CaptureAt(p CapturePoint) *Capture {
	switch p {
	case CaptureDeviceEgress:
		return &n.egress
	case CapturePostGateway:
		return &n.postGateway
	}
	return nil
}

// SetCapture enables or disables the packet-capture logs. Long-running
// soak harnesses disable them: each capture clones every packet, which is
// unbounded memory over millions of deliveries.
func (n *Network) SetCapture(enabled bool) {
	n.captureOff.Store(!enabled)
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

// ErrNoRoute reports delivery to an unregistered address.
var ErrNoRoute = errors.New("netsim: no route to host")

// Delivery is the fate of one packet pushed through the network.
type Delivery struct {
	// Delivered reports whether the packet reached its server.
	Delivered bool
	// Stage is where the packet died when not delivered.
	Stage DropStage
	// Enforcement is the Policy Enforcer's result when that stage ran.
	Enforcement *enforcer.Result
	// Response is the server's reply (nil when dropped or non-HTTP).
	Response *httpsim.Response
	// Datagram is the server's UDP reply (a DNS answer, typically); nil
	// when the packet carried no datagram or the server has no UDPHandler.
	Datagram []byte
	// ResponseDropped reports that the server produced a response but the
	// gateway's response-direction verdict state dropped it on the way
	// back in (sequence-continuity violation); Response is nil then.
	ResponseDropped bool
	// Latency is the virtual one-way + response time charged.
	Latency time.Duration
}

// serveOne is the post-gateway delivery tail of one packet: route
// lookup, RFC 7126 border filtering, and the application response — HTTP
// requests out of TCP data segments (control segments deliver with no
// response), UDP datagrams through the server's UDPHandler. Flow
// lifecycle is the gateway conntrack's job, not the server's. A payload
// that is not a valid TCP segment or UDP datagram still reaches the
// server's address and is delivered, but serves nothing. It returns the
// virtual time the wire and the server cost, for the caller to charge, and
// the transport ports it parsed, for the response check.
func (n *Network) serveOne(cur *ipv4.Packet, d *Delivery, req *httpsim.Request) (charge time.Duration, sp, dp uint16) {
	srv, ok := (*n.servers.Load())[cur.Header.Dst]
	if !ok {
		d.Stage = StageNoRoute
		return 0, 0, 0
	}

	// RFC 7126 filtering on the public path.
	if n.BorderFilterEnabled && !srv.Internal {
		if ipv4.BorderFilter(cur) == ipv4.BorderDrop {
			d.Stage = StageBorder
			return 0, 0, 0
		}
	}

	charge = n.Model.WireRTT
	// PeekPorts is the structural test (first fragment; ports and flags
	// this model emits) that decides whether the payload is read as a
	// transport segment at all; the views then validate it in full,
	// checksum included, before the payload is trusted. A segment that
	// fails either serves nothing. The request is parsed in place into
	// req, the worker's, and zeroed once the handler has answered; it and
	// the datagram alias cur.Payload, which nothing writes once emitted
	// (see ipv4.Packet).
	h := &cur.Header
	sp, dp, ok = transport.PeekPorts(h.Protocol, h.FragOff, cur.Payload)
	if ok {
		switch h.Protocol {
		case ipv4.ProtoTCP:
			if seg, err := transport.ViewTCP(cur.Payload); err == nil {
				if len(seg.Payload) > 0 && req.Parse(seg.Payload) == nil {
					charge += n.serveRequest(srv, req, d)
					*req = httpsim.Request{}
				}
				// SYN/FIN/RST carry no request: delivered, nothing served.
				if seg.Flags&(transport.FlagFIN|transport.FlagRST) != 0 {
					n.forgetResp(h, sp, dp)
				}
			}
		case ipv4.ProtoUDP:
			if dg, err := transport.ViewUDP(cur.Payload); err == nil {
				charge += n.chargeServer(srv, len(dg.Payload))
				if srv.UDPHandler != nil {
					d.Datagram = srv.UDPHandler(dg.Payload)
				}
			}
		}
	}
	d.Delivered = true
	return charge, sp, dp
}

// chargeServer counts one request of rxBytes received body bytes and
// returns the server time it costs — shared by the HTTP and UDP serve
// paths.
func (n *Network) chargeServer(srv *Server, rxBytes int) time.Duration {
	srv.requests.Add(1)
	srv.rxBytes.Add(uint64(rxBytes))
	return n.Model.ServerProcessing
}

// serveRequest counts the request, produces the HTTP response, and returns
// the server time it costs.
func (n *Network) serveRequest(srv *Server, req *httpsim.Request, d *Delivery) time.Duration {
	if srv.Handler != nil {
		d.Response = srv.Handler(req)
	}
	return n.chargeServer(srv, len(req.Body))
}

// DeliverBatch pushes a burst of device-egress packets through the
// network in one gateway drain: the per-packet NIC, queue-hop and stage
// costs are charged for the whole burst up front (the batch crosses into
// user space once), then the burst is split by flow over the gateway's
// workers (GatewayConfig.Workers), each of which runs its packets' whole
// path — enforcer, sanitizer, conntrack, serve, response check — in burst
// order. Deliveries align with pkts; each Latency spans the whole burst
// window, matching how a batched queue reader delays individual packets
// until its drain completes.
//
// With a fault plan armed, faults apply per packet on the wire view of the
// burst before the gateway drain: drops remove packets (StageFault),
// duplicates insert extra copies, corruption/truncation damage payload
// clones, reorders swap wire neighbours, and delays stretch the burst
// window in virtual time. Deliveries still align one-to-one with pkts —
// a duplicate's extra outcome is discarded, a reordered packet reports
// its own fate wherever it landed on the wire.
func (n *Network) DeliverBatch(pkts []*ipv4.Packet) []Delivery {
	f := n.faults.Load()
	if f == nil || len(pkts) == 0 {
		return n.deliverBatchCore(pkts, false)
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
	res := n.deliverBatchCore(wire, false)
	for j, d := range res {
		if origIdx[j] >= 0 {
			out[origIdx[j]] = d
		}
	}
	return out
}

// Deliver pushes one device-egress packet through NIC → gateway → border →
// server, charging virtual time for each stage, and returns what happened.
// It is a burst of one through DeliverBatch, so a packet's fate and its
// charges do not depend on which of the two the caller used.
func (n *Network) Deliver(pkt *ipv4.Packet) Delivery {
	return n.DeliverBatch([]*ipv4.Packet{pkt})[0]
}

// deliverBatchCore is the fault-free pipeline; skipGateway models paths
// (like the mobile carrier) that never touch the corporate perimeter.
//
// Virtual time does not depend on how the burst splits: the NIC, one
// queue hop per active gateway crossed and each packet's enforcer and
// sanitizer costs are charged before the fan-out, so every clock read
// inside the burst (conntrack activity, TIME_WAIT age, flow TTL) sees the
// same post-gateway instant; the workers' wire and server charges are
// summed and advanced after the join, then the return hop.
func (n *Network) deliverBatchCore(pkts []*ipv4.Packet, skipGateway bool) []Delivery {
	out := make([]Delivery, len(pkts))
	if len(pkts) == 0 {
		return out
	}
	start := n.Clock.Now()
	for _, pkt := range pkts {
		n.captureAt(CaptureDeviceEgress, pkt)
	}
	perNIC := n.Model.TapPerPacket
	if n.NIC == ModeSLIRP {
		perNIC = n.Model.SlirpPerPacket
	}
	n.Clock.Advance(perNIC * time.Duration(len(pkts)))

	b := getBurst(pkts)
	b.n, b.out = n, out
	b.own = resize(b.own, len(pkts))
	b.outcomes = b.own
	var stages time.Duration
	workers := 0
	for i, pkt := range pkts {
		var gw *Gateway
		if !skipGateway {
			gw = n.GatewayFor(pkt.Header.Src)
		}
		if gw != nil && !gw.Active() {
			gw = nil
		}
		b.gws[i] = gw
		if gw == nil {
			continue
		}
		if gw.HasEnforcer() {
			stages += n.Model.EnforcerPerPacket
		}
		if gw.HasSanitizer() {
			stages += n.Model.SanitizerPerPacket
		}
		if !slices.Contains(b.active, gw) {
			b.active = append(b.active, gw)
			workers = max(workers, gw.width())
		}
	}
	hops := n.Model.NFQueueHopPerPacket * time.Duration(len(b.active))
	n.Clock.Advance(hops + stages)

	b.split(workers)
	b.run()

	var served time.Duration
	for w := range b.workers {
		served += b.workers[w].charge
	}
	n.Clock.Advance(served)
	if !n.captureOff.Load() {
		for i := range pkts {
			if o := b.outcomes[i].Out; o != nil {
				n.captureAt(CapturePostGateway, o)
			}
		}
	}
	b.release()
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
// conntrack's open-table bound: maxRespTracked/ctShards per shard. A
// connection's entry leaves with its FIN/RST (serveOne), so only open
// connections count against the bound. Overflow follows the conntrack's
// policy: a full shard keeps every recorded connection and does not record
// the newcomer, whose responses then all start at its ISN (counted in
// bp_netsim_response_seq_untracked_total). Evicting instead would let a
// connection flood restart a live connection's sequence, and the gateway's
// continuity check would drop that connection's next response.
const maxRespTracked = 65536

// respISN derives a deterministic initial sequence number for a
// connection from its forward key — stable across the simulation run so
// retransmissions of the first response carry the same number.
func respISN(k connKey) uint32 {
	h := uint64(0x243f6a8885a308d3)
	for _, b := range k.src {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	for _, b := range k.dst {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h = (h ^ uint64(k.srcPort)<<16 ^ uint64(k.dstPort)) * 0x100000001b3
	return uint32(h>>32) ^ uint32(h)
}

// checkResponse synthesizes the server's reply as a wire segment on the
// return path and runs it through the owning gateway's response-direction
// verdict state. sp and dp are the forward segment's ports, as serveOne
// parsed them. Only TCP requests have a modelled return path (only they
// produce a Response); UDP replies pass unchecked, and so does a
// connection whose endpoints are not IPv4. A response the gateway refuses
// (sequence-continuity violation — in practice only when an injection is
// simulated) is removed from the delivery. The segment is rendered into
// scratch, the worker's.
func (n *Network) checkResponse(gw *Gateway, fwd *ipv4.Packet, sp, dp uint16, d *Delivery, scratch *ipv4.Packet) {
	if d.Response == nil {
		return
	}
	k, ok := makeConnKey(fwd.Header.Src, fwd.Header.Dst, sp, dp)
	if !ok {
		return
	}
	if !gw.ProcessResponse(n.responsePacket(scratch, fwd, k, d.Response.Body)) {
		d.ResponseDropped = true
		d.Response = nil
	}
}

// responsePacket renders the server→device segment carrying a response
// body into scratch, reusing its payload buffer, and advances the
// connection's server-side sequence position. The gateway only inspects
// the segment, so it lives no longer than the check.
func (n *Network) responsePacket(scratch, fwd *ipv4.Packet, k connKey, body []byte) *ipv4.Packet {
	s := &n.respSeq[k.shard()]
	s.mu.Lock()
	seq, tracked := s.next[k]
	if !tracked {
		seq = respISN(k)
	}
	if tracked || len(s.next) < maxRespTracked/ctShards {
		s.next[k] = seq + uint32(len(body))
	} else {
		n.respUntracked.Add(1)
	}
	s.mu.Unlock()

	seg := transport.TCPSegment{
		SrcPort: k.dstPort,
		DstPort: k.srcPort,
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
func (n *Network) forgetResp(h *ipv4.Header, sp, dp uint16) {
	k, ok := makeConnKey(h.Src, h.Dst, sp, dp)
	if !ok {
		return
	}
	s := &n.respSeq[k.shard()]
	s.mu.Lock()
	delete(s.next, k)
	s.mu.Unlock()
}

func (n *Network) captureAt(p CapturePoint, pkt *ipv4.Packet) {
	if n.captureOff.Load() {
		return
	}
	if c := n.CaptureAt(p); c != nil {
		c.Append(pkt)
	}
}
