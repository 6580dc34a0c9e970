package netsim

import (
	"encoding/binary"
	"runtime"
	"sync"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

// minWorkerBurst is the fewest packets worth a worker of their own: a
// goroutine spawn and the wait for it cost about what delivering this many
// packets on the calling goroutine does.
const minWorkerBurst = 64

// burst is the working memory of one DeliverBatch or Gateway.ProcessBatch,
// pooled: each packet's owning gateway and outcome, the sanitizer's egress
// copies, and the flow-affine split of the burst over workers with each
// worker's scratch. It is cleared before it goes back, so nothing outlives
// the burst that put it there; ProcessBatch, whose caller keeps the egress
// copies, detaches them first.
type burst struct {
	// n serves the survivors; nil for Gateway.ProcessBatch, which stops
	// before serving.
	n    *Network
	pkts []*ipv4.Packet
	// gws is each packet's owning gateway; nil passes the packet through
	// unenforced and untracked.
	gws      []*Gateway
	outcomes []BatchOutcome
	out      []Delivery // DeliverBatch's deliveries, aligned with pkts
	workers  []burstWorker
	wg       sync.WaitGroup

	// own backs outcomes for DeliverBatch (ProcessBatch returns its own);
	// active lists the distinct active gateways DeliverBatch's burst
	// crosses.
	own    []BatchOutcome
	active []*Gateway

	// egress and opts back the sanitizer's egress copies: a packet and its
	// options for each packet a sanitizing gateway owns. split carves them
	// into one disjoint share per worker.
	egress []ipv4.Packet
	opts   []ipv4.Option
}

// burstWorker is one worker's share of a burst.
type burstWorker struct {
	// idx holds the burst indices of the packets this worker owns, in
	// burst order.
	idx []int
	// charge sums the virtual time this worker's serves cost.
	charge time.Duration
	// Stage scratch: indices not yet run, one gateway's group and its
	// packets.
	todo, group []int
	sub         []*ipv4.Packet
	// egress and opts are the worker's share of the burst's egress-copy
	// slabs, sized by split before the stages run — copies packets with
	// optN options between them — so that no append moves a packet a
	// BatchOutcome already points at.
	egress       []ipv4.Packet
	opts         []ipv4.Option
	copies, optN int
	// req is the request serveOne parses each HTTP payload into; it is
	// zeroed once the handler returns. resp is the packet checkResponse
	// renders each response segment into, its payload buffer reused.
	req  httpsim.Request
	resp ipv4.Packet
}

var burstPool = sync.Pool{New: func() any { return new(burst) }}

// getBurst takes a burst from the pool, sized for pkts.
func getBurst(pkts []*ipv4.Packet) *burst {
	b := burstPool.Get().(*burst)
	b.pkts = pkts
	b.gws = resize(b.gws, len(pkts))
	return b
}

// resize returns s with length n, reallocated only when too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release clears the burst's references and returns it to the pool.
func (b *burst) release() {
	clear(b.gws)
	clear(b.own)
	clear(b.active)
	clear(b.egress)
	clear(b.opts)
	b.n, b.pkts, b.outcomes, b.out, b.active = nil, nil, nil, nil, b.active[:0]
	burstPool.Put(b)
}

// detach hands the egress-copy slabs to the caller, who keeps the
// outcomes pointing into them, so that release cannot clear them and the
// next burst cannot reuse them.
func (b *burst) detach() {
	b.egress, b.opts = nil, nil
	for w := range b.workers {
		b.workers[w].egress, b.workers[w].opts = nil, nil
	}
}

// split partitions the burst over at most workers workers (≤ 0 =
// GOMAXPROCS) by a hash of each packet's IPv4 source and destination, so
// every packet of a flow — all of one device's traffic to one server —
// lands on one worker, in burst order, the way NFQUEUE --queue-balance
// hashes flows to readers. Workers get minWorkerBurst packets each on
// average: a burst shorter than twice that is one part, which run executes
// inline on the caller. It then sizes the egress-copy slabs for the
// packets that sanitizing gateways own and gives each worker its share.
func (b *burst) split(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(b.pkts)/minWorkerBurst))
	if cap(b.workers) < workers {
		b.workers = append(b.workers[:cap(b.workers)], make([]burstWorker, workers-cap(b.workers))...)
	}
	b.workers = b.workers[:workers]
	for w := range b.workers {
		bw := &b.workers[w]
		bw.idx, bw.charge, bw.copies, bw.optN = bw.idx[:0], 0, 0, 0
	}
	copies, opts := 0, 0
	for i, p := range b.pkts {
		w := 0
		if workers > 1 {
			w = int(affinity(&p.Header) * uint64(workers) >> 32)
		}
		bw := &b.workers[w]
		bw.idx = append(bw.idx, i)
		if gw := b.gws[i]; gw != nil && gw.sanitizer != nil {
			bw.copies++
			bw.optN += len(p.Header.Options)
			copies++
			opts += len(p.Header.Options)
		}
	}
	b.egress = resize(b.egress, copies)
	b.opts = resize(b.opts, opts)
	copies, opts = 0, 0
	for w := range b.workers {
		bw := &b.workers[w]
		bw.egress = b.egress[copies : copies : copies+bw.copies]
		bw.opts = b.opts[opts : opts : opts+bw.optN]
		copies += bw.copies
		opts += bw.optN
	}
}

// affinity is a 32-bit hash of a packet's IPv4 source and destination
// (zero for other address families).
func affinity(h *ipv4.Header) uint64 {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return 0
	}
	s, d := h.Src.As4(), h.Dst.As4()
	x := uint64(binary.BigEndian.Uint32(s[:]))<<32 | uint64(binary.BigEndian.Uint32(d[:]))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x >> 32
}

// run executes every worker's share and returns when all are done: worker
// 0 on the calling goroutine, the others on goroutines of their own.
func (b *burst) run() {
	b.wg.Add(len(b.workers) - 1)
	for w := 1; w < len(b.workers); w++ {
		go b.spawned(w)
	}
	b.work(0)
	b.wg.Wait()
}

func (b *burst) spawned(w int) {
	defer b.wg.Done()
	b.work(w)
}

// work is one worker's whole path over its packets: the stages of each
// owning gateway (enforcer, sanitizer), then per accepted packet in burst
// order its connection event and — on DeliverBatch — its serve and
// response check. A flow's FIN is therefore observed after its data
// segments were answered.
func (b *burst) work(w int) {
	bw := &b.workers[w]
	b.runStages(bw)
	for _, i := range bw.idx {
		o, gw := b.outcomes[i], b.gws[i]
		if o.Out != nil && gw != nil {
			gw.observeConn(b.pkts[i])
		}
		if b.n == nil {
			continue
		}
		d := &b.out[i]
		d.Enforcement = o.Result
		if o.Out == nil {
			d.Stage = StageGateway
			continue
		}
		charge, sp, dp := b.n.serveOne(o.Out, d, &bw.req)
		bw.charge += charge
		// The response half of the connection's verdict state is enforced
		// at the owning gateway, keyed off the still-tagged device-egress
		// packet.
		if gw != nil && d.Response != nil {
			b.n.checkResponse(gw, b.pkts[i], sp, dp, d, &bw.resp)
		}
	}
}

// runStages runs the worker's packets through their gateways' stages,
// one enforcer batch per gateway, and records each packet's outcome: a
// denied packet is dropped before the sanitizer, an accepted one leaves as
// the sanitizer's egress copy, and a packet with no gateway — or a
// gateway with neither stage — passes as it came.
func (b *burst) runStages(bw *burstWorker) {
	todo := append(bw.todo[:0], bw.idx...)
	for len(todo) > 0 {
		gw := b.gws[todo[0]]
		group, sub, rest := bw.group[:0], bw.sub[:0], todo[:0]
		for _, i := range todo {
			if b.gws[i] != gw {
				rest = append(rest, i)
				continue
			}
			group = append(group, i)
			sub = append(sub, b.pkts[i])
		}
		todo = rest
		var results []enforcer.Result
		if gw != nil && gw.enforcer != nil {
			// The results are the burst's own allocation, not scratch:
			// Delivery.Enforcement points into them.
			results = gw.enforcer.ProcessBatch(sub, nil)
		}
		for k, i := range group {
			o := BatchOutcome{Out: b.pkts[i]}
			if results != nil {
				o.Result = &results[k]
				if results[k].Verdict == policy.VerdictDrop {
					o.Out = nil
				}
			}
			if o.Out != nil && gw != nil && gw.sanitizer != nil {
				o.Out = gw.sanitizer.Process(bw.egressCopy(o.Out))
			}
			b.outcomes[i] = o
		}
		clear(sub)
		bw.group, bw.sub = group[:0], sub[:0]
	}
	bw.todo = todo
}

// egressCopy is the packet handed to the sanitizer, written into the
// worker's slabs: a copy of the header with its own options, so stripping
// the tag leaves the original (which conntrack teardown and EndFlow still
// key on) intact, sharing the option data and the payload under
// ipv4.Packet's immutability invariant (the only writer, the fault
// injector, clones first). The copy lives as long as the burst's slabs:
// one DeliverBatch, or for as long as ProcessBatch's caller keeps it.
func (bw *burstWorker) egressCopy(pkt *ipv4.Packet) *ipv4.Packet {
	bw.egress = append(bw.egress, ipv4.Packet{Header: pkt.Header, Payload: pkt.Payload})
	c := &bw.egress[len(bw.egress)-1]
	if n := len(pkt.Header.Options); n > 0 {
		k := len(bw.opts)
		bw.opts = append(bw.opts, pkt.Header.Options...)
		c.Header.Options = bw.opts[k : k+n : k+n]
	}
	return c
}
