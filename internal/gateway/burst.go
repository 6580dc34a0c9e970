package gateway

import (
	"slices"
	"sync"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/transport"
)

// minWorkerBurst is the fewest packets worth a worker of their own: a
// goroutine spawn and the wait for it cost about what delivering this many
// packets on the calling goroutine does.
const minWorkerBurst = 64

// burst is the working memory of one Drain or ProcessBatch, pooled: each
// packet's outcome, the sanitizer's egress copies, and the flow-affine
// split of the burst over workers with each worker's scratch. It is
// cleared before it goes back, so nothing outlives the burst that put it
// there; ProcessBatch, whose caller keeps the egress copies, hands their
// slabs over first. The enforcement results are not the burst's: they
// live in the caller's slab, or for ProcessBatch in one of its own.
type burst struct {
	pkts []*ipv4.Packet
	// gws is each packet's owning gateway; nil passes the packet through
	// unenforced and untracked.
	gws      []*Gateway
	outcomes []BatchOutcome
	// next continues each packet past the gateway; nil for ProcessBatch,
	// which stops after the connection event.
	next Continuation
	// results is the enforcement-result slab, one slot per packet an
	// enforcing gateway owns; split sizes it and carves it into one
	// disjoint share per worker.
	results []enforcer.Result
	workers []burstWorker
	wg      sync.WaitGroup

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
	// results is the worker's share of the burst's result slab, sized by
	// split for the enforced packets it owns; each enforcer batch appends
	// into its free tail.
	results  []enforcer.Result
	enforced int
}

var burstPool = sync.Pool{New: func() any { return new(burst) }}

// getBurst takes a burst from the pool for pkts, owned by gws.
func getBurst(pkts []*ipv4.Packet, gws []*Gateway) *burst {
	b := burstPool.Get().(*burst)
	b.pkts, b.gws, b.outcomes = pkts, gws, slices.Grow(b.outcomes[:0], len(pkts))[:len(pkts)]
	return b
}

// release clears the burst's references and returns it to the pool.
func (b *burst) release() {
	clear(b.outcomes)
	clear(b.egress)
	clear(b.opts)
	for w := range b.workers {
		bw := &b.workers[w]
		bw.results, bw.egress, bw.opts = nil, nil, nil
	}
	b.pkts, b.gws, b.next, b.results = nil, nil, nil, nil
	burstPool.Put(b)
}

// split partitions the burst over at most width(b.gws) workers by each
// packet's endpoint-pair hash (transport.Tuple.PairHash), so every packet
// of a flow — all of one device's traffic to one server — lands on one
// worker, in burst order, the way NFQUEUE --queue-balance hashes flows to
// readers. Workers get minWorkerBurst packets each on average: a burst
// shorter than twice that is one part, which run executes inline on the
// caller. It then sizes the egress-copy slabs for the packets that
// sanitizing gateways own, and the result slab for those that enforcing
// gateways own, and gives each worker its share of each.
func (b *burst) split() {
	workers := max(1, min(width(b.gws), len(b.pkts)/minWorkerBurst))
	if cap(b.workers) < workers {
		b.workers = append(b.workers[:cap(b.workers)], make([]burstWorker, workers-cap(b.workers))...)
	}
	b.workers = b.workers[:workers]
	for w := range b.workers {
		bw := &b.workers[w]
		bw.idx, bw.copies, bw.optN, bw.enforced = bw.idx[:0], 0, 0, 0
	}
	copies, opts, enforced := 0, 0, 0
	for i, p := range b.pkts {
		w := 0
		if workers > 1 {
			// Every connection between one device and one server shares a
			// worker; at 2, 4 or 8 workers, the pair hash's top bits are
			// also its flows' shard group in the flow table.
			t, _ := transport.TupleOf(&p.Header, 0, 0)
			w = int((t.PairHash() >> 32) * uint64(workers) >> 32)
		}
		bw := &b.workers[w]
		bw.idx = append(bw.idx, i)
		gw := b.gws[i]
		if gw == nil {
			continue
		}
		if gw.enforcer != nil {
			bw.enforced++
			enforced++
		}
		if gw.sanitizer != nil {
			bw.copies++
			bw.optN += len(p.Header.Options)
			copies++
			opts += len(p.Header.Options)
		}
	}
	b.egress = slices.Grow(b.egress[:0], copies)[:copies]
	b.opts = slices.Grow(b.opts[:0], opts)[:opts]
	b.results = slices.Grow(b.results[:0], enforced)[:enforced]
	copies, opts, enforced = 0, 0, 0
	for w := range b.workers {
		bw := &b.workers[w]
		bw.egress = b.egress[copies : copies : copies+bw.copies]
		bw.opts = b.opts[opts : opts : opts+bw.optN]
		bw.results = b.results[enforced : enforced : enforced+bw.enforced]
		copies += bw.copies
		opts += bw.optN
		enforced += bw.enforced
	}
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
// owning gateway (enforcer, sanitizer), then per packet in burst order
// its connection event and the continuation. A flow's FIN is therefore
// observed after its data segments were answered. Each accepted packet's
// transport header is peeked once, here, for both.
//
// A FIN/RST the conntrack reports tears the flow's cached verdict down
// through the enforcer, keyed on the original (still-tagged) packet, as
// the cache is. Dropped packets never reach the conntrack, so a denied
// flow's cached drop verdict deliberately survives its FIN: repeat
// offenders stay cheap to block.
func (b *burst) work(w int) {
	bw := &b.workers[w]
	b.runStages(bw)
	for _, i := range bw.idx {
		o, gw := b.outcomes[i], b.gws[i]
		var f Flow
		if o.Out != nil {
			f = peekFlow(b.pkts[i])
			if gw != nil && gw.ct.observe(f) && gw.enforcer != nil {
				gw.enforcer.EndFlow(b.pkts[i])
			}
		}
		if b.next != nil {
			b.next.Continue(w, i, o, f)
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
			// The results land in the free tail of the worker's share, which
			// split sized for every enforced packet the worker owns, so
			// nothing is allocated and no earlier group's results move.
			results = gw.enforcer.ProcessBatch(sub, bw.results[len(bw.results):])
			bw.results = bw.results[:len(bw.results)+len(results)]
		}
		var stripped uint64
		for k, i := range group {
			o := BatchOutcome{Out: b.pkts[i]}
			if results != nil {
				o.Result = &results[k]
				if results[k].Verdict == policy.VerdictDrop {
					o.Out = nil
				}
			}
			if o.Out != nil && gw != nil && gw.sanitizer != nil {
				o.Out = bw.egressCopy(o.Out)
				if gw.sanitizer.Strip(o.Out) {
					stripped++
				}
			}
			b.outcomes[i] = o
		}
		// The group's strips are counted once, as the enforcer counts its
		// batch: no shared counter line is written per packet.
		if stripped > 0 {
			gw.sanitizer.Count(stripped)
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
// one Drain, or for as long as ProcessBatch's caller keeps it.
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
