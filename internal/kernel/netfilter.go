package kernel

import (
	"errors"
	"fmt"
	"sync"

	"borderpatrol/internal/ipv4"
)

// Verdict is an NFQUEUE verdict for a packet.
type Verdict int

// Verdicts.
const (
	// VerdictAccept lets the packet continue chain traversal.
	VerdictAccept Verdict = iota + 1
	// VerdictDrop discards the packet.
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "NF_ACCEPT"
	case VerdictDrop:
		return "NF_DROP"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Chain identifies a netfilter chain the simulator models.
type Chain int

// Chains traversed by locally-generated traffic.
const (
	// ChainOutput sees every locally generated packet first.
	ChainOutput Chain = iota + 1
	// ChainPostrouting sees packets just before they hit the wire.
	ChainPostrouting
)

// String names the chain in iptables convention.
func (c Chain) String() string {
	switch c {
	case ChainOutput:
		return "OUTPUT"
	case ChainPostrouting:
		return "POSTROUTING"
	default:
		return fmt.Sprintf("chain(%d)", int(c))
	}
}

// BatchVerdict is one packet's outcome from a QueueBatchHandler.
type BatchVerdict struct {
	// Verdict accepts or drops the packet; only VerdictAccept accepts.
	Verdict Verdict
	// Rewritten replaces the packet for the rest of the traversal when
	// non-nil.
	Rewritten *ipv4.Packet
	// Aux carries handler-specific per-packet data back to the driver
	// (the gateway attaches the enforcement result here). The last
	// non-nil Aux a packet picks up across queues wins.
	Aux any
}

// QueueBatchHandler is a user-space NFQUEUE consumer (the Policy Enforcer
// accepts/drops; the Packet Sanitizer mangles). It consumes a whole batch of
// packets diverted to one NFQUEUE in a single user-space transition and writes one BatchVerdict
// per packet into out (out[i] answers pkts[i]; out arrives zeroed). Batch
// handlers let the consumer amortize per-flow work — resolve, decode,
// policy — across the packets of a burst, which is where the real
// netfilter_queue's per-packet recv/verdict round trip hurts most. Both
// slices are kernel scratch, reused after the call: a handler keeps
// neither, and what it attaches as Aux or Rewritten lives elsewhere.
type QueueBatchHandler func(pkts []*ipv4.Packet, out []BatchVerdict)

// RuleTarget is what an iptables rule does on match.
type RuleTarget int

// Rule targets.
const (
	// TargetAccept accepts immediately.
	TargetAccept RuleTarget = iota + 1
	// TargetDrop drops immediately.
	TargetDrop
	// TargetQueue diverts to an NFQUEUE by number.
	TargetQueue
)

// Rule is a simplified iptables rule: an optional match plus a target.
type Rule struct {
	// Match returns whether the rule applies; nil matches everything.
	Match func(pkt *ipv4.Packet) bool
	// Target is the action on match.
	Target RuleTarget
	// QueueNum selects the NFQUEUE for TargetQueue.
	QueueNum int
	// Comment is operator documentation, as in iptables -m comment.
	Comment string
}

// Netfilter models the kernel's packet-filter hooks. A traversal runs on
// its caller's goroutine and only reads the rule table, so concurrent
// traversals (the gateway's flow-affine workers) share one read lock.
type Netfilter struct {
	mu          sync.RWMutex
	chains      map[Chain][]Rule
	batchQueues map[int]QueueBatchHandler
}

// ErrNoQueueHandler reports a rule diverting to an unregistered queue; the
// real kernel drops packets queued to a dead NFQUEUE, and so do we.
var ErrNoQueueHandler = errors.New("kernel: NFQUEUE has no user-space handler")

// NewNetfilter builds an empty rule table (policy ACCEPT on all chains).
func NewNetfilter() *Netfilter {
	return &Netfilter{
		chains:      make(map[Chain][]Rule),
		batchQueues: make(map[int]QueueBatchHandler),
	}
}

// Append adds a rule at the end of a chain (iptables -A).
func (nf *Netfilter) Append(chain Chain, rule Rule) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.chains[chain] = append(nf.chains[chain], rule)
}

// Flush removes all rules from a chain (iptables -F).
func (nf *Netfilter) Flush(chain Chain) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	delete(nf.chains, chain)
}

// RegisterBatchQueue binds a user-space handler to an NFQUEUE number. A
// batch traversal (OutputBatch) hands it every matching packet at once; a
// single-packet traversal (Output) hands it a batch of one.
func (nf *Netfilter) RegisterBatchQueue(num int, h QueueBatchHandler) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.batchQueues[num] = h
}

// UnregisterQueue detaches a queue's handler (user-space program exited).
func (nf *Netfilter) UnregisterQueue(num int) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	delete(nf.batchQueues, num)
}

// Output runs a packet through OUTPUT then POSTROUTING, as the kernel does
// for locally generated traffic. It returns the (possibly rewritten)
// packet, or nil if any rule or queue handler dropped it.
func (nf *Netfilter) Output(pkt *ipv4.Packet) (*ipv4.Packet, error) {
	out, err := nf.traverse(ChainOutput, pkt)
	if err != nil || out == nil {
		return nil, err
	}
	return nf.traverse(ChainPostrouting, out)
}

func (nf *Netfilter) traverse(chain Chain, pkt *ipv4.Packet) (*ipv4.Packet, error) {
	nf.mu.RLock()
	rules := nf.chains[chain]
	nf.mu.RUnlock()
	cur := pkt
	for i := range rules {
		r := &rules[i]
		if r.Match != nil && !r.Match(cur) {
			continue
		}
		switch r.Target {
		case TargetAccept:
			return cur, nil
		case TargetDrop:
			return nil, nil
		case TargetQueue:
			nf.mu.RLock()
			h := nf.batchQueues[r.QueueNum]
			nf.mu.RUnlock()
			if h == nil {
				return nil, fmt.Errorf("%w: queue %d", ErrNoQueueHandler, r.QueueNum)
			}
			var v [1]BatchVerdict
			h([]*ipv4.Packet{cur}, v[:])
			if v[0].Verdict != VerdictAccept {
				return nil, nil
			}
			if v[0].Rewritten != nil {
				cur = v[0].Rewritten
			}
		}
	}
	// Chain policy is ACCEPT.
	return cur, nil
}

// BatchResult is the fate of one packet pushed through a batch traversal.
type BatchResult struct {
	// Out is the surviving (possibly rewritten) packet; nil when dropped.
	Out *ipv4.Packet
	// Aux is the last non-nil per-packet datum a queue handler attached.
	Aux any
}

// batchItem tracks one packet's traversal state within a chain.
type batchItem struct {
	pkt *ipv4.Packet
	// done marks packets decided for the current chain (accepted early or
	// dropped); dropped packets have pkt == nil.
	done bool
	aux  any
}

// batchScratch is one batch traversal's working memory, pooled. It is
// cleared before it goes back, so nothing outlives the traversal that put
// it there.
type batchScratch struct {
	items    []batchItem
	matched  []int
	batch    []*ipv4.Packet
	verdicts []BatchVerdict
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release clears the items (batch and verdicts are cleared after each call).
func (sc *batchScratch) release() {
	clear(sc.items)
	sc.items = sc.items[:0]
	scratchPool.Put(sc)
}

// OutputBatch runs a batch through OUTPUT then POSTROUTING in one
// traversal per chain: for each rule, the matching live packets are
// partitioned out and — for NFQUEUE targets — handed to the queue's batch
// handler as a single slice, so the user-space consumer crosses the
// kernel boundary once per burst instead of once per packet. Results
// align with pkts (Out nil = dropped). A queue without a handler drops its
// packets and reports ErrNoQueueHandler (first error wins), like the real
// kernel's dead-NFQUEUE behaviour.
func (nf *Netfilter) OutputBatch(pkts []*ipv4.Packet) ([]BatchResult, error) {
	sc := scratchPool.Get().(*batchScratch)
	defer sc.release()
	for _, p := range pkts {
		sc.items = append(sc.items, batchItem{pkt: p})
	}
	err := nf.traverseBatch(ChainOutput, sc)
	// Reset chain-scoped accept marks; drops keep pkt == nil.
	for i := range sc.items {
		sc.items[i].done = sc.items[i].pkt == nil
	}
	if err2 := nf.traverseBatch(ChainPostrouting, sc); err == nil {
		err = err2
	}
	out := make([]BatchResult, len(sc.items))
	for i, it := range sc.items {
		out[i] = BatchResult{Out: it.pkt, Aux: it.aux}
	}
	return out, err
}

// traverseBatch walks one chain over every not-yet-decided item of sc.
func (nf *Netfilter) traverseBatch(chain Chain, sc *batchScratch) error {
	nf.mu.RLock()
	rules := nf.chains[chain]
	nf.mu.RUnlock()

	items := sc.items
	var firstErr error
	for ri := range rules {
		r := &rules[ri]
		switch r.Target {
		case TargetAccept:
			for i := range items {
				it := &items[i]
				if it.done || (r.Match != nil && !r.Match(it.pkt)) {
					continue
				}
				it.done = true
			}
		case TargetDrop:
			for i := range items {
				it := &items[i]
				if it.done || (r.Match != nil && !r.Match(it.pkt)) {
					continue
				}
				it.pkt = nil
				it.done = true
			}
		case TargetQueue:
			matched := sc.matched[:0]
			for i := range items {
				it := &items[i]
				if it.done || (r.Match != nil && !r.Match(it.pkt)) {
					continue
				}
				matched = append(matched, i)
			}
			sc.matched = matched
			if len(matched) == 0 {
				continue
			}
			nf.mu.RLock()
			bh := nf.batchQueues[r.QueueNum]
			nf.mu.RUnlock()
			if bh == nil {
				for _, i := range matched {
					items[i].pkt = nil
					items[i].done = true
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: queue %d", ErrNoQueueHandler, r.QueueNum)
				}
				continue
			}
			batch := sc.batch[:0]
			for _, i := range matched {
				batch = append(batch, items[i].pkt)
			}
			verdicts := append(sc.verdicts[:0], make([]BatchVerdict, len(matched))...)
			sc.batch, sc.verdicts = batch[:0], verdicts[:0]
			bh(batch, verdicts)
			for bi, i := range matched {
				it := &items[i]
				v := &verdicts[bi]
				// Aux rides along even on drops: the gateway needs the
				// enforcement result of a denied packet for its audit trail.
				if v.Aux != nil {
					it.aux = v.Aux
				}
				if v.Verdict != VerdictAccept {
					it.pkt = nil
					it.done = true
					continue
				}
				if v.Rewritten != nil {
					it.pkt = v.Rewritten
				}
			}
			clear(batch)
			clear(verdicts)
		}
	}
	// Chain policy is ACCEPT for the survivors.
	return firstErr
}
