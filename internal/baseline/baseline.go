// Package baseline implements the on-network comparators the paper's case
// studies run against BorderPatrol (§VI-C, §VII): an IP blocklist and a
// flow-size threshold, enforcement that sees only packet-level features.
// Neither can separate two functionalities sharing one socket destination —
// that gap is BorderPatrol's motivation.
package baseline

import (
	"net/netip"
	"sync"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

// Mechanism is a packet-level enforcement baseline.
type Mechanism interface {
	// Name identifies the mechanism in experiment tables.
	Name() string
	// Decide returns the verdict for one packet.
	Decide(pkt *ipv4.Packet) policy.Verdict
}

// IPBlocklist drops packets whose destination is on the list — the
// "block the Facebook Graph API IP" strategy of the case studies.
type IPBlocklist struct {
	mu      sync.RWMutex
	blocked map[netip.Addr]struct{}
}

var _ Mechanism = (*IPBlocklist)(nil)

// NewIPBlocklist builds a blocklist over the given addresses.
func NewIPBlocklist(addrs ...netip.Addr) *IPBlocklist {
	b := &IPBlocklist{blocked: make(map[netip.Addr]struct{}, len(addrs))}
	for _, a := range addrs {
		b.blocked[a] = struct{}{}
	}
	return b
}

// Name implements Mechanism.
func (b *IPBlocklist) Name() string { return "ip-blocklist" }

// Block adds an address.
func (b *IPBlocklist) Block(a netip.Addr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blocked[a] = struct{}{}
}

// Decide implements Mechanism.
func (b *IPBlocklist) Decide(pkt *ipv4.Packet) policy.Verdict {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if _, hit := b.blocked[pkt.Header.Dst]; hit {
		return policy.VerdictDrop
	}
	return policy.VerdictAllow
}

// FlowSizeThreshold drops outgoing flows whose cumulative payload to one
// destination exceeds a byte budget — the data-transfer trigger the paper
// dismisses (§VII): legitimate flows range 36 B to 480 MB, and apps evade
// any threshold by fragmenting transfers across sockets.
type FlowSizeThreshold struct {
	// Threshold is the per-flow byte budget.
	Threshold int

	mu sync.Mutex
	// sent accumulates payload bytes per (src, dst) pair within one flow
	// tracking window.
	sent map[flowKey]int
}

type flowKey struct {
	src, dst netip.Addr
	// srcPort distinguishes sockets: fragmented transfers on new sockets
	// reset the counter, which is exactly the evasion.
	srcPort uint16
}

var _ Mechanism = (*FlowSizeThreshold)(nil)

// NewFlowSizeThreshold builds the mechanism.
func NewFlowSizeThreshold(threshold int) *FlowSizeThreshold {
	return &FlowSizeThreshold{Threshold: threshold, sent: make(map[flowKey]int)}
}

// Name implements Mechanism.
func (f *FlowSizeThreshold) Name() string { return "flow-size-threshold" }

// DecideWithPort tracks per-socket flows; srcPort models the socket.
func (f *FlowSizeThreshold) DecideWithPort(pkt *ipv4.Packet, srcPort uint16) policy.Verdict {
	key := flowKey{src: pkt.Header.Src, dst: pkt.Header.Dst, srcPort: srcPort}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent[key] += len(pkt.Payload)
	if f.sent[key] > f.Threshold {
		return policy.VerdictDrop
	}
	return policy.VerdictAllow
}

// Decide implements Mechanism using the IP ID as a socket proxy when no
// port information is available.
func (f *FlowSizeThreshold) Decide(pkt *ipv4.Packet) policy.Verdict {
	return f.DecideWithPort(pkt, 0)
}
