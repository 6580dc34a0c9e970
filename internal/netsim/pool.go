package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"borderpatrol/internal/ipv4"
)

// DevicePool amortizes the android device model across a fleet-sized
// device population. A full simulated device (kernel, netstack, context
// manager) is cheap but not free; at 10k–100k devices per gateway the
// fleet harness keeps a handful of real template devices and fans each
// template's egress burst out across a subnet of virtual devices by
// cloning the packets and rewriting the source address.
//
// The rewrite is sound end to end: the tag option bytes (call-stack
// context) are address-independent, transport checksums deliberately
// exclude the IPv4 pseudo-header (see internal/transport), and flow
// identity is the 5-tuple — so each virtual device carries its own
// distinct flows through enforcement, conntrack, and the flow cache,
// exactly as a real per-device socket would. A virtual device's context is
// the gateway's to keep, under Addr(i), like any other device's (see
// devctx.Source); the pool only numbers the devices.
type DevicePool struct {
	base uint32 // first virtual device address, host byte order
	n    int
}

// poolHostOffset skips the subnet address and the conventional .1 (the
// gateway / template device slot) when numbering virtual devices.
const poolHostOffset = 2

// NewDevicePool numbers n virtual devices inside an IPv4 prefix,
// starting at the prefix's third address.
func NewDevicePool(prefix netip.Prefix, n int) (*DevicePool, error) {
	if !prefix.Addr().Is4() {
		return nil, fmt.Errorf("netsim: device pool wants an IPv4 prefix, got %v", prefix)
	}
	if n <= 0 {
		return nil, fmt.Errorf("netsim: device pool size %d", n)
	}
	prefix = prefix.Masked()
	hostBits := 32 - prefix.Bits()
	capacity := 0
	if hostBits > 0 && hostBits < 31 {
		capacity = (1 << hostBits) - poolHostOffset
	}
	if n > capacity {
		return nil, fmt.Errorf("netsim: %d devices exceed %v capacity %d", n, prefix, capacity)
	}
	a4 := prefix.Addr().As4()
	return &DevicePool{
		base: binary.BigEndian.Uint32(a4[:]) + poolHostOffset,
		n:    n,
	}, nil
}

// Len returns the virtual device count.
func (p *DevicePool) Len() int { return p.n }

// Addr returns virtual device i's address. i must be in [0, Len).
func (p *DevicePool) Addr(i int) netip.Addr {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("netsim: device %d outside pool of %d", i, p.n))
	}
	var a4 [4]byte
	binary.BigEndian.PutUint32(a4[:], p.base+uint32(i))
	return netip.AddrFrom4(a4)
}

// Rewrite clones a template device's egress burst for virtual device i:
// deep copies (tag options and payload included) with the source address
// rewritten. The template burst is never mutated and may be reused for
// every device in the pool.
func (p *DevicePool) Rewrite(i int, template []*ipv4.Packet) []*ipv4.Packet {
	addr := p.Addr(i)
	out := make([]*ipv4.Packet, len(template))
	for j, pkt := range template {
		c := pkt.Clone()
		c.Header.Src = addr
		out[j] = c
	}
	return out
}
