// Package dns models the name-resolution layer of the enterprise network:
// an authoritative zone and the wire format of its queries and answers,
// served over UDP (ZoneHandler). A provisioned app's queries are traffic
// like any other — tagged at the device, policy-checked at the gateway —
// so a rule that denies the component resolving a name stops its queries
// before they reach the zone. That is the per-functionality enforcement
// the paper's name-based baselines cannot express (§VI-C).
package dns

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
)

// Zone is an authoritative name→address map.
type Zone struct {
	mu sync.RWMutex
	// forward maps fully-qualified names to address sets.
	forward map[string][]netip.Addr
	queries atomic.Uint64
}

// NewZone returns an empty zone.
func NewZone() *Zone {
	return &Zone{forward: make(map[string][]netip.Addr)}
}

func canonical(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// AddRecord binds a name to an address (A record). Repeated calls
// accumulate round-robin address sets of at most 255 addresses, the most
// one answer carries.
func (z *Zone) AddRecord(name string, addr netip.Addr) error {
	name = canonical(name)
	if name == "" {
		return fmt.Errorf("dns: empty name")
	}
	if !addr.Is4() {
		return fmt.Errorf("dns: %v is not an IPv4 address", addr)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	for _, a := range z.forward[name] {
		if a == addr {
			return nil
		}
	}
	if len(z.forward[name]) == maxAnswers {
		return fmt.Errorf("dns: %s already has %d addresses", name, maxAnswers)
	}
	// Address sets only ever grow by append, so a set read under the lock
	// stays valid after it (see lookup).
	z.forward[name] = append(z.forward[name], addr)
	return nil
}

// lookup counts a query and returns the zone's own address set for a
// canonical name, nil when there is none. AddRecord only appends past the
// end of a set, so the caller may read the set without the lock but must
// not write to it.
func (z *Zone) lookup(name []byte) []netip.Addr {
	z.queries.Add(1)
	z.mu.RLock()
	addrs := z.forward[string(name)]
	z.mu.RUnlock()
	return addrs
}

// Queries returns the number of queries ZoneHandler answered.
func (z *Zone) Queries() uint64 {
	return z.queries.Load()
}
