// Package dns models the name-resolution layer of the enterprise network.
// The paper's on-network baselines "allow or reject traffic based on IP
// addresses, DNS names, packet flow direction and size" (§VI-C); modelling
// DNS explicitly lets the comparators express name-based policies and
// exposes the two ways they fail: one IP serving many names (blocking the
// name cannot be enforced at the packet layer once resolved) and one name
// resolving to many IPs (the blocklist chases a moving target).
package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Zone is an authoritative name→address map with reverse lookups.
type Zone struct {
	mu sync.RWMutex
	// forward maps fully-qualified names to address sets.
	forward map[string][]netip.Addr
	// reverse maps addresses to the names pointing at them.
	reverse map[netip.Addr][]string
	queries atomic.Uint64
}

// ErrNXDomain reports an unknown name.
var ErrNXDomain = errors.New("dns: NXDOMAIN")

// NewZone returns an empty zone.
func NewZone() *Zone {
	return &Zone{
		forward: make(map[string][]netip.Addr),
		reverse: make(map[netip.Addr][]string),
	}
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
	z.reverse[addr] = append(z.reverse[addr], name)
	return nil
}

// Resolve returns a copy of the address set for a name.
func (z *Zone) Resolve(name string) ([]netip.Addr, error) {
	name = canonical(name)
	addrs := append([]netip.Addr(nil), z.lookup([]byte(name))...)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNXDomain, name)
	}
	return addrs, nil
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

// NamesFor returns every name resolving to an address (reverse lookup).
func (z *Zone) NamesFor(addr netip.Addr) []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	names := append([]string(nil), z.reverse[addr]...)
	sort.Strings(names)
	return names
}

// Queries returns the number of queries served: Resolve calls and queries
// ZoneHandler answered.
func (z *Zone) Queries() uint64 {
	return z.queries.Load()
}

// NameBlocklist is the DNS-level comparator: a set of blocked names (and
// name suffixes, e.g. ".flurry.com") translated to packet-level decisions
// through the zone's reverse map. Its fundamental weakness is shared
// hosting: blocking a name blocks every co-hosted name on the same address,
// and a name absent from the zone at rule-compile time escapes entirely.
type NameBlocklist struct {
	zone *Zone

	mu       sync.RWMutex
	exact    map[string]struct{}
	suffixes []string
}

// NewNameBlocklist builds a blocklist over a zone.
func NewNameBlocklist(zone *Zone) *NameBlocklist {
	return &NameBlocklist{zone: zone, exact: make(map[string]struct{})}
}

// Block adds a name; names starting with '.' act as suffix matches.
func (b *NameBlocklist) Block(name string) {
	name = canonical(name)
	b.mu.Lock()
	defer b.mu.Unlock()
	if strings.HasPrefix(name, ".") {
		b.suffixes = append(b.suffixes, name)
		return
	}
	b.exact[name] = struct{}{}
}

// NameBlocked reports whether a specific name is on the list.
func (b *NameBlocklist) NameBlocked(name string) bool {
	name = canonical(name)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if _, hit := b.exact[name]; hit {
		return true
	}
	for _, suf := range b.suffixes {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// AddrBlocked reports whether packets to the address must be dropped: true
// when ANY name resolving to it is blocked. The collateral set — co-hosted
// names that die with it — is returned for audit.
func (b *NameBlocklist) AddrBlocked(addr netip.Addr) (blocked bool, collateral []string) {
	names := b.zone.NamesFor(addr)
	anyBlocked := false
	for _, n := range names {
		if b.NameBlocked(n) {
			anyBlocked = true
			break
		}
	}
	if !anyBlocked {
		return false, nil
	}
	for _, n := range names {
		if !b.NameBlocked(n) {
			collateral = append(collateral, n)
		}
	}
	return true, collateral
}
