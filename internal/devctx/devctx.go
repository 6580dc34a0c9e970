// Package devctx is the gateway's device-context source: the per-device
// half of the contextual policy dimension (policy.DeviceContext), keyed by
// the device's source address. The MDM/agent side of a real deployment
// reports network attachment, posture and location; here the virtual
// android devices and netsim device pools feed the same interface.
//
// Invalidation is per device: the source keeps a fixed array of Stripes
// version counters, a device's address hashes to one of them, and a change
// to that device's context advances only its stripe. The enforcer folds
// GenerationFor(src) into the generation it caches a verdict under, so a
// roam invalidates the roaming device's cached verdicts (and those of the
// few devices sharing its stripe — over-invalidation, never a stale
// verdict) and leaves every other device's flows cached.
//
// Concurrency contract: Lookup runs on the enforcer's SYN/cache-miss path
// under a read lock (never on the per-packet cache-hit path, which reads
// one stripe counter and takes no lock); every mutator takes the write
// lock, publishes the new state, and only then bumps the device's stripe —
// mirroring policy.Engine.SetRules, so any reader observing the new stripe
// version is guaranteed to Lookup at least the new context, and a verdict
// cached under the new version can never reflect the old context.
package devctx

import (
	"encoding/binary"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// Clock supplies virtual time for velocity computation (netsim.Clock
// satisfies it).
type Clock interface {
	Now() time.Duration
}

// Cause classifies what changed a device's context, for the
// bp_context_invalidations_total{cause=...} metric family.
type Cause int

// Invalidation causes.
const (
	// CauseNetwork is a network trust-class change (SSID roam).
	CauseNetwork Cause = iota
	// CausePosture is a posture change (screen lock, patch level).
	CausePosture
	// CauseTravel is a location observation that changed the velocity.
	CauseTravel
	// CauseProvision is a wholesale context replacement.
	CauseProvision

	causeCount
)

// String names the cause as its metric label value.
func (c Cause) String() string {
	switch c {
	case CauseNetwork:
		return "network"
	case CausePosture:
		return "posture"
	case CauseTravel:
		return "travel"
	case CauseProvision:
		return "provision"
	default:
		return "unknown"
	}
}

// MaxVelocityKmh caps the stored apparent velocity (two observations at
// the same virtual instant would otherwise be infinite).
const MaxVelocityKmh = 100000

type deviceState struct {
	ctx policy.DeviceContext

	// Last location observation, for velocity derivation.
	hasLoc   bool
	lat, lon float64
	locAt    time.Duration
}

// Stripes is the number of version counters device addresses hash onto. It
// is a constant, not a setting: a stripe shared by several devices only
// costs those devices a re-evaluation when one of them changes, and 4,096
// counters (32 KiB) keep that to a handful of devices in a fleet of tens
// of thousands.
const Stripes = 1 << stripeBits

const stripeBits = 12

// Stripe returns the index of the version counter addr's context changes
// advance. Devices with equal Stripe invalidate together.
func Stripe(addr netip.Addr) int {
	var h uint64
	if addr.Is4() { // the per-packet case; As16 costs four times as much
		a := addr.As4()
		h = uint64(binary.BigEndian.Uint32(a[:]))
	} else {
		b := addr.As16()
		h = binary.BigEndian.Uint64(b[:8]) ^ binary.BigEndian.Uint64(b[8:])
	}
	// Fibonacci hashing: consecutive addresses (a DHCP pool) land on
	// distinct stripes.
	return int(h * 0x9e3779b97f4a7c15 >> (64 - stripeBits))
}

// Source holds the current context of every known device and, per stripe
// of device addresses, a version counter the enforcer folds into its
// flow-cache generation: a context change bumps the device's stripe, which
// invalidates that device's cached verdicts and forces re-evaluation
// against the new context on the next packet of each of its flows.
type Source struct {
	clock Clock

	mu      sync.RWMutex
	devices map[netip.Addr]*deviceState

	gen           atomic.Uint64 // every effective change, for Generation and metrics
	versions      [Stripes]atomic.Uint64
	invalidations [causeCount]atomic.Uint64
}

// NewSource builds an empty device-context source. clock may be nil when
// no caller uses location observations (velocity then stays zero).
func NewSource(clock Clock) *Source {
	return &Source{clock: clock, devices: make(map[netip.Addr]*deviceState)}
}

// Generation returns the number of effective context changes so far,
// across all devices. Nothing is invalidated on it; see GenerationFor.
func (s *Source) Generation() uint64 { return s.gen.Load() }

// GenerationFor returns the version of addr's stripe: how many effective
// context changes the devices on that stripe have had. The enforcer folds
// it into the generation the flow table keys addr's verdicts on. One atomic
// load — no lock, no map.
func (s *Source) GenerationFor(addr netip.Addr) uint64 {
	return s.versions[Stripe(addr)].Load()
}

// Lookup returns the device's current context snapshot. Unknown devices
// report the zero DeviceContext — unknown network, the least trusted
// class — so unprovisioned devices default to the risky posture.
func (s *Source) Lookup(addr netip.Addr) (policy.DeviceContext, bool) {
	s.mu.RLock()
	st, ok := s.devices[addr]
	var ctx policy.DeviceContext
	if ok {
		ctx = st.ctx
	}
	s.mu.RUnlock()
	return ctx, ok
}

// Devices returns the number of devices with known context.
func (s *Source) Devices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.devices)
}

// state returns (creating if needed) the mutable state for addr. Callers
// hold s.mu.
func (s *Source) state(addr netip.Addr) *deviceState {
	st, ok := s.devices[addr]
	if !ok {
		st = &deviceState{}
		s.devices[addr] = st
	}
	return st
}

// bump publishes an effective change of addr's context: the caller already
// wrote the new state and still holds s.mu; advancing addr's stripe makes
// the change visible to the enforcer's cache generation. Per-cause counters
// feed the invalidation metrics.
func (s *Source) bump(addr netip.Addr, c Cause) {
	s.invalidations[c].Add(1)
	s.gen.Add(1)
	s.versions[Stripe(addr)].Add(1)
}

// SetNetwork records the device's network trust class (SSID roam,
// cellular handoff). No-op when unchanged.
func (s *Source) SetNetwork(addr netip.Addr, class policy.NetworkClass) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(addr)
	if st.ctx.Network == class {
		return
	}
	st.ctx.Network = class
	s.bump(addr, CauseNetwork)
}

// SetScreenLocked records the device's screen-lock state.
func (s *Source) SetScreenLocked(addr netip.Addr, locked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(addr)
	if st.ctx.ScreenLocked == locked {
		return
	}
	st.ctx.ScreenLocked = locked
	s.bump(addr, CausePosture)
}

// SetPatchAge records the age of the device's security patch level.
func (s *Source) SetPatchAge(addr netip.Addr, days int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(addr)
	if st.ctx.PatchAgeDays == days {
		return
	}
	st.ctx.PatchAgeDays = days
	s.bump(addr, CausePosture)
}

// ObserveLocation records a location fix and derives the apparent velocity
// from the previous observation (great-circle distance over virtual time
// elapsed). A velocity > policy.ImpossibleTravelKmh is the
// impossible-travel signal: the credential moved faster than the device
// could have.
func (s *Source) ObserveLocation(addr netip.Addr, lat, lon float64) {
	var now time.Duration
	if s.clock != nil {
		now = s.clock.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(addr)
	v := int32(0)
	if st.hasLoc {
		km := haversineKm(st.lat, st.lon, lat, lon)
		if dt := now - st.locAt; dt > 0 {
			v = clampVelocity(km / dt.Hours())
		} else if km > 0 {
			v = MaxVelocityKmh // same instant, different place
		}
	}
	st.hasLoc, st.lat, st.lon, st.locAt = true, lat, lon, now
	if st.ctx.VelocityKmh == v {
		return
	}
	st.ctx.VelocityKmh = v
	s.bump(addr, CauseTravel)
}

// Provision replaces the device's whole context (initial enrollment or an
// MDM sync). Location history is kept; the velocity field is taken from
// ctx verbatim.
func (s *Source) Provision(addr netip.Addr, ctx policy.DeviceContext) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(addr)
	if st.ctx == ctx {
		return
	}
	st.ctx = ctx
	s.bump(addr, CauseProvision)
}

// Forget drops a device's context (un-enrollment). Counts as a provision
// change when the device was known.
func (s *Source) Forget(addr netip.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.devices[addr]; !ok {
		return
	}
	delete(s.devices, addr)
	s.bump(addr, CauseProvision)
}

// RegisterMetrics exposes the source's counters on a registry as the
// bp_context_* device-side families — scrape-time closures over the
// existing atomics, nothing added to any update path.
func (s *Source) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("bp_context_devices",
		"Devices with known context in the device-context source.",
		func() float64 { return float64(s.Devices()) })
	r.CounterFunc("bp_context_changes_total",
		"Effective device-context changes so far, all devices (the context generation).",
		s.Generation)
	for c := Cause(0); c < causeCount; c++ {
		c := c
		r.CounterFunc("bp_context_invalidations_total",
			"Flow-cache invalidations forced by device-context changes, by cause.",
			s.invalidations[c].Load, metrics.L("cause", c.String()))
	}
}

// haversineKm is the great-circle distance between two coordinates.
func haversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// clampVelocity converts to int32 km/h with the MaxVelocityKmh cap.
func clampVelocity(kmh float64) int32 {
	if kmh < 0 {
		return 0
	}
	if kmh > MaxVelocityKmh {
		return MaxVelocityKmh
	}
	return int32(kmh)
}
