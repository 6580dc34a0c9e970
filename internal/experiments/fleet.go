package experiments

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policystore"
)

// This file builds fleets, for the facade and the fleet scenario table
// (FleetScenario) alike: N gateways on one virtual-time network, each
// fronting a subnet and enforcing its own policy-group shard fed from a
// shared hub over the watch path.

// FleetGateway is one member of a fleet, as the facade's GatewaySpec
// describes it (an empty Name selects "gw<index>"). NewFleet sets Config's
// policy source, poll interval, watch timeout and device address.
type FleetGateway struct {
	Name   string
	Subnet netip.Prefix
	Groups []string
	Config TestbedConfig
}

// Fleet is N assembled gateways sharing one network and one policy hub.
// Testbeds[i] is Gateways[i]'s assembly; Metrics holds every gateway's
// registry under its name and the network-wide series under "fleet".
type Fleet struct {
	Network  *netsim.Network
	Hub      *policystore.Hub
	Gateways []FleetGateway
	Testbeds []*Testbed
	Metrics  *metrics.Aggregate
}

const (
	// fleetBackoff is a fleet store's wait after a failed watch round; a
	// healthy round re-parks at once.
	fleetBackoff = 5 * time.Second
	// pushTimeout bounds Push's wait. The hub wakes every parked watcher,
	// so it trips only when a watcher is wedged.
	pushTimeout = 30 * time.Second
)

// errPushStalled is Push's error for a gateway whose store did not finish
// the push's watch round, or did not apply its changed shard, within
// pushTimeout.
var errPushStalled = errors.New("push stalled")

// NewFleet validates the grouped policy document (the hub's split of it)
// and the gateways, builds the shared network and the hub, assembles each
// gateway on a group-scoped hub source, routes its subnet to it and
// attaches its registry to agg (nil selects a new aggregate), and starts
// the stores' watches, each park bounded by watchTimeout (0 selects the
// store default).
func NewFleet(doc string, gateways []FleetGateway, watchTimeout time.Duration, agg *metrics.Aggregate) (*Fleet, error) {
	if len(gateways) == 0 {
		return nil, errors.New("fleet needs at least one gateway")
	}
	hub := policystore.NewHub(doc)
	if _, err := hub.ShardVersion(); err != nil {
		return nil, fmt.Errorf("fleet policy: %w", err)
	}
	if agg == nil {
		agg = metrics.NewAggregate("gateway")
	}
	f := &Fleet{
		Network:  netsim.NewNetwork(netsim.ModeTAP),
		Hub:      hub,
		Gateways: slices.Clone(gateways),
		Metrics:  agg,
	}
	for i := range f.Gateways {
		if err := f.addGateway(i, watchTimeout); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Network-wide series (wire faults) belong to the fleet, not to any
	// one gateway; they join the aggregate under their own label value.
	fleetReg := metrics.NewRegistry()
	f.Network.RegisterMetrics(fleetReg)
	agg.Attach("fleet", fleetReg)

	// Stores start only once the whole fleet can no longer fail to build.
	for _, tb := range f.Testbeds {
		tb.Policy.Start()
	}
	return f, nil
}

// addGateway names, validates, assembles and routes gateway i.
func (f *Fleet) addGateway(i int, watchTimeout time.Duration) error {
	gw := &f.Gateways[i]
	if gw.Name == "" {
		gw.Name = fmt.Sprintf("gw%d", i)
	}
	if !gw.Subnet.IsValid() || !gw.Subnet.Addr().Is4() {
		return fmt.Errorf("gateway %q needs an IPv4 subnet, got %v", gw.Name, gw.Subnet)
	}
	for _, prev := range f.Gateways[:i] {
		switch {
		case prev.Name == gw.Name:
			return fmt.Errorf("duplicate gateway name %q", gw.Name)
		// Overlapping subnets would provision two devices on one address
		// and route the shared range to whichever gateway was added first.
		case prev.Subnet.Overlaps(gw.Subnet):
			return fmt.Errorf("gateway %q subnet %v overlaps gateway %q subnet %v",
				gw.Name, gw.Subnet, prev.Name, prev.Subnet)
		}
	}
	cfg := gw.Config
	cfg.PolicySource = f.Hub.Shard(gw.Groups...)
	cfg.PolicyPoll = fleetBackoff
	cfg.PolicyWatchTimeout = watchTimeout
	cfg.DeviceAddr = gw.Subnet.Masked().Addr().Next()
	tb, err := Assemble(f.Network, cfg)
	if err != nil {
		return fmt.Errorf("gateway %q: %w", gw.Name, err)
	}
	f.Network.AddGatewayRoute(gw.Subnet, tb.Gateway)
	f.Testbeds = append(f.Testbeds, tb)
	f.Metrics.Attach(gw.Name, tb.Metrics)
	return nil
}

// Push replaces the fleet's policy document and returns once, on every
// gateway, a changed shard has applied and the store's watch-round counter
// has moved past the push; an unchanged shard keeps its compiled rules.
// The hub's split of each revision says which shards changed. The store
// bumps that counter after the apply, so the counters a caller reads next
// are settled. Pushing the current document is a no-op.
func (f *Fleet) Push(doc string) error {
	applied := metrics.L("outcome", "applied")
	type mark struct {
		shard           string // the shard's version before the push
		rounds, applies uint64
	}
	marks := make([]mark, len(f.Testbeds))
	for i, tb := range f.Testbeds {
		// The hub serves a document NewFleet or a Push admitted: it splits.
		shard, _ := f.Hub.ShardVersion(f.Gateways[i].Groups...)
		marks[i] = mark{
			shard:   shard,
			rounds:  tb.count("bp_policy_watch_rounds_total"),
			applies: tb.count("bp_policy_reloads_total", applied),
		}
	}
	rev := f.Hub.Rev()
	if _, err := f.Hub.SetGroups(doc); err != nil {
		return fmt.Errorf("push policy: %w", err)
	}
	if f.Hub.Rev() == rev {
		return nil
	}
	deadline := time.Now().Add(pushTimeout)
	for i, tb := range f.Testbeds {
		m := marks[i]
		shard, _ := f.Hub.ShardVersion(f.Gateways[i].Groups...)
		changed := shard != m.shard
		for tb.count("bp_policy_watch_rounds_total") == m.rounds ||
			changed && tb.count("bp_policy_reloads_total", applied) == m.applies {
			if time.Now().After(deadline) {
				return fmt.Errorf("gateway %q did not complete a watch round within %v: %w", f.Gateways[i].Name, pushTimeout, errPushStalled)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// Close stops every gateway's policy watcher and flushes every audit
// pipeline, reporting the first sticky error from each. Idempotent.
func (f *Fleet) Close() error {
	var errs []error
	for i, tb := range f.Testbeds {
		if err := tb.Close(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", f.Gateways[i].Name, err))
		}
	}
	return errors.Join(errs...)
}
