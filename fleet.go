package borderpatrol

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"borderpatrol/internal/experiments"
	"borderpatrol/internal/metrics"
)

// MetricsAggregate merges every gateway's registry into one scrape, each
// series labelled with its gateway name. See Fleet.Metrics.
type MetricsAggregate = metrics.Aggregate

// GatewaySpec describes one gateway of a fleet: the subnet it fronts, the
// policy groups it enforces (always plus the document's global rules),
// and its flow and audit knobs.
type GatewaySpec struct {
	// Name labels the gateway in metrics and lookups; empty selects
	// "gw<index>". Names must be unique within a fleet.
	Name string
	// Subnet is the IPv4 prefix routed to this gateway (required). The
	// gateway's provisioned device takes the subnet's first host address;
	// pooled virtual devices start at the second. Subnets must not overlap
	// within a fleet.
	Subnet netip.Prefix
	// Groups are the policy groups this gateway's store compiles. Rules
	// outside any group (the global section) always apply. A group absent
	// from the current document contributes nothing until a policy push
	// introduces it.
	Groups []string
	// Flow shapes this gateway's packet path (zero value = defaults).
	Flow FlowConfig
	// Audit shapes this gateway's audit pipeline (zero value = in-memory
	// tail only).
	Audit AuditConfig
}

// FleetConfig assembles a multi-gateway deployment: one shared network
// and policy control plane, N gateways each fronting a subnet and
// enforcing a shard of the policy. Its vocabulary is Config's: Policy,
// and each GatewaySpec's Flow and Audit, read as they do for New.
type FleetConfig struct {
	// Policy is every gateway's policy. Doc is the grouped document: its
	// //@group markers read as comments to New, so one document serves a
	// fleet and an N=1 deployment enforcing the union. It seeds the
	// fleet's hub, and PushPolicy replaces it. Every store watches the
	// hub, which holds only parsed documents, so a round never fails:
	// NewFleet rejects Source and Poll, which the hub replaces, and
	// MaxStale and FailMode, which could never trip.
	Policy PolicyConfig
	// Gateways describes the fleet members (at least one).
	Gateways []GatewaySpec
	// WatchTimeout bounds one watch park per store (0 = 30s default). An
	// idle round counts as a healthy unchanged cycle.
	WatchTimeout time.Duration
	// Faults arms the shared network with a wire-fault plan.
	Faults *FaultPlan
}

// Fleet is a multi-gateway BorderPatrol deployment. Every gateway is a
// full Deployment — device, signature database, enforcer, sanitizer,
// audit pipeline, policy store — sharing one virtual-time network that
// routes each packet to its source subnet's gateway. Policy flows from a
// single in-process hub: each gateway's store watches the hub and compiles
// only its groups' rules, so one PushPolicy reaches every gateway in one
// watch round and no gateway ever holds another group's rules.
type Fleet struct {
	fleet       *experiments.Fleet
	deployments []*Deployment
	byName      map[string]*Deployment
}

// NewFleet stands up the fleet: validates the grouped policy, builds one
// deployment per gateway spec on a shared network, installs the subnet
// routes, wires every store to the policy hub, and starts the watchers.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	pc := cfg.Policy
	if pc.Source != nil || pc.Poll != 0 || pc.MaxStale != 0 || pc.FailMode != FailStatic {
		return nil, errors.New("borderpatrol: a fleet's stores watch its hub, whose rounds never fail: Policy.Source, Policy.Poll, Policy.MaxStale and Policy.FailMode must be unset")
	}
	doc := pc.Doc
	pc.Doc = "" // the document seeds the hub; each store compiles its shard
	gws := make([]experiments.FleetGateway, len(cfg.Gateways))
	for i, spec := range cfg.Gateways {
		gws[i] = experiments.FleetGateway{Name: spec.Name, Subnet: spec.Subnet, Groups: spec.Groups,
			Config: testbedConfig(Config{Policy: pc, Flow: spec.Flow, Audit: spec.Audit})}
	}
	ef, err := experiments.NewFleet(doc, gws, cfg.WatchTimeout, nil)
	if err != nil {
		return nil, fmt.Errorf("borderpatrol: %w", err)
	}
	if cfg.Faults != nil {
		ef.Network.InstallFaults(*cfg.Faults)
	}
	f := &Fleet{fleet: ef, byName: make(map[string]*Deployment, len(gws))}
	for i, tb := range ef.Testbeds {
		d := &Deployment{name: ef.Gateways[i].Name, tb: tb}
		f.deployments = append(f.deployments, d)
		f.byName[d.name] = d
	}
	return f, nil
}

// Deployments returns every gateway's deployment handle, in spec order.
func (f *Fleet) Deployments() []*Deployment { return slices.Clone(f.deployments) }

// Deployment returns the named gateway's handle (nil if unknown).
func (f *Fleet) Deployment(name string) *Deployment { return f.byName[name] }

// Name returns the gateway name a fleet deployment was built under (empty
// for a stand-alone deployment).
func (d *Deployment) Name() string { return d.name }

// Metrics returns the fleet-wide aggregate: every gateway's registry in
// one scrape, series labelled gateway="<name>", plus the shared network's
// counters under gateway="fleet".
func (f *Fleet) Metrics() *MetricsAggregate { return f.fleet.Metrics }

// PolicyRev returns the hub's policy revision (1 is the seed document).
func (f *Fleet) PolicyRev() uint64 { return f.fleet.Hub.Rev() }

// PushPolicy replaces the fleet's policy document. Every gateway's parked
// watcher wakes, re-scopes the document to its groups, and — when its
// shard actually changed — compiles and swaps atomically; unchanged
// shards keep their compiled rules and caches. PushPolicy returns once
// every store has completed that one watch round, verified by watch-round
// and apply counters rather than sleeps. Pushing an identical document is
// a no-op.
func (f *Fleet) PushPolicy(doc string) error {
	if err := f.fleet.Push(doc); err != nil {
		return fmt.Errorf("borderpatrol: %w", err)
	}
	return nil
}

// Close stops every gateway's policy watcher and flushes every audit
// pipeline, reporting the first sticky error from any of them.
func (f *Fleet) Close() error { return f.fleet.Close() }
