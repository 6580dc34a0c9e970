package borderpatrol

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"borderpatrol/internal/experiments"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
)

// GroupSet is a policy document split into a global section and named
// //@group sections (the unit of fleet policy sharding).
type GroupSet = policy.GroupSet

// ParseGroupSet splits a grouped policy document. The same document is a
// valid flat policy — //@group markers read as comments — so one document
// serves both a fleet and an N=1 deployment enforcing the union.
func ParseGroupSet(doc string) (*GroupSet, error) {
	return policy.ParseGroupSet(doc)
}

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
// enforcing a shard of the policy.
type FleetConfig struct {
	// Policy is the fleet's grouped policy document (global rules plus
	// //@group sections). Required; it seeds the fleet's policy hub, and
	// PushPolicy replaces it fleet-wide in one watch round.
	Policy string
	// Gateways describes the fleet members (at least one).
	Gateways []GatewaySpec
	// Poll is each store's backoff base after a failed watch round (0 =
	// 5s default). Healthy rounds re-park at once whatever its value, so
	// every PushPolicy is carried by the in-process hub watch.
	Poll time.Duration
	// WatchTimeout bounds one watch park per store (0 = 30s default).
	WatchTimeout time.Duration
	// MaxStale is each store's staleness deadline on the shared virtual
	// clock (0 disables it); FailMode is the posture past the deadline.
	MaxStale time.Duration
	FailMode FailMode
	// DefaultVerdict applies when no rule is decisive (zero = allow).
	DefaultVerdict Verdict
	// AllowUntagged admits packets without a BorderPatrol tag.
	AllowUntagged bool
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
	network     *netsim.Network
	hub         *policystore.Hub
	deployments []*Deployment
	groups      [][]string // per deployment, the spec's policy groups
	byName      map[string]*Deployment
	agg         *metrics.Aggregate
}

// NewFleet stands up the fleet: validates the grouped policy, builds one
// deployment per gateway spec on a shared network, installs the subnet
// routes, wires every store to the policy hub, and starts the watchers.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Gateways) == 0 {
		return nil, errors.New("borderpatrol: fleet needs at least one gateway")
	}
	if _, err := policy.ParseGroupSet(cfg.Policy); err != nil {
		return nil, fmt.Errorf("borderpatrol: fleet policy: %w", err)
	}

	network := netsim.NewNetwork(netsim.ModeTAP, netsim.DefaultLatencyModel())
	if cfg.Faults != nil {
		network.InstallFaults(*cfg.Faults)
	}
	hub := policystore.NewHub(cfg.Policy)
	if cfg.Poll <= 0 {
		// A store with no poll interval starts no loop at all, watch
		// included, and then no push would ever arrive.
		cfg.Poll = defaultFleetPoll
	}

	f := &Fleet{
		network: network,
		hub:     hub,
		byName:  make(map[string]*Deployment, len(cfg.Gateways)),
		agg:     metrics.NewAggregate("gateway"),
	}
	closeBuilt := func() {
		for _, d := range f.deployments {
			d.Close()
		}
	}
	for i, spec := range cfg.Gateways {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("gw%d", i)
		}
		if _, dup := f.byName[name]; dup {
			closeBuilt()
			return nil, fmt.Errorf("borderpatrol: duplicate gateway name %q", name)
		}
		if !spec.Subnet.IsValid() || !spec.Subnet.Addr().Is4() {
			closeBuilt()
			return nil, fmt.Errorf("borderpatrol: gateway %q needs an IPv4 subnet, got %v", name, spec.Subnet)
		}
		// Overlapping subnets would provision two devices on one address and
		// route the shared range to whichever gateway was added first.
		for j, prev := range cfg.Gateways[:i] {
			if prev.Subnet.Overlaps(spec.Subnet) {
				closeBuilt()
				return nil, fmt.Errorf("borderpatrol: gateway %q subnet %v overlaps gateway %q subnet %v",
					name, spec.Subnet, f.deployments[j].name, prev.Subnet)
			}
		}
		tcfg, err := testbedConfig(Config{
			Policy: PolicyConfig{
				Source:         policystore.NewGroupScopedSource(hub.Source(), spec.Groups...),
				Poll:           cfg.Poll,
				WatchTimeout:   cfg.WatchTimeout,
				MaxStale:       cfg.MaxStale,
				FailMode:       cfg.FailMode,
				DefaultVerdict: cfg.DefaultVerdict,
				AllowUntagged:  cfg.AllowUntagged,
			},
			Flow:  spec.Flow,
			Audit: spec.Audit,
			Net:   NetConfig{DeviceAddr: spec.Subnet.Masked().Addr().Next()},
		})
		if err != nil {
			closeBuilt()
			return nil, err
		}
		tb, err := experiments.Assemble(network, tcfg)
		if err != nil {
			closeBuilt()
			return nil, fmt.Errorf("borderpatrol: gateway %q: %w", name, err)
		}
		d := &Deployment{name: name, tb: tb}
		network.AddGatewayRoute(spec.Subnet, tb.Gateway)
		f.deployments = append(f.deployments, d)
		f.groups = append(f.groups, spec.Groups)
		f.byName[name] = d
		f.agg.Attach(name, tb.Metrics)
	}
	// Network-wide series (wire faults) belong to the fleet, not to any
	// one gateway; they join the aggregate under their own label value.
	fleetReg := metrics.NewRegistry()
	network.RegisterMetrics(fleetReg)
	f.agg.Attach("fleet", fleetReg)

	// Stores start only once the whole fleet can no longer fail to build.
	for _, d := range f.deployments {
		d.tb.Policy.Start()
	}
	return f, nil
}

// Deployments returns every gateway's deployment handle, in spec order.
func (f *Fleet) Deployments() []*Deployment {
	out := make([]*Deployment, len(f.deployments))
	copy(out, f.deployments)
	return out
}

// Deployment returns the named gateway's handle (nil if unknown).
func (f *Fleet) Deployment(name string) *Deployment { return f.byName[name] }

// Name returns the gateway name a fleet deployment was built under (empty
// for a stand-alone deployment).
func (d *Deployment) Name() string { return d.name }

// Metrics returns the fleet-wide aggregate: every gateway's registry in
// one scrape, series labelled gateway="<name>", plus the shared network's
// counters under gateway="fleet".
func (f *Fleet) Metrics() *MetricsAggregate { return f.agg }

// PolicyRev returns the hub's policy revision (1 is the seed document).
func (f *Fleet) PolicyRev() uint64 { return f.hub.Rev() }

// defaultFleetPoll is FleetConfig.Poll's zero-value default.
const defaultFleetPoll = 5 * time.Second

// pushTimeout bounds how long PushPolicy waits for every gateway's watch
// round. Propagation is event-driven (the hub wakes all parked watchers),
// so the bound only trips when a watcher is wedged.
const pushTimeout = 30 * time.Second

// PushPolicy replaces the fleet's policy document. Every gateway's parked
// watcher wakes, re-scopes the document to its groups, and — when its
// shard actually changed — compiles and swaps atomically; unchanged
// shards keep their compiled rules and caches. PushPolicy returns once
// every store has completed that one watch round, verified by watch-round
// counters rather than sleeps. Pushing an identical document is a no-op.
func (f *Fleet) PushPolicy(doc string) error {
	newGS, err := policy.ParseGroupSet(doc)
	if err != nil {
		return fmt.Errorf("borderpatrol: push policy: %w", err)
	}
	oldDoc, _ := f.hub.Get()
	oldGS, err := policy.ParseGroupSet(oldDoc)
	if err != nil { // the hub only ever holds validated documents
		return fmt.Errorf("borderpatrol: push policy: %w", err)
	}
	// Decide, per gateway, whether its shard (the scoped render the store
	// compiles) actually changes: changed shards must report an apply,
	// untouched shards just an unchanged watch round. Waiting on the right
	// counter keeps the return precise — a coincidental idle-timeout round
	// can't satisfy it.
	changed := make([]bool, len(f.deployments))
	applies, rounds := make([]float64, len(f.deployments)), make([]float64, len(f.deployments))
	applied := metrics.L("outcome", "applied")
	for i, d := range f.deployments {
		changed[i] = oldGS.DocFor(f.groups[i]...) != newGS.DocFor(f.groups[i]...)
		applies[i], _ = d.tb.Metrics.Value("bp_policy_reloads_total", applied)
		rounds[i], _ = d.tb.Metrics.Value("bp_policy_watch_rounds_total")
	}
	rev := f.hub.Rev()
	f.hub.Set(doc)
	if f.hub.Rev() == rev {
		return nil // identical document: nothing to propagate
	}
	deadline := time.Now().Add(pushTimeout)
	for i, d := range f.deployments {
		done := func() bool {
			if changed[i] {
				n, _ := d.tb.Metrics.Value("bp_policy_reloads_total", applied)
				return n > applies[i]
			}
			n, _ := d.tb.Metrics.Value("bp_policy_watch_rounds_total")
			return n > rounds[i]
		}
		for !done() {
			if time.Now().After(deadline) {
				return fmt.Errorf("borderpatrol: gateway %q did not complete a watch round within %v", d.name, pushTimeout)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// Close stops every gateway's policy watcher and flushes every audit
// pipeline, reporting the first sticky error from any of them.
func (f *Fleet) Close() error {
	var errs []error
	for _, d := range f.deployments {
		if err := d.Close(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.name, err))
		}
	}
	return errors.Join(errs...)
}
