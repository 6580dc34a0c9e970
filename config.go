package borderpatrol

import (
	"io"
	"net/netip"
	"time"
)

// PolicyConfig is everything that decides a packet's fate: the rule
// document (or its live backend), the hot-reload cadence, the staleness
// posture, and the defaults applied when no rule is decisive.
type PolicyConfig struct {
	// Doc is a policy document in the paper's grammar; empty means no
	// rules (the default verdict decides everything). Mutually exclusive
	// with Source.
	Doc string
	// Source feeds the policy engine from an external backend (see
	// FilePolicySource, HTTPPolicySource, StaticPolicySource). The initial
	// document loads synchronously — a broken initial policy fails
	// construction — and later revisions hot-swap atomically, keeping the
	// last-good rules on any fetch or parse error.
	Source PolicySource
	// Poll is the hot-reload poll interval when Source is set; 0 disables
	// background polling (ReloadPolicy still works). Successive polls are
	// jittered ±20% so fleets don't thundering-herd the backend. For
	// watch-capable sources Poll is the fallback interval used while the
	// watch path is down.
	Poll time.Duration
	// WatchTimeout bounds how long a watch-capable Source parks one
	// long-poll round (0 selects the store default of 30s). A timeout
	// counts as a healthy unchanged cycle, not staleness.
	WatchTimeout time.Duration
	// MaxStale is the staleness deadline: when the store has not seen a
	// healthy reload cycle for longer than this (in the network's virtual
	// time), it degrades the engine according to FailMode. Zero disables
	// the deadline.
	MaxStale time.Duration
	// FailMode selects the degraded posture past MaxStale: FailStatic
	// keeps the last-good rules serving (the default), FailOpen admits
	// everything, FailClosed denies everything. Recovery is automatic on
	// the next healthy reload.
	FailMode FailMode
	// DefaultVerdict applies when no rule is decisive; zero value means
	// VerdictAllow.
	DefaultVerdict Verdict
	// AllowUntagged admits packets without a BorderPatrol tag (default
	// false: the paper drops them inside the perimeter).
	AllowUntagged bool
	// InitialContext provisions the device's context (network trust class,
	// posture) into the deployment's device-context source at construction,
	// so contextual risk rules in Doc score the very first flow against
	// known context instead of the unknown-device default. nil leaves the
	// device unprovisioned (the least-trusted posture) until it reports or
	// the source is updated via Deployment.Context().
	InitialContext *DeviceContext
}

// FlowConfig shapes the gateway's packet path: the per-flow verdict cache
// and the batch drain.
type FlowConfig struct {
	// CacheSize bounds the gateway's per-flow verdict cache: 0 selects
	// the default (65,536 flows), a negative value disables caching so
	// every packet pays the full decode+evaluate pipeline.
	CacheSize int
	// TTL is the verdict cache's idle timeout: a cached flow verdict
	// expires this much virtual time after the flow's last packet, so a
	// flow that keeps sending stays cached and one whose FIN was lost ages
	// out (0 selects the default of one minute). How long a verdict stays
	// valid is not this knob's business: policy, database and device-context
	// changes and time-of-day edges invalidate it exactly when they happen.
	TTL time.Duration
	// Workers sizes the gateway's per-core batch drain (0 selects
	// GOMAXPROCS).
	Workers int
}

// AuditConfig shapes the asynchronous enforcement audit pipeline.
type AuditConfig struct {
	// Writer receives one JSON line per enforcement decision (nil
	// disables file output; the in-memory audit tail is always kept).
	// Entries are recorded asynchronously: the enforcement path appends a
	// compact capture and a background drainer batch-encodes the JSON, so
	// lines reach the writer after the next flush (AuditTail and Close
	// both flush).
	Writer io.Writer
	// QueueCap bounds the pending (recorded but not yet encoded) audit
	// entries; beyond it entries are counted as dropped rather than
	// stalling enforcement (0 selects the audit package default).
	QueueCap int
}

// NetConfig shapes the simulated network and the provisioned device.
type NetConfig struct {
	// Faults arms the network with a deterministic wire-fault plan at
	// construction; nil leaves the wire perfect. SetFaults installs or
	// replaces a plan later.
	Faults *FaultPlan
	// DeviceAddr overrides the device network address.
	DeviceAddr netip.Addr
	// HardenedKernel enables the set-once IP_OPTIONS protection against
	// tag replay (§VII). Defaults to true.
	HardenedKernel *bool
}

// Config assembles a BorderPatrol deployment from its four concerns. The
// same sub-configs parameterize each gateway of a Fleet, so single-gateway
// and fleet deployments read the same way — one gateway is just the N=1
// special case.
type Config struct {
	Policy PolicyConfig
	Flow   FlowConfig
	Audit  AuditConfig
	Net    NetConfig
}

// DeploymentConfig is the original flat configuration.
//
// Deprecated: use Config, which groups the same knobs into
// PolicyConfig/FlowConfig/AuditConfig/NetConfig (reused per-gateway by
// FleetConfig). DeploymentConfig remains a converting shim — NewDeployment
// forwards to New — and every field keeps its exact old meaning.
type DeploymentConfig struct {
	// Policy is a policy document in the paper's grammar; empty means no
	// rules. Mutually exclusive with PolicySource.
	Policy string
	// PolicySource feeds the policy engine from an external backend.
	PolicySource PolicySource
	// PolicyPoll is the hot-reload poll interval when PolicySource is set.
	PolicyPoll time.Duration
	// PolicyMaxStale is the staleness deadline (0 disables it).
	PolicyMaxStale time.Duration
	// PolicyFailMode selects the degraded posture past PolicyMaxStale.
	PolicyFailMode FailMode
	// Faults arms the network with a wire-fault plan at construction.
	Faults *FaultPlan
	// DefaultVerdict applies when no rule is decisive.
	DefaultVerdict Verdict
	// AllowUntagged admits packets without a BorderPatrol tag.
	AllowUntagged bool
	// HardenedKernel enables the set-once IP_OPTIONS protection.
	HardenedKernel *bool
	// FlowCacheSize bounds the per-flow verdict cache.
	FlowCacheSize int
	// FlowTTL expires cached flow verdicts idle for this long.
	FlowTTL time.Duration
	// GatewayWorkers sizes the gateway's batch drain.
	GatewayWorkers int
	// DeviceAddr overrides the device network address.
	DeviceAddr netip.Addr
	// AuditWriter receives one JSON line per enforcement decision.
	AuditWriter io.Writer
	// AuditQueueCap bounds the pending audit entries.
	AuditQueueCap int
}

// Config converts the flat legacy form into the grouped Config. The
// mapping is total: every DeploymentConfig field lands in exactly one
// sub-config, so NewDeployment(old) ≡ New(old.Config()).
func (c DeploymentConfig) Config() Config {
	return Config{
		Policy: PolicyConfig{
			Doc:            c.Policy,
			Source:         c.PolicySource,
			Poll:           c.PolicyPoll,
			MaxStale:       c.PolicyMaxStale,
			FailMode:       c.PolicyFailMode,
			DefaultVerdict: c.DefaultVerdict,
			AllowUntagged:  c.AllowUntagged,
		},
		Flow: FlowConfig{
			CacheSize: c.FlowCacheSize,
			TTL:       c.FlowTTL,
			Workers:   c.GatewayWorkers,
		},
		Audit: AuditConfig{
			Writer:   c.AuditWriter,
			QueueCap: c.AuditQueueCap,
		},
		Net: NetConfig{
			Faults:         c.Faults,
			DeviceAddr:     c.DeviceAddr,
			HardenedKernel: c.HardenedKernel,
		},
	}
}

// NewDeployment provisions a deployment from the legacy flat config.
//
// Deprecated: use New with the grouped Config.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	return New(cfg.Config())
}
