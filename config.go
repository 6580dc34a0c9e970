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
	// Poll is the hot-reload poll interval; it requires Source. Zero
	// disables background polling (ReloadPolicy still works). Successive
	// polls are jittered ±20% so fleets don't thundering-herd the backend,
	// and a failed poll doubles the wait (up to a minute). NewFleet
	// rejects it: a fleet member's store watches the fleet's hub instead.
	Poll time.Duration
	// MaxStale is the staleness deadline; it requires Source and a
	// FailMode other than FailStatic. When the store has not seen a healthy
	// reload cycle for longer than this (in the network's virtual time), a
	// failed cycle degrades the engine according to FailMode. Zero disables
	// the deadline.
	MaxStale time.Duration
	// FailMode selects the degraded posture past MaxStale: FailOpen admits
	// everything, FailClosed denies everything; either requires MaxStale.
	// Recovery is automatic on the next healthy reload. FailStatic, the
	// default, keeps the last-good rules serving however stale, and so
	// takes no MaxStale.
	FailMode FailMode
	// DefaultVerdict applies when no rule is decisive; zero value means
	// VerdictAllow.
	DefaultVerdict Verdict
	// AllowUntagged admits packets without a BorderPatrol tag (default
	// false: the paper drops them inside the perimeter).
	AllowUntagged bool
}

// FlowConfig shapes the gateway's packet path: the per-flow verdict cache
// (65,536 flows, with an admission guard against unique-flow floods) and
// the batch drain.
type FlowConfig struct {
	// TTL is the verdict cache's idle timeout: a cached flow verdict
	// expires this much virtual time after the flow's last packet, so a
	// flow that keeps sending stays cached and one whose FIN was lost ages
	// out (0 selects the default of one minute; New rejects a negative
	// TTL, which would never expire one). How long a verdict stays
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
}

// NetConfig shapes the simulated network and the provisioned device, whose
// kernel always carries the set-once IP_OPTIONS hardening against tag
// replay (§VII).
type NetConfig struct {
	// Faults arms the network with a deterministic wire-fault plan at
	// construction; nil leaves the wire perfect. SetFaults installs or
	// replaces a plan later.
	Faults *FaultPlan
	// DeviceAddr overrides the device network address.
	DeviceAddr netip.Addr
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
