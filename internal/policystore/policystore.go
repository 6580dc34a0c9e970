// Package policystore feeds BorderPatrol's compiled policy engine from
// pluggable backends, realizing the paper's central-reconfiguration design
// goal (§IV): administrators update policies at the gateway — a file an
// operator edits, an HTTP endpoint a fleet controller serves, a static
// inline document, or an in-process fleet Hub — and the running
// deployment picks the change up without restarting or stalling traffic.
//
// A Source produces candidate policy documents with a version token. The
// Store's one reload loop polls its Source (file stat memo, HTTP
// conditional GET), or parks a blocking watch when the Source is a
// Watcher (the Hub). It compiles each changed candidate off the
// enforcement hot path (policy.Compile), and publishes it with
// policy.Engine.Publish — an atomic pointer swap whose generation bump
// self-invalidates every cached flow verdict (see internal/flowtable).
// Packets therefore never observe a torn rule set: each evaluation sees
// exactly one compiled snapshot, either wholly-old or wholly-new.
//
// # Last-good semantics
//
// A candidate that fails to fetch, parse, or compile is rejected in its
// entirety: the engine keeps serving the last successfully applied rule
// set, the failure is counted, and the error is exposed through LastError.
// A broken push can therefore never take enforcement down — the paper's
// fail-safe posture for the enforcement point.
package policystore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

// FailMode selects what the store does when the policy backend has been
// unreachable (or serving rejects) for longer than Config.MaxStale: the
// graceful-degradation half of the paper's fail-safe posture. The choice is
// deliberate and deployment-specific — an enforcement point fronting
// hostile BYOD traffic wants FailClosed (deny must survive a starved
// control plane), while an availability-first deployment may prefer
// FailOpen or the historical FailStatic.
type FailMode int

// Fail modes.
const (
	// FailStatic keeps serving the last-good rule set indefinitely — the
	// pre-staleness behaviour, and the default.
	FailStatic FailMode = iota
	// FailOpen allows all evaluated traffic once the last-good policy is
	// older than MaxStale. Structural drops (untagged packets, unknown
	// apps, malformed tags) still apply — only the rule verdict degrades.
	FailOpen
	// FailClosed denies every evaluated packet once the last-good policy
	// is older than MaxStale: no fault or outage sequence can convert a
	// would-be deny into a delivery.
	FailClosed
)

// String names the mode.
func (m FailMode) String() string {
	switch m {
	case FailStatic:
		return "static"
	case FailOpen:
		return "fail-open"
	case FailClosed:
		return "fail-closed"
	default:
		return fmt.Sprintf("failmode(%d)", int(m))
	}
}

// ParseFailMode parses a fail-mode name (Policy.FailMode, -fail-mode).
func ParseFailMode(s string) (FailMode, error) {
	switch s {
	case "", "static":
		return FailStatic, nil
	case "open", "fail-open":
		return FailOpen, nil
	case "closed", "fail-closed":
		return FailClosed, nil
	}
	return 0, fmt.Errorf("Policy.FailMode %q is unknown (want static, open or closed)", s)
}

// Candidate is one policy document fetched from a backend.
type Candidate struct {
	// Doc is the policy document text (the paper's §IV-B grammar).
	Doc string
	// Version identifies the revision: a content hash for file and static
	// backends, the ETag for HTTP. The Store only applies a candidate whose
	// Version differs from the active one, and only advances the active
	// version after a successful apply.
	Version string
}

// Source supplies candidate policy documents to a Store. Implementations
// may keep per-backend state for conditional fetches (stat memos, ETags);
// a Source instance belongs to exactly one Store, which serializes Fetch
// calls — implementations need not be safe for concurrent use.
type Source interface {
	// Fetch returns the current candidate. prev is the Version of the last
	// successfully applied candidate ("" before the first apply); backends
	// use it for conditional fetches and report unchanged=true (with a zero
	// Candidate) when the document cannot have changed.
	Fetch(prev string) (c Candidate, unchanged bool, err error)
	// String describes the backend for logs ("static",
	// "file:/etc/bp/policy.bp", an URL).
	String() string
}

// contentVersion derives a version token from document bytes.
func contentVersion(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:8])
}

// Config assembles a Store.
type Config struct {
	// Source supplies candidate documents. Required.
	Source Source
	// Engine receives each compiled rule set via Publish. Required.
	Engine *policy.Engine
	// Poll is the background reload interval; <= 0 disables the reload
	// loop (Reload can still be called manually). A Watcher source parks
	// a blocking watch instead of polling, and uses Poll only as the
	// backoff base after a failed round.
	Poll time.Duration
	// WatchTimeout bounds each blocking watch round for Sources that
	// implement Watcher (default 30s). A round that times out counts as a
	// healthy unchanged cycle — an idle fleet holds its staleness deadline
	// open on watch timeouts alone.
	WatchTimeout time.Duration
	// MaxStale is the staleness deadline: when the last successful cycle
	// (applied or unchanged) is older than this, the store degrades the
	// engine per FailMode. Zero disables staleness tracking's degradation
	// (LastGoodAge is still reported).
	MaxStale time.Duration
	// FailMode selects the degraded posture past MaxStale. New requires
	// open or closed with a MaxStale and the default FailStatic (keep
	// serving last-good forever) without one.
	FailMode FailMode
	// Now supplies the staleness time source. Nil uses wall time since the
	// store was built; virtual-time harnesses (the soak experiment) wire
	// the simulation clock so hours of outage cost microseconds.
	Now func() time.Duration
}

// Store keeps a policy engine hot from a Source: validation and
// compilation happen on the store's goroutine (or the Reload caller's),
// never on the enforcement path, and the swap itself is the engine's
// atomic pointer exchange.
type Store struct {
	cfg Config

	// reloadMu serializes reload cycles (manual Reload vs the loop), so
	// two concurrent fetches can never apply out of order.
	reloadMu sync.Mutex

	mu         sync.Mutex // guards version, ruleCount, lastErr, lastGoodAt, degraded
	version    string
	ruleCount  int
	lastErr    string
	lastGoodAt time.Duration
	degraded   bool

	start time.Time // epoch for the default Now

	// Every reload cycle ends in exactly one of applied (including the
	// initial Load; each bumps the engine generation once), unchanged or
	// failures (a rejected fetch, parse or compile: last-good rules keep
	// serving).
	applied, unchanged, failures atomic.Uint64
	// degradedEnters counts trips of the staleness deadline into FailMode.
	degradedEnters atomic.Uint64
	// watchRounds counts completed watch rounds (applies, changes for other
	// shards, and timeouts alike).
	watchRounds atomic.Uint64

	// swapLatency times successful applies end to end: fetch through the
	// engine's atomic swap. All on the reload goroutine, never on traffic.
	swapLatency *metrics.Histogram

	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	startOne,
	stopOne sync.Once
}

// New builds a Store. No fetch happens yet: call Load for a synchronous
// initial load (recommended — a deployment should fail fast on a broken
// initial policy), then Start for background hot reload.
func New(cfg Config) (*Store, error) {
	if cfg.Source == nil || cfg.Engine == nil {
		return nil, errors.New("a policy store needs Policy.Source and an engine to publish to")
	}
	// The fail posture, judged here alone: FailStatic is the posture of a
	// store without a deadline, and open or closed need one to degrade at.
	switch {
	case cfg.FailMode == FailStatic && cfg.MaxStale != 0:
		return nil, fmt.Errorf("Policy.MaxStale %v is a staleness deadline and needs Policy.FailMode open or closed: static never degrades", cfg.MaxStale)
	case cfg.FailMode != FailStatic && cfg.MaxStale <= 0:
		return nil, fmt.Errorf("Policy.FailMode %v needs a positive staleness deadline in Policy.MaxStale", cfg.FailMode)
	}
	return &Store{
		cfg:         cfg,
		start:       time.Now(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		swapLatency: metrics.NewHistogram(),
	}, nil
}

// now reads the staleness time source.
func (s *Store) now() time.Duration {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Since(s.start)
}

// Load performs the initial synchronous fetch+compile+swap. Unlike later
// cycles there is no last-good rule set to fall back to, so the caller
// decides whether a failure is fatal (deployments treat it so).
func (s *Store) Load() error {
	_, err := s.Reload()
	return err
}

// Reload runs one reload cycle: fetch, and — if the document changed —
// parse, compile, and atomically swap. Returns whether a new rule set was
// applied. On error the last-good rules keep serving and the failure is
// counted. Safe to call concurrently with the reload loop and with traffic.
func (s *Store) Reload() (applied bool, err error) {
	return s.reloadWith(s.cfg.Source.Fetch, false)
}

// reloadWith is Reload with a pluggable fetch step: Source.Fetch, or a
// blocking Watcher.Watch round (parked=true, so the hold time spent
// waiting for a change is excluded from the swap-latency histogram).
// Everything downstream of the fetch — parse, compile, swap, accounting,
// staleness — is identical on both paths.
func (s *Store) reloadWith(fetch func(prev string) (Candidate, bool, error), parked bool) (applied bool, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	cycleStart := time.Now()
	s.mu.Lock()
	prev := s.version
	s.mu.Unlock()

	c, unchanged, err := fetch(prev)
	if parked {
		cycleStart = time.Now()
	}
	if err != nil {
		s.fail(err)
		s.CheckStale()
		return false, err
	}
	if unchanged {
		s.unchanged.Add(1)
		s.markGood()
		return false, nil
	}
	// The candidate compiles whole before anything is published, so a
	// rejected one leaves the last-good compiled set serving.
	set, err := policy.Compile(c.Doc)
	if err != nil {
		err = fmt.Errorf("policystore: %s: candidate %s rejected: %w", s.cfg.Source, c.Version, err)
		s.fail(err)
		s.CheckStale()
		return false, err
	}
	s.cfg.Engine.Publish(set)
	s.mu.Lock()
	s.version = c.Version
	s.ruleCount = set.Len()
	s.lastErr = ""
	s.mu.Unlock()
	s.applied.Add(1)
	s.swapLatency.Record(time.Since(cycleStart).Nanoseconds())
	s.markGood()
	return true, nil
}

// fail records a rejected cycle.
func (s *Store) fail(err error) {
	s.failures.Add(1)
	s.mu.Lock()
	s.lastErr = err.Error()
	s.mu.Unlock()
}

// markGood records a successful cycle (applied or unchanged) and lifts any
// staleness degradation, since the backend just answered.
func (s *Store) markGood() {
	s.mu.Lock()
	s.lastGoodAt = s.now()
	s.mu.Unlock()
	s.CheckStale()
}

// CheckStale compares the last-good age against MaxStale and transitions
// the engine in or out of degraded mode per FailMode, reporting whether the
// store is currently degraded. Reload calls it after every cycle; harnesses
// with a virtual clock (or deployments that want staleness enforced even
// when the reload loop is wedged) may also call it directly — it is cheap
// and idempotent.
func (s *Store) CheckStale() bool {
	if s.cfg.MaxStale <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	stale := s.now()-s.lastGoodAt > s.cfg.MaxStale
	switch {
	case stale && !s.degraded:
		s.degraded = true
		s.degradedEnters.Add(1)
		v := policy.VerdictDrop
		if s.cfg.FailMode == FailOpen {
			v = policy.VerdictAllow
		}
		// SetDegraded only validates the verdict, which is correct by
		// construction here.
		_ = s.cfg.Engine.SetDegraded(v, fmt.Sprintf(
			"%s: policy stale beyond %v (backend %s)", s.cfg.FailMode, s.cfg.MaxStale, s.cfg.Source))
	case !stale && s.degraded:
		s.degraded = false
		s.cfg.Engine.ClearDegraded()
	}
	return s.degraded
}

// LastGoodAge reports how long ago the last successful cycle completed.
// Before any successful cycle it is the store's age.
func (s *Store) LastGoodAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now() - s.lastGoodAt
}

// Degraded reports whether the staleness deadline has tripped.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Start launches the background reload loop (a no-op when Config.Poll
// <= 0).
func (s *Store) Start() {
	if s.cfg.Poll <= 0 {
		return
	}
	s.startOne.Do(func() {
		s.started.Store(true)
		go s.run()
	})
}

// jitter spreads an interval to ±20%, so a fleet of pollers whose backend
// just recovered (or just died) does not re-synchronize into a thundering
// herd of simultaneous fetches.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	// Uniform in [0.8d, 1.2d).
	return d*4/5 + time.Duration(rand.Int64N(int64(d)*2/5+1))
}

const (
	// defaultWatchTimeout bounds a watch round when Config.WatchTimeout is
	// unset.
	defaultWatchTimeout = 30 * time.Second
	// maxBackoff caps the wait after consecutive failed rounds (never
	// below Poll).
	maxBackoff = time.Minute
)

// run is the store's reload loop. Each round is a blocking Watch when the
// Source is a Watcher — a fleet-wide change wakes the store at once, and
// an idle round costs one parked wait per WatchTimeout — and a plain
// Fetch otherwise. A watch round that succeeded re-parks at once; a fetch
// round, or any failed round, is followed by a jittered wait of Poll,
// doubled after each consecutive failure up to maxBackoff and reset by
// the next clean round.
func (s *Store) run() {
	defer close(s.done)
	fetch := s.cfg.Source.Fetch
	w, watch := s.cfg.Source.(Watcher)
	if watch {
		timeout := s.cfg.WatchTimeout
		if timeout <= 0 {
			timeout = defaultWatchTimeout
		}
		fetch = func(prev string) (Candidate, bool, error) { return w.Watch(prev, timeout, s.stop) }
	}
	wait := s.cfg.Poll
	rest := !watch // Load has just fetched; a poller waits before its first round
	for {
		if rest {
			timer := time.NewTimer(jitter(wait))
			select {
			case <-s.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		select {
		case <-s.stop:
			return
		default:
		}
		_, err := s.reloadWith(fetch, watch)
		if err != nil {
			wait = min(wait*2, max(maxBackoff, s.cfg.Poll))
		} else {
			wait = s.cfg.Poll
			if watch {
				s.watchRounds.Add(1)
			}
		}
		rest = err != nil || !watch
	}
}

// Close stops the reload loop and waits for it to exit. Idempotent; the
// engine keeps serving the last applied rules.
func (s *Store) Close() {
	s.stopOne.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// RegisterMetrics attaches the store's reload counters, the swap-latency
// histogram, and the staleness-age gauge to a registry. The staleness age
// is the fleet-health signal a scraper alerts on: it climbs while the
// backend starves and snaps back on the next good cycle.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	const cycleHelp = "Policy reload cycles by outcome."
	r.CounterFunc("bp_policy_reloads_total", cycleHelp, s.applied.Load, metrics.L("outcome", "applied"))
	r.CounterFunc("bp_policy_reloads_total", cycleHelp, s.unchanged.Load, metrics.L("outcome", "unchanged"))
	r.CounterFunc("bp_policy_reloads_total", cycleHelp, s.failures.Load, metrics.L("outcome", "failed"))
	r.CounterFunc("bp_policy_degraded_enters_total",
		"Times the store tripped its staleness deadline into the configured fail mode.",
		s.degradedEnters.Load)
	r.CounterFunc("bp_policy_watch_rounds_total",
		"Completed blocking watch rounds (applies, other-shard revisions, and idle timeouts).",
		s.watchRounds.Load)
	r.GaugeFunc("bp_policy_staleness_age_seconds",
		"Age of the last successful reload cycle.",
		func() float64 { return s.LastGoodAge().Seconds() })
	r.GaugeFunc("bp_policy_degraded",
		"1 while the staleness deadline has the engine in its degraded posture.",
		func() float64 {
			if s.Degraded() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("bp_policy_rules", "Active compiled rule count.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.ruleCount)
		})
	r.RegisterHistogram("bp_policy_swap_latency_ns",
		"Successful reload latency, fetch through atomic swap.", s.swapLatency)
}

// Version returns the active policy revision ("" before the first load).
func (s *Store) Version() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// LastError describes the most recent rejected cycle ("" after a clean one).
func (s *Store) LastError() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}
