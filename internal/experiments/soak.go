package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/refmodel"
	"borderpatrol/internal/trackers"
)

// This file implements the chaos/soak harness: hours of virtual-time churn
// over a faulty wire — probabilistic drop/duplicate/reorder/corrupt/
// truncate/delay, policy swaps and rejected candidates mid-flood, policy
// backend outages past the staleness deadline, and full gateway restarts —
// with every delivery checked against an independently computed reference
// verdict. The run asserts the properties a production gateway must keep
// under all of it:
//
//   - Fail-safe: no fault sequence ever converts a deny verdict into a
//     delivered packet, and in fail-closed degradation nothing at all is
//     delivered.
//   - No leaks: flowtable and conntrack return to empty after the final GC
//     sweep, goroutine count returns to the pre-run level, and heap growth
//     stays bounded.
//   - Cold-restart correctness: after a gateway restart discards all
//     per-flow state, re-resolved verdicts still match the reference.

// SoakConfig parameterizes the soak run.
type SoakConfig struct {
	// Apps sizes the generated corpus (default 8).
	Apps int
	// Packets is the minimum number of packets pushed onto the wire
	// (default 1_050_000).
	Packets int
	// Burst is the DeliverBatch burst size (default 512).
	Burst int
	// Swaps is how many policy swaps the run performs (default 60); every
	// tenth candidate is malformed and must be rejected with last-good
	// kept serving.
	Swaps int
	// Restarts is how many gateway crash/restart cycles to inject
	// (default 3).
	Restarts int
	// Outages is how many policy-backend outages to inject, each held past
	// the staleness deadline so the store degrades (default 2).
	Outages int
	// FailMode is the degraded posture during outages (default
	// FailClosed — the paper's deny-must-survive argument).
	FailMode policystore.FailMode
	// Faults overrides the default fault plan (1% each of drop, duplicate,
	// reorder, corrupt, truncate, delay) when any probability is set.
	Faults netsim.FaultPlan
	// Seed drives corpus generation and the fault PRNG (default 2019).
	Seed int64
	// Dir hosts the hot-reloaded policy file (default: fresh temp dir).
	Dir string
	// SnapshotEvery takes an in-run resource snapshot every N epochs
	// (0 = automatic: epochs/16, at least every epoch), feeding the
	// leak-trend detection in Check.
	SnapshotEvery int
}

// DefaultSoakConfig returns the acceptance-grade configuration: ≥1M
// packets at 1% per-packet fault rates, ≥50 swaps, ≥2 restarts.
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{
		Apps: 8, Packets: 1_050_000, Burst: 512,
		Swaps: 60, Restarts: 3, Outages: 2,
		FailMode: policystore.FailClosed, Seed: 2019,
	}
}

// Soak virtual-time parameters.
const (
	// soakEpochStep is the virtual time advanced per epoch; hundreds of
	// epochs make the run span hours of virtual time.
	soakEpochStep = 30 * time.Second
	// soakFlowTTL bounds flow-verdict cache entries.
	soakFlowTTL = 90 * time.Second
	// soakConnIdle is the conntrack idle-sweep deadline.
	soakConnIdle = 60 * time.Second
	// soakMaxStale is the policy staleness deadline; outages hold the
	// backend down past it.
	soakMaxStale = 2 * time.Minute
	// soakHeapBound caps allowed heap growth across the run.
	soakHeapBound = 128 << 20
)

// SoakSnapshot is one in-run resource reading, taken at an epoch close
// after that epoch's GC sweep — the soak's own scrape. A healthy run's
// series oscillates with the churn; a leak shows up as a monotone climb
// long before the end-state assertions would catch an exhausted table.
type SoakSnapshot struct {
	// Epoch is the 1-based epoch the snapshot closed.
	Epoch int
	// VirtualTime is the virtual clock reading relative to the run start.
	VirtualTime time.Duration
	// Packets is the cumulative packet count at the snapshot.
	Packets int
	// ConnsOpen and FlowsLive are the post-sweep table sizes.
	ConnsOpen int
	FlowsLive int
	// HeapBytes is the post-GC live heap.
	HeapBytes int64
	// AuditPending is the audit queue depth.
	AuditPending uint64
}

// SoakResult reports the run. Check returns the first violated invariant.
type SoakResult struct {
	// Packets is how many packets were pushed onto the wire; Delivered and
	// Dropped partition their fates.
	Packets   int
	Delivered int
	Dropped   int
	// VirtualTime is the total virtual time the run spanned.
	VirtualTime time.Duration
	// Epochs is how many churn epochs ran.
	Epochs int

	// Swaps counts applied policy swaps; RejectedSwaps malformed
	// candidates refused with last-good kept serving.
	Swaps         uint64
	RejectedSwaps uint64
	// Restarts counts gateway crash/restart cycles; Outages the policy
	// backend outages held past the staleness deadline.
	Restarts uint64
	Outages  int
	// DegradedEnters counts staleness-degradation transitions (one per
	// outage in a healthy run); DegradedDrops the packets the degraded
	// engine refused.
	DegradedEnters uint64
	DegradedDrops  uint64

	// FailSafeViolations counts packets delivered although the reference
	// verdict (or the active fail-closed degradation) said deny. The
	// soak's headline claim is that this is always zero.
	FailSafeViolations int
	// VerdictMismatches counts enforced verdicts that disagreed with the
	// reference verdict for the active rule set outside degraded windows —
	// also always zero (covers cold-restart re-resolution).
	VerdictMismatches int
	// SpuriousResponseDrops counts server responses the gateway's
	// response-direction continuity check refused. The soak injects no
	// crafted responses, so any drop here is a false positive — always
	// zero, even across restarts (the tracker re-adopts mid-stream).
	SpuriousResponseDrops int

	// ConnsLeaked and FlowsLeaked are tracked connections / cached flow
	// verdicts still alive after the final idle sweep — both must be zero.
	ConnsLeaked int
	FlowsLeaked int
	// GoroutinesLeaked is the goroutine-count delta after shutdown.
	GoroutinesLeaked int
	// HeapGrowth is the post-GC heap delta across the run.
	HeapGrowth int64
	// GCConnsReclaimed / GCFlowsReclaimed count what the periodic idle
	// sweeps freed (half-open connections from lost FINs, expired flows).
	GCConnsReclaimed int
	GCFlowsReclaimed int

	// Snapshots are the periodic in-run resource readings; Check runs
	// leak-trend detection over them.
	Snapshots []SoakSnapshot

	// Faults counts the injected wire faults by stage, as labelled on
	// bp_netsim_faults_total ("drop", "duplicate", "reorder", "delay",
	// "corrupt", "truncate").
	Faults map[string]uint64
	// ResponsesChecked, ResponseAdopts and ResponseSeqDrops are the
	// response-direction check's checked, adopted and seq_drop outcomes over
	// the whole run, restarts included; DupCloses the tracker's redundant
	// teardowns (duplicated FINs).
	ResponsesChecked, ResponseAdopts, ResponseSeqDrops, DupCloses uint64
}

// String renders a paper-style summary.
func (r *SoakResult) String() string {
	return fmt.Sprintf(
		"soak: %d packets over %v virtual (%d epochs): %d delivered / %d dropped; "+
			"faults %d drop %d dup %d reorder %d corrupt %d truncate; "+
			"responses %d checked (%d adopted); %d duplicate closes; "+
			"%d swaps + %d rejected, %d restarts, %d outages (%d degraded enters); "+
			"fail-safe violations: %d; verdict mismatches: %d; "+
			"leaks: %d conns, %d flows, %d goroutines; heap Δ%d KiB",
		r.Packets, r.VirtualTime.Round(time.Second), r.Epochs, r.Delivered, r.Dropped,
		r.Faults["drop"], r.Faults["duplicate"], r.Faults["reorder"],
		r.Faults["corrupt"], r.Faults["truncate"],
		r.ResponsesChecked, r.ResponseAdopts, r.DupCloses,
		r.Swaps, r.RejectedSwaps, r.Restarts, r.Outages, r.DegradedEnters,
		r.FailSafeViolations, r.VerdictMismatches,
		r.ConnsLeaked, r.FlowsLeaked, r.GoroutinesLeaked, r.HeapGrowth/1024)
}

// Check validates every soak invariant, returning the first violation.
func (r *SoakResult) Check() error {
	switch {
	case r.FailSafeViolations != 0:
		return fmt.Errorf("soak: %d fail-safe violations (deny delivered)", r.FailSafeViolations)
	case r.VerdictMismatches != 0:
		return fmt.Errorf("soak: %d verdicts diverged from reference", r.VerdictMismatches)
	case r.SpuriousResponseDrops != 0:
		return fmt.Errorf("soak: %d clean responses dropped as seq injections", r.SpuriousResponseDrops)
	case r.ResponsesChecked == 0:
		return fmt.Errorf("soak: response-direction continuity check never exercised")
	case r.ResponseSeqDrops != 0:
		return fmt.Errorf("soak: bp_conntrack_responses_total{outcome=\"seq_drop\"} = %d in clean traffic", r.ResponseSeqDrops)
	case r.ConnsLeaked != 0:
		return fmt.Errorf("soak: %d conntrack entries leaked", r.ConnsLeaked)
	case r.FlowsLeaked != 0:
		return fmt.Errorf("soak: %d flowtable entries leaked", r.FlowsLeaked)
	case r.GoroutinesLeaked > 0:
		return fmt.Errorf("soak: %d goroutines leaked", r.GoroutinesLeaked)
	case r.HeapGrowth > soakHeapBound:
		return fmt.Errorf("soak: heap grew %d bytes (bound %d)", r.HeapGrowth, int64(soakHeapBound))
	case r.DegradedEnters < uint64(r.Outages):
		return fmt.Errorf("soak: %d outages but only %d degraded transitions", r.Outages, r.DegradedEnters)
	}
	// Trend detection over the in-run snapshots: a table or the heap
	// climbing monotonically across the run is a leak even if the final
	// drain happened to pull the end state back under the bounds.
	conns := make([]int64, len(r.Snapshots))
	flows := make([]int64, len(r.Snapshots))
	heap := make([]int64, len(r.Snapshots))
	for i, s := range r.Snapshots {
		conns[i] = int64(s.ConnsOpen)
		flows[i] = int64(s.FlowsLive)
		heap[i] = s.HeapBytes
	}
	if leakTrend(conns, 64) {
		return fmt.Errorf("soak: conntrack size trends up across %d snapshots (%d -> %d)",
			len(conns), conns[0], conns[len(conns)-1])
	}
	if leakTrend(flows, 64) {
		return fmt.Errorf("soak: flowtable size trends up across %d snapshots (%d -> %d)",
			len(flows), flows[0], flows[len(flows)-1])
	}
	if leakTrend(heap, 8<<20) {
		return fmt.Errorf("soak: heap trends up across %d snapshots (%d -> %d bytes)",
			len(heap), heap[0], heap[len(heap)-1])
	}
	return nil
}

// leakTrend reports whether a resource series exhibits monotone growth: a
// leak signature, as opposed to the oscillation of healthy churn. It
// requires enough samples to be meaningful (≥10), near-monotone steps
// (≥90% non-decreasing, ≥50% strictly increasing), and material growth
// (last > 1.5×first and last−first > minAbs) — so a series that climbs to
// a plateau, oscillates, or grows by noise does not trip it.
func leakTrend(series []int64, minAbs int64) bool {
	if len(series) < 10 {
		return false
	}
	first, last := series[0], series[len(series)-1]
	if last-first <= minAbs || float64(last) <= 1.5*float64(first) {
		return false
	}
	nondec, strict := 0, 0
	for i := 1; i < len(series); i++ {
		if series[i] >= series[i-1] {
			nondec++
		}
		if series[i] > series[i-1] {
			strict++
		}
	}
	steps := len(series) - 1
	return nondec*10 >= steps*9 && strict*2 >= steps
}

// heapInUse reports post-GC live heap bytes.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// RunSoak builds a fully faulted testbed and churns it for hours of
// virtual time: device cohorts joining and leaving (epochs rotate which
// apps' traffic is live), policy swaps and malformed candidates mid-flood,
// backend outages that trip the staleness deadline, gateway restarts that
// wipe all per-flow state, and periodic idle-GC sweeps. Every delivered
// packet's verdict is checked against an independently computed reference.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	def := DefaultSoakConfig()
	if cfg.Apps <= 0 {
		cfg.Apps = def.Apps
	}
	if cfg.Packets <= 0 {
		cfg.Packets = def.Packets
	}
	if cfg.Burst <= 0 {
		cfg.Burst = def.Burst
	}
	if cfg.Swaps <= 0 {
		cfg.Swaps = def.Swaps
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = def.Restarts
	}
	if cfg.Outages <= 0 {
		cfg.Outages = def.Outages
	}
	if cfg.FailMode == policystore.FailStatic {
		cfg.FailMode = def.FailMode
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	zeroPlan := netsim.FaultPlan{}
	if cfg.Faults == zeroPlan {
		cfg.Faults = netsim.FaultPlan{
			Drop: 0.01, Duplicate: 0.01, Reorder: 0.01,
			Corrupt: 0.01, Truncate: 0.01,
			Delay: 0.01, DelayMin: time.Millisecond, DelayMax: 20 * time.Millisecond,
		}
	}
	cfg.Faults.Seed = uint64(cfg.Seed)
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "bp-soak-*")
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	goroutinesStart := runtime.NumGoroutine()
	heapStart := heapInUse()

	gen := apkgen.DefaultConfig()
	gen.Apps = cfg.Apps
	gen.Seed = cfg.Seed
	corpus, err := apkgen.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}

	// Rule sets A (deny half the tracker catalog) and B (deny all of it):
	// the same divergent pair the reload experiment uses, so swaps flip
	// real verdicts mid-flood.
	catalog := trackers.Catalog()
	var rulesA, rulesB []policy.Rule
	for i, lib := range catalog {
		rule := policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: lib.Package}
		rulesB = append(rulesB, rule)
		if i%2 == 0 {
			rulesA = append(rulesA, rule)
		}
	}
	docs := [2]string{policy.FormatPolicy(rulesA), policy.FormatPolicy(rulesB)}

	policyPath := filepath.Join(cfg.Dir, "policy.bp")
	if err := os.WriteFile(policyPath, []byte(docs[0]), 0o644); err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	tb, err := NewTestbed(corpus, TestbedConfig{
		EnforcementOn:     true,
		PolicySource:      policystore.NewFileSource(policyPath),
		PolicyMaxStale:    soakMaxStale,
		PolicyFailMode:    cfg.FailMode,
		PolicyVirtualTime: true,
		FlowTTL:           soakFlowTTL,
		Faults:            &cfg.Faults,
		DisableCapture:    true,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	// The traffic pool: every functionality of every app invoked once,
	// kept per app so epochs can rotate device cohorts.
	perApp := make([][]*ipv4.Packet, len(corpus))
	var pool []*ipv4.Packet
	poolApp := make([]int, 0) // pool index → app index
	for i, ga := range corpus {
		for _, fn := range ga.Functionalities {
			res, err := tb.Apps[i].Invoke(fn.Name)
			if err != nil {
				return nil, fmt.Errorf("soak: invoke %s/%s: %w", ga.APK.PackageName, fn.Name, err)
			}
			perApp[i] = append(perApp[i], res.Packets...)
		}
		for range perApp[i] {
			poolApp = append(poolApp, i)
		}
		pool = append(pool, perApp[i]...)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("soak: corpus produced no packets")
	}

	// Reference verdicts under both rule sets from the reference model.
	// refDeny[s][i] is whether rule set s denies pool packet i.
	var refDeny [2][]bool
	for s, rules := range [2][]policy.Rule{rulesA, rulesB} {
		model := refmodel.Model{APKs: corpusAPKs(corpus), Rules: rules, Default: policy.VerdictAllow}
		refDeny[s] = make([]bool, len(pool))
		for i, pkt := range pool {
			refDeny[s][i] = model.Decide(pkt).Verdict == policy.VerdictDrop
		}
	}

	gw := tb.Network.Gateway
	res := &SoakResult{Outages: cfg.Outages}
	clockStart := tb.Network.Clock.Now()
	applied := metrics.L("outcome", "applied")
	appliedStart := tb.count("bp_policy_reloads_total", applied)

	// Epoch plan: enough epochs to push cfg.Packets, with swaps, restarts,
	// and outages spread across them.
	epochs := (cfg.Packets + len(pool) - 1) / len(pool)
	if epochs < cfg.Swaps {
		epochs = cfg.Swaps
	}
	swapEvery := epochs / cfg.Swaps
	if swapEvery < 1 {
		swapEvery = 1
	}
	restartEvery := epochs / (cfg.Restarts + 1)
	if restartEvery < 1 {
		restartEvery = 1
	}
	outageEvery := epochs / (cfg.Outages + 1)
	if outageEvery < 1 {
		outageEvery = 1
	}

	activeDoc := 0 // index into docs of the last successfully applied set
	swapsDone := 0
	degraded := false

	// In-run snapshot cadence: every N epochs (config override), default
	// ~16 over the planned run, at least every epoch — so even a smoke-size
	// run yields a series long enough for trend detection.
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = epochs / 16
		if snapEvery < 1 {
			snapEvery = 1
		}
	}

	// deliverChecked pushes one burst and scores outcomes against the
	// reference for the active rule set.
	deliverChecked := func(idxs []int) {
		burst := make([]*ipv4.Packet, len(idxs))
		for j, i := range idxs {
			burst[j] = pool[i]
		}
		out := tb.Network.DeliverBatch(burst)
		res.Packets += len(burst)
		for j, d := range out {
			i := idxs[j]
			if d.Delivered {
				res.Delivered++
			} else {
				res.Dropped++
			}
			deny := refDeny[activeDoc][i]
			switch {
			case degraded:
				// Fail-closed degradation: nothing may be delivered at all.
				if d.Delivered {
					res.FailSafeViolations++
				} else if d.Enforcement != nil {
					res.DegradedDrops++
				}
			case deny && d.Delivered:
				res.FailSafeViolations++
			case d.Enforcement != nil:
				got := d.Enforcement.Verdict == policy.VerdictDrop
				if got != deny {
					res.VerdictMismatches++
				}
			}
			if d.ResponseDropped {
				res.SpuriousResponseDrops++
			}
		}
	}

	// pump runs one epoch's traffic: the live cohort's packets in bursts.
	pump := func(live map[int]bool) {
		idxs := make([]int, 0, cfg.Burst)
		for i := range pool {
			if !live[poolApp[i]] {
				continue
			}
			idxs = append(idxs, i)
			if len(idxs) == cfg.Burst {
				deliverChecked(idxs)
				idxs = idxs[:0]
			}
		}
		if len(idxs) > 0 {
			deliverChecked(idxs)
		}
	}

	for epoch := 0; epoch < epochs || res.Packets < cfg.Packets; epoch++ {
		// Device churn: a rotating cohort of apps is live each epoch
		// (devices join and leave the BYOD fleet); at least half stay on
		// so every epoch has traffic.
		live := make(map[int]bool, len(corpus))
		for a := range corpus {
			live[a] = a%2 == 0 || (a+epoch)%3 != 0
		}
		pump(live)

		// The background poller's tick: one reload cycle per epoch keeps
		// the store's last-good age fresh while the backend is healthy, so
		// only deliberate outages can trip the staleness deadline.
		if _, err := tb.Policy.Reload(); err != nil {
			return nil, fmt.Errorf("soak: poll cycle: %w", err)
		}

		// Policy swap (every tenth candidate malformed and rejected).
		if swapsDone < cfg.Swaps && epoch%swapEvery == swapEvery-1 {
			swapsDone++
			if swapsDone%10 == 0 {
				if err := os.WriteFile(policyPath, []byte("{[deny][library \"torn\"]}\n"), 0o644); err != nil {
					return nil, fmt.Errorf("soak: %w", err)
				}
				if _, err := tb.Policy.Reload(); err == nil {
					return nil, fmt.Errorf("soak: malformed candidate was accepted")
				}
				// Last-good keeps serving (activeDoc unchanged); the bad
				// push is then rolled back, as an operator would on the
				// rejection alert — leaving it in place is the outage case
				// below, which must degrade instead.
				if err := os.WriteFile(policyPath, []byte(docs[activeDoc]), 0o644); err != nil {
					return nil, fmt.Errorf("soak: %w", err)
				}
			} else {
				next := 1 - activeDoc
				if err := os.WriteFile(policyPath, []byte(docs[next]), 0o644); err != nil {
					return nil, fmt.Errorf("soak: %w", err)
				}
				if _, err := tb.Policy.Reload(); err != nil {
					return nil, fmt.Errorf("soak: swap rejected: %w", err)
				}
				activeDoc = next
			}
		}

		// Gateway crash/restart: all per-flow state gone; the epochs that
		// follow re-resolve cold and the verdict checks prove correctness.
		if restartEvery > 0 && epoch > 0 && epoch%restartEvery == 0 &&
			gw.Restarts() < uint64(cfg.Restarts) {
			gw.Restart()
		}

		// Policy backend outage: the file disappears, virtual time runs
		// past the staleness deadline, and the store must degrade. All
		// traffic during the degraded window is checked above (fail-closed
		// delivers nothing).
		if outageEvery > 0 && epoch > 0 && epoch%outageEvery == 0 &&
			res.DegradedEnters < uint64(cfg.Outages) {
			if err := os.Remove(policyPath); err != nil {
				return nil, fmt.Errorf("soak: %w", err)
			}
			tb.Network.Clock.Advance(soakMaxStale + time.Second)
			if _, err := tb.Policy.Reload(); err == nil {
				return nil, fmt.Errorf("soak: fetch from removed backend succeeded")
			}
			if !tb.Policy.Degraded() {
				return nil, fmt.Errorf("soak: store did not degrade past MaxStale")
			}
			degraded = true
			res.DegradedEnters++
			pump(live) // degraded-window traffic: all denied under fail-closed

			// Recovery: the backend returns, the next cycle lifts
			// degradation and re-applies the active document.
			if err := os.WriteFile(policyPath, []byte(docs[activeDoc]), 0o644); err != nil {
				return nil, fmt.Errorf("soak: %w", err)
			}
			if _, err := tb.Policy.Reload(); err != nil {
				return nil, fmt.Errorf("soak: recovery reload: %w", err)
			}
			if tb.Policy.Degraded() {
				return nil, fmt.Errorf("soak: store still degraded after recovery")
			}
			degraded = false
		}

		// Epoch close: virtual time passes, idle GC sweeps reclaim
		// half-open connections (lost FINs) and expired flows.
		tb.Network.Clock.Advance(soakEpochStep)
		conns, flows := gw.GC(soakConnIdle)
		res.GCConnsReclaimed += conns
		res.GCFlowsReclaimed += flows
		res.Epochs++

		// In-run snapshot: post-sweep table sizes and post-GC heap, the
		// series Check's leak-trend detection runs over.
		if res.Epochs%snapEvery == 0 {
			res.Snapshots = append(res.Snapshots, SoakSnapshot{
				Epoch:        res.Epochs,
				VirtualTime:  tb.Network.Clock.Now() - clockStart,
				Packets:      res.Packets,
				ConnsOpen:    int(tb.count("bp_conntrack_connections", metrics.L("state", "open"))),
				FlowsLive:    int(tb.count("bp_flowtable_live")),
				HeapBytes:    heapInUse(),
				AuditPending: tb.count("bp_audit_queue_depth"),
			})
		}
	}

	// Final drain: everything idles out, then one sweep must leave both
	// tables empty — any surviving entry is a leak.
	tb.Network.Clock.Advance(soakFlowTTL + soakConnIdle + time.Second)
	conns, flows := gw.GC(soakConnIdle)
	res.GCConnsReclaimed += conns
	res.GCFlowsReclaimed += flows
	res.ConnsLeaked = int(tb.count("bp_conntrack_connections", metrics.L("state", "open")))
	res.FlowsLeaked = int(tb.count("bp_flowtable_live"))
	res.Swaps = tb.count("bp_policy_reloads_total", applied) - appliedStart
	// Failures = malformed candidates + one failed fetch per outage.
	res.RejectedSwaps = tb.count("bp_policy_reloads_total", metrics.L("outcome", "failed")) - res.DegradedEnters
	res.Restarts = gw.Restarts()
	res.Faults = tb.byLabel("bp_netsim_faults_total")
	outcome := func(o string) uint64 { return tb.count("bp_conntrack_responses_total", metrics.L("outcome", o)) }
	res.ResponsesChecked, res.ResponseAdopts, res.ResponseSeqDrops = outcome("checked"), outcome("adopted"), outcome("seq_drop")
	res.DupCloses = tb.count("bp_conntrack_transitions_total", metrics.L("kind", "dup_close"))
	res.VirtualTime = tb.Network.Clock.Now() - clockStart

	// Shutdown, then the hand-rolled goroutine-leak check: the audit
	// pipeline and any poller must be gone. A short settle loop absorbs
	// runtime-internal stragglers.
	if err := tb.Close(); err != nil {
		return nil, fmt.Errorf("soak: close: %w", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		res.GoroutinesLeaked = runtime.NumGoroutine() - goroutinesStart
		if res.GoroutinesLeaked <= 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.HeapGrowth = heapInUse() - heapStart
	return res, nil
}

// corpusAPKs lists a corpus's apps: what the reference model holds
// provisioned for a testbed built from it.
func corpusAPKs(corpus []*apkgen.App) []*dex.APK {
	apks := make([]*dex.APK, len(corpus))
	for i, ga := range corpus {
		apks[i] = ga.APK
	}
	return apks
}
