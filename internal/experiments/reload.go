package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/trackers"
)

// This file implements the reload-under-load experiment: the paper's
// central-reconfiguration design goal (§IV) stress-tested at packet rate.
// A policy store hot-swaps two rule sets through a file backend —
// periodically injecting malformed candidates — while workers saturate the
// enforcer's batched pipeline. Every verdict observed mid-swap must be
// consistent with either the outgoing or the incoming rule set; a verdict
// matching neither would mean a packet saw a torn (partially applied)
// policy, which the atomic compiled-snapshot swap and the flow cache's
// generation keying are designed to make impossible.

// ReloadConfig parameterizes the experiment.
type ReloadConfig struct {
	// Apps sizes the generated corpus (default 8).
	Apps int
	// Workers is the number of concurrent traffic generators (default 4).
	Workers int
	// Swaps is how many reload cycles the store runs mid-traffic
	// (default 150).
	Swaps int
	// MalformedEvery injects a malformed candidate every n-th cycle
	// (default 5; negative disables).
	MalformedEvery int
	// Seed drives corpus generation (default 2019).
	Seed int64
	// Dir hosts the hot-reloaded policy file (default: a fresh temp dir,
	// removed afterwards).
	Dir string
}

// DefaultReloadConfig returns the standard configuration.
func DefaultReloadConfig() ReloadConfig {
	return ReloadConfig{Apps: 8, Workers: 4, Swaps: 150, MalformedEvery: 5, Seed: 2019}
}

// ReloadResult reports the reload-under-load run.
type ReloadResult struct {
	// Packets is the size of the replayed traffic pool.
	Packets int
	// Processed counts packets enforced across all workers during churn.
	Processed uint64
	// DivergentPool is how many pool packets the two rule sets decide
	// differently — the packets that could expose a torn rule set.
	DivergentPool int
	// Swaps counts rule sets applied during the run (excluding the initial
	// load); RejectedSwaps counts malformed candidates that were refused
	// with the last-good rules kept serving.
	Swaps         uint64
	RejectedSwaps uint64
	// TornVerdicts counts verdicts consistent with neither rule set. The
	// experiment's claim is that this is always zero.
	TornVerdicts uint64
	// VerdictsOld / VerdictsNew split the divergent packets' observed
	// verdicts by which rule set produced them (both nonzero in a healthy
	// run: traffic raced both sides of many swaps).
	VerdictsOld, VerdictsNew uint64
	// GenerationDelta is how far the engine generation moved during churn;
	// the flow cache invalidates on every step, so this must equal Swaps
	// (exactly one bump per applied swap).
	GenerationDelta uint64
	// Version and Rules are the store's last-good policy after the run.
	Version string
	Rules   uint64
	// FlowHits and FlowStaleDrops read the flow cache; stale drops are
	// entries discarded because their generation predated a swap.
	FlowHits, FlowStaleDrops uint64
}

// String renders a paper-style summary.
func (r *ReloadResult) String() string {
	return fmt.Sprintf(
		"reload under load: %d pool packets (%d divergent), %d processed; "+
			"%d swaps + %d rejected; torn verdicts: %d; old/new split %d/%d; "+
			"generation Δ%d; flow cache %d hits / %d stale; policy %s (%d rules)",
		r.Packets, r.DivergentPool, r.Processed, r.Swaps, r.RejectedSwaps,
		r.TornVerdicts, r.VerdictsOld, r.VerdictsNew, r.GenerationDelta,
		r.FlowHits, r.FlowStaleDrops, r.Version, r.Rules)
}

// RunReloadUnderLoad builds a testbed whose engine is fed by a file-backed
// policy store, precomputes every pool packet's verdict under both rule
// sets, then races saturating batched traffic against store reloads.
func RunReloadUnderLoad(cfg ReloadConfig) (*ReloadResult, error) {
	def := DefaultReloadConfig()
	if cfg.Apps <= 0 {
		cfg.Apps = def.Apps
	}
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.Swaps <= 0 {
		cfg.Swaps = def.Swaps
	}
	if cfg.MalformedEvery == 0 {
		cfg.MalformedEvery = def.MalformedEvery
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "bp-reload-*")
		if err != nil {
			return nil, fmt.Errorf("reload: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	gen := apkgen.DefaultConfig()
	gen.Apps = cfg.Apps
	gen.Seed = cfg.Seed
	corpus, err := apkgen.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}

	// Rule set A denies half the tracker catalog; rule set B denies all of
	// it. Tracker traffic through the catalog's other half therefore flips
	// verdict on every swap.
	catalog := trackers.Catalog()
	var rulesA, rulesB []policy.Rule
	for i, lib := range catalog {
		rule := policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: lib.Package}
		rulesB = append(rulesB, rule)
		if i%2 == 0 {
			rulesA = append(rulesA, rule)
		}
	}
	docA, docB := policy.FormatPolicy(rulesA), policy.FormatPolicy(rulesB)

	policyPath := filepath.Join(cfg.Dir, "policy.bp")
	if err := os.WriteFile(policyPath, []byte(docA), 0o644); err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	tb, err := NewTestbed(corpus, TestbedConfig{
		EnforcementOn: true,
		PolicySource:  policystore.NewFileSource(policyPath),
		// No background poll: the swapper below drives Reload directly so
		// the swap count is deterministic.
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	// The traffic pool: every functionality of every app, invoked once.
	var pool []*ipv4.Packet
	for i, ga := range corpus {
		for _, fn := range ga.Functionalities {
			res, err := tb.Apps[i].Invoke(fn.Name)
			if err != nil {
				return nil, fmt.Errorf("reload: invoke %s/%s: %w", ga.APK.PackageName, fn.Name, err)
			}
			pool = append(pool, res.Packets...)
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("reload: corpus produced no packets")
	}

	// Precompute each packet's expected verdict under both rule sets with
	// uncached reference enforcers sharing the testbed's database.
	refVerdicts := func(rules []policy.Rule) ([]enforcer.Result, error) {
		eng, err := policy.NewEngine(rules, policy.VerdictAllow)
		if err != nil {
			return nil, err
		}
		ref := enforcer.New(enforcer.Config{}, tb.DB, eng)
		out := make([]enforcer.Result, len(pool))
		for i, pkt := range pool {
			out[i] = ref.Process(pkt)
		}
		return out, nil
	}
	vA, err := refVerdicts(rulesA)
	if err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	vB, err := refVerdicts(rulesB)
	if err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}

	res := &ReloadResult{Packets: len(pool)}
	for i := range pool {
		if vA[i].Verdict != vB[i].Verdict {
			res.DivergentPool++
		}
	}

	genStart := tb.Engine.Generation()
	applied := metrics.L("outcome", "applied")
	appliedStart := tb.count("bp_policy_reloads_total", applied)

	var processed, torn, oldHits, newHits atomic.Uint64
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		defer close(stop)
		docs := [2]string{docB, docA} // first swap moves off the initial A
		for i := 0; i < cfg.Swaps; i++ {
			doc := docs[i%2]
			if cfg.MalformedEvery > 0 && i > 0 && i%cfg.MalformedEvery == 0 {
				doc = "{[deny][library \"torn-candidate\"]}\n"
			}
			if err := os.WriteFile(policyPath, []byte(doc), 0o644); err != nil {
				return
			}
			// Malformed candidates must fail here; that failure (and the
			// last-good keep) is asserted from the counts after the run.
			_, _ = tb.Policy.Reload()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []enforcer.Result
			for {
				select {
				case <-stop:
					return
				default:
				}
				out = tb.Enforcer.ProcessBatch(pool, out)
				processed.Add(uint64(len(out)))
				for i, r := range out {
					matchA := r.Verdict == vA[i].Verdict && r.Cause == vA[i].Cause
					matchB := r.Verdict == vB[i].Verdict && r.Cause == vB[i].Cause
					switch {
					case !matchA && !matchB:
						torn.Add(1)
					case vA[i].Verdict != vB[i].Verdict:
						// Divergent packet: attribute the verdict.
						if matchA {
							oldHits.Add(1)
						} else {
							newHits.Add(1)
						}
					}
				}
			}
		}()
	}
	swapper.Wait()
	wg.Wait()

	res.Processed = processed.Load()
	res.TornVerdicts = torn.Load()
	res.VerdictsOld = oldHits.Load()
	res.VerdictsNew = newHits.Load()
	res.Swaps = tb.count("bp_policy_reloads_total", applied) - appliedStart
	res.RejectedSwaps = tb.count("bp_policy_reloads_total", metrics.L("outcome", "failed"))
	res.GenerationDelta = tb.Engine.Generation() - genStart
	res.Version, res.Rules = tb.Policy.Version(), tb.count("bp_policy_rules")
	res.FlowHits, res.FlowStaleDrops = tb.count("bp_flowtable_hits_total"), tb.count("bp_flowtable_stale_drops_total")
	return res, nil
}
