package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// runUntraced measures the end-to-end metrics: set up cfg.setups times
// (setup_s is the median), then run the measured phase on the last.
func runUntraced(w *workload, cfg config) (*report, error) {
	rep := newReport(w, cfg, false)
	samples := make([]int64, 0, cfg.bufferCap(w.shape(cfg.scale).countOps, maxSamples))
	var (
		e        *env
		setups   []float64
		heapBase float64
	)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if e != nil {
			e.close()
			e = nil
		}
		heapBase = heapMiB()
		start := time.Now()
		var err error
		if e, err = setUp(w, cfg, 1); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if err := e.warmUp(e.tbs[0]); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	ph, err := e.measure(e.tbs[0], cfg.seconds, heapBase, samples)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.ops, rep.pkts, rep.failed = ph.ops, ph.pkts, ph.failed
	pkts := float64(ph.pkts)
	sorted := sortedCopy(ph.samples)
	p50, _ := quantile(sorted, 0.5)
	auditRec := ph.reg1.get(famAuditRec) - ph.reg0.get(famAuditRec)
	auditDrop := ph.reg1.get(famAuditDrop) - ph.reg0.get(famAuditDrop)

	rep.set("pkts_per_s", ph.pktsPerSec(), fmt.Sprintf("median of %d slices", len(ph.rates)))
	rep.set("op_us_p50", p50/1e3, fmt.Sprintf("n=%d", len(sorted)))
	rep.set("allocs_per_pkt", float64(ph.mem1.Mallocs-ph.mem0.Mallocs)/pkts, "")
	rep.set("bytes_per_pkt", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/pkts, "")
	rep.set("live_heap_mb", ph.liveMiB, fmt.Sprintf("after %d operations", min(e.heapOps, ph.ops)))
	rep.set("ok_ops_share", 1-float64(ph.failed)/pkts, "")
	rep.set("audit_kept_share", ratio(auditRec, auditRec+auditDrop), "")
	rep.set("setup_s", medianFloat(setups), fmt.Sprintf("median of %d", len(setups)))

	e.checkInvariants(rep, ph)
	e.countersInto(rep, ph)
	return rep, nil
}

// checkInvariants holds the run to the counter invariants of
// .claude/skills/verify/SKILL.md that apply to all-tagged traffic.
func (e *env) checkInvariants(rep *report, ph *phase) {
	if ph.failed > 0 {
		rep.problem("%d of %d packets met another fate than the oracle's", ph.failed, ph.pkts)
	}
	d := func(keys ...string) float64 { return ph.reg1.get(keys...) - ph.reg0.get(keys...) }
	if answered, processed := d(famHits, famMemo, famMisses), d(famAllow, famDrop); answered != processed || processed != float64(ph.pkts) {
		rep.problem("flow hits + memo hits + misses = %.0f, enforcer processed %.0f, sent %d", answered, processed, ph.pkts)
	}
	if !e.pooled {
		est, closed, open := d(famEstab), d(famClosed), ph.reg1.get(famOpen)
		if est != float64(ph.allowed) || closed != est || open != 0 {
			rep.problem("conntrack established %.0f, closed %.0f, open %.0f; oracle allows %d connections", est, closed, open, ph.allowed)
		}
	}
}

// countersInto records the values that must repeat exactly when one seed
// runs twice in count mode on one core.
func (e *env) countersInto(rep *report, ph *phase) {
	rep.counters["operations"] = float64(ph.ops)
	rep.counters["packets"] = float64(ph.pkts)
	rep.counters["swaps"] = float64(ph.swaps)
	rep.counters["flips"] = float64(ph.flips)
	rep.counters["response_seq_drops"] = float64(ph.respDrops)
	for _, fam := range []string{famAllow, famDrop, famHits, famMemo, famMisses, famEvictions, famEstab, famClosed, famEvals} {
		if v := ph.reg1.get(fam) - ph.reg0.get(fam); !math.IsNaN(v) {
			rep.counters[fam] = v
		}
	}
	// The schedule's fingerprint: a second seed must send something else.
	h := fnv.New64a()
	for _, fi := range e.sched {
		f := e.fns[fi]
		h.Write([]byte(e.corpus[f.app].APK.PackageName + "/" + f.name))
	}
	rep.counters["schedule_fnv"] = float64(h.Sum64() >> 11) // 53 bits survive a float64
}
