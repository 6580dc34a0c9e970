package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"

	"borderpatrol/internal/metrics"
)

// scrape is a registry snapshot keyed by family name, plus
// {label="value"} where a family has labelled series.
type scrape map[string]float64

func scrapeRegistry(r *metrics.Registry) scrape {
	out := make(scrape)
	for _, s := range r.Snapshot() {
		if s.Hist != nil {
			continue
		}
		key := s.Name
		if len(s.Labels) > 0 {
			var b strings.Builder
			b.WriteString(s.Name)
			b.WriteByte('{')
			for i, l := range s.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l.Key + `="` + l.Value + `"`)
			}
			b.WriteByte('}')
			key = b.String()
		}
		out[key] = s.Value
	}
	return out
}

// get returns the sum of the named series, or NaN when any is missing: a
// family a later change renames or drops reads as null, not as a failure.
func (s scrape) get(keys ...string) float64 {
	sum := 0.0
	for _, k := range keys {
		v, ok := s[k]
		if !ok {
			return math.NaN()
		}
		sum += v
	}
	return sum
}

// Registry series the benchmark reads.
const (
	famHits      = "bp_flowtable_hits_total"
	famMisses    = "bp_flowtable_misses_total"
	famEvictions = "bp_flowtable_evictions_total"
	famLive      = "bp_flowtable_live"
	famMemo      = "bp_enforcer_batch_memo_hits_total"
	famAllow     = `bp_enforcer_verdicts_total{decision="allow"}`
	famDrop      = `bp_enforcer_verdicts_total{decision="drop"}`
	famEstab     = `bp_conntrack_transitions_total{kind="established"}`
	famClosed    = `bp_conntrack_transitions_total{kind="closed"}`
	famOpen      = `bp_conntrack_connections{state="open"}`
	famAuditRec  = "bp_audit_recorded_total"
	famAuditDrop = "bp_audit_dropped_total"
	famEvals     = "bp_policy_evaluations_total"
)

// gcReading is the runtime's own account of collector work.
type gcReading struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcReading {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcReading{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the figure is a single outlier's, not the tail's.
const minBeyond = 10

// quantile returns the q-quantile of sorted, and whether at least
// minBeyond samples lie beyond it.
func quantile(sorted []int64, q float64) (v float64, ok bool) {
	if len(sorted) == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // q*n may land a hair above a whole number
	rank = min(max(rank, 0), len(sorted)-1)
	return float64(sorted[rank]), len(sorted)-1-rank >= minBeyond
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, NaN when b is 0 (or either is missing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
