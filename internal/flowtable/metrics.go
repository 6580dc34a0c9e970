package flowtable

import "borderpatrol/internal/metrics"

// RegisterMetrics exposes the table's counters on a registry as the
// bp_flowtable_* families. Each series is a scrape-time closure over its
// own atomic, so a scrape takes no shard lock and the packet path pays
// nothing.
func (t *Table[V]) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("bp_flowtable_hits_total", "Flow-cache lookups answered without decoding.", t.hits.Load)
	r.CounterFunc("bp_flowtable_misses_total", "Flow-cache lookups that paid the full pipeline.", t.misses.Load)
	r.CounterFunc("bp_flowtable_inserts_total", "Flow-cache entries inserted.", t.inserts.Load)
	r.CounterFunc("bp_flowtable_evictions_total", "Flows evicted under capacity pressure.", t.evictions.Load)
	r.CounterFunc("bp_flowtable_stale_drops_total", "Cached verdicts invalidated by a generation change.", t.stale.Load)
	r.CounterFunc("bp_flowtable_expired_drops_total", "Cached verdicts released after sitting idle past the TTL.", t.expired.Load)
	r.CounterFunc("bp_flowtable_admission_drops_total", "Inserts refused by the negative-cache admission guard.", t.admissionDrops.Load)
	r.GaugeFunc("bp_flowtable_live", "Flows currently cached.",
		func() float64 { return float64(t.live.Load()) })
}
