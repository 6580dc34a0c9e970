package flowtable

import (
	"sync/atomic"

	"borderpatrol/internal/metrics"
)

// RegisterMetrics exposes the table's counters on a registry as the
// bp_flowtable_* families. Each series is a scrape-time closure that sums
// its counter over the shards, so a scrape takes no shard lock and the
// packet path pays nothing. Each shard's counters only grow, so the sums
// do too.
func (t *Table[V]) RegisterMetrics(r *metrics.Registry) {
	sum := func(c func(*counters) *atomic.Uint64) func() uint64 {
		return func() uint64 { return t.total(c) }
	}
	r.CounterFunc("bp_flowtable_hits_total", "Flow-cache lookups answered without decoding.",
		sum(func(c *counters) *atomic.Uint64 { return &c.hits }))
	r.CounterFunc("bp_flowtable_misses_total", "Flow-cache lookups that paid the full pipeline.",
		sum(func(c *counters) *atomic.Uint64 { return &c.misses }))
	r.CounterFunc("bp_flowtable_inserts_total", "Flow-cache entries inserted.",
		sum(func(c *counters) *atomic.Uint64 { return &c.inserts }))
	r.CounterFunc("bp_flowtable_evictions_total", "Flows evicted under capacity pressure.",
		sum(func(c *counters) *atomic.Uint64 { return &c.evictions }))
	r.CounterFunc("bp_flowtable_stale_drops_total", "Cached verdicts invalidated by a generation change.",
		sum(func(c *counters) *atomic.Uint64 { return &c.stale }))
	r.CounterFunc("bp_flowtable_expired_drops_total", "Cached verdicts released after sitting idle past the TTL.",
		sum(func(c *counters) *atomic.Uint64 { return &c.expired }))
	r.CounterFunc("bp_flowtable_admission_drops_total", "Inserts refused by the negative-cache admission guard.",
		sum(func(c *counters) *atomic.Uint64 { return &c.admissionDrops }))
	r.GaugeFunc("bp_flowtable_live", "Flows currently cached.",
		func() float64 { return float64(t.live()) })
}

// total sums one counter over the shards.
func (t *Table[V]) total(c func(*counters) *atomic.Uint64) uint64 {
	var n uint64
	for i := range t.shards {
		n += c(&t.shards[i].n).Load()
	}
	return n
}

// live sums the shards' live counts: the flows held.
func (t *Table[V]) live() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].n.live.Load()
	}
	return n
}
