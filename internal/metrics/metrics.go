// Package metrics is BorderPatrol's dependency-free observability core:
// lock-free counters, log-bucketed latency histograms, and a registry that
// renders the Prometheus text exposition format.
//
// The design constraint is the enforcement hot path: the cache-hit packet
// path runs in ~100 ns and the batched drain in ~45 ns/packet, so an
// instrument on those paths may cost at most one uncontended atomic
// add. Counters are striped across padded per-core shards that are summed
// only at scrape time (no CAS loops, no locks, no false sharing between
// cores); histograms record with two atomic adds into a fixed bucket array
// and allocate nothing.
//
// Components own their instruments and attach them to a *Registry via
// their RegisterMetrics methods, one way per kind: counters and gauges
// through CounterFunc/GaugeFunc closures over what the component already
// keeps, so the hot path pays nothing for exposure — the closure runs at
// scrape time only — and histograms through RegisterHistogram. The
// registry is the one place counts are read: Value reads one family.
package metrics

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// numShards is the counter stripe count: the smallest power of two ≥
// GOMAXPROCS at init, capped so a wide machine doesn't bloat every
// counter. A power of two makes the shard pick a single mask. On a
// single-core box this collapses to one shard and Add is exactly one
// atomic add with no shard pick at all.
var numShards = func() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 64 {
		s <<= 1
	}
	return s
}()

// counterShard pads one stripe to a cache line so two cores bumping
// adjacent shards never ping-pong the same line.
type counterShard struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter striped across padded
// per-core shards. Add is lock-free and wait-free: one atomic add into a
// pseudo-randomly picked shard (math/rand/v2's per-M generator, no lock,
// ~2 ns), summed only at scrape time.
type Counter struct {
	shards []counterShard
}

// NewCounter builds a counter; a component exposes it through
// Registry.CounterFunc(name, help, c.Value).
func NewCounter() *Counter {
	return &Counter{shards: make([]counterShard, numShards)}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	s := c.shards
	if len(s) == 1 {
		s[0].n.Add(n)
		return
	}
	s[rand.Uint32()&uint32(len(s)-1)].n.Add(n)
}

// Value sums the shards. It is a snapshot: concurrent Adds may or may not
// be included, but the value never decreases across calls.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Kind classifies a metric family.
type Kind uint8

// Family kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name=value dimension on a series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labeled instance within a family. Exactly one of the
// value sources is set, matching the family kind.
type series struct {
	labels    []Label
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	series     []*series
}

// Registry holds metric families in registration order and renders them.
// Registration takes a lock; reads on registered instruments never do.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName enforces the Prometheus identifier charset. Registration is
// programmer-driven (no user input), so violations panic.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// register attaches one series to its family, creating the family on
// first use. Kind mismatches and duplicate label sets panic: both are
// wiring bugs, not runtime conditions.
func (r *Registry) register(name, help string, kind Kind, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, fam.kind, kind))
	}
	for _, existing := range fam.series {
		if sameLabels(existing.labels, s.labels) {
			panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, formatLabels(s.labels)))
		}
	}
	fam.series = append(fam.series, s)
}

// formatLabels renders a label set for panic messages.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterFunc registers a counter series whose value is computed at
// scrape time — the zero-hot-path-cost bridge to counters a component
// already maintains. fn must be monotone and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, KindCounter, &series{labels: labels, counterFn: fn})
}

// GaugeFunc registers a gauge series computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, &series{labels: labels, gaugeFn: fn})
}

// RegisterHistogram attaches a component-owned histogram to the registry.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, KindHistogram, &series{labels: labels, hist: h})
}

// Sample is one flattened series snapshot, for registry-driven printouts
// and tests. Counter and gauge samples carry Value; histogram samples
// carry Hist.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	Value  float64
	Hist   *HistogramSnapshot
}

// Snapshot flattens every registered series in registration order. Scrape
// functions run inline, so the snapshot is as fresh as the instruments.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var out []Sample
	for _, fam := range fams {
		for _, s := range fam.series {
			smp := Sample{Name: fam.name, Help: fam.help, Kind: fam.kind, Labels: s.labels}
			if s.hist != nil {
				snap := s.hist.Snapshot()
				smp.Hist = &snap
			} else {
				smp.Value = s.value()
			}
			out = append(out, smp)
		}
	}
	return out
}

// value reads a counter or gauge series; a histogram series reads as its
// observation count.
func (s *series) value() float64 {
	switch {
	case s.counterFn != nil:
		return float64(s.counterFn())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	case s.hist != nil:
		return float64(s.hist.Snapshot().Count())
	}
	return 0
}

// Value reads one family: the sum of its series whose label sets contain
// every given label (no labels sums the whole family). A histogram series
// counts its observations. ok is false when no registered series matches.
// Only the matching series are read, so a caller polling one count does not
// pay for a whole scrape.
func (r *Registry) Value(name string, labels ...Label) (v float64, ok bool) {
	r.mu.Lock()
	var series []*series
	if fam := r.byName[name]; fam != nil {
		series = slices.Clone(fam.series)
	}
	r.mu.Unlock()
	for _, s := range series {
		if slices.ContainsFunc(labels, func(l Label) bool { return !slices.Contains(s.labels, l) }) {
			continue
		}
		v += s.value()
		ok = true
	}
	return v, ok
}
