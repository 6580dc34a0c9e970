// Package sanitizer implements BorderPatrol's Packet Sanitizer (paper
// §IV-A4, §V-D): the last component before the corporate border. It strips
// the BorderPatrol IP option from every policy-conforming packet so that
// (i) RFC 7126-compliant upstream routers do not drop the traffic, and
// (ii) execution-context information (app identity, loaded libraries) never
// leaves the perimeter — a privacy property, not just a routing one.
package sanitizer

import (
	"sync/atomic"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
)

// Sanitizer removes context tags from outbound packets. It is safe for
// concurrent use: its one counter is an atomic. Process counts each strip
// on it; the gateway's burst workers strip with Strip, tally, and add
// their tally with Count once per burst, so they write the shared counter
// once per burst rather than once per packet.
type Sanitizer struct {
	// cleansed counts packets that had options removed.
	cleansed atomic.Uint64
}

// New builds a sanitizer.
func New() *Sanitizer {
	return &Sanitizer{}
}

// Process strips the BorderPatrol security option from one packet in place
// and returns it; any other option stays. The packet the caller passes is
// mutated (the gateway pipeline owns it at this stage).
func (s *Sanitizer) Process(pkt *ipv4.Packet) *ipv4.Packet {
	if s.Strip(pkt) {
		s.Count(1)
	}
	return pkt
}

// Strip is Process without the count: it strips the security option from
// pkt in place and reports whether there was one to strip.
func (s *Sanitizer) Strip(pkt *ipv4.Packet) bool {
	return pkt.Header.RemoveOption(ipv4.OptSecurity)
}

// Count adds n strips that the caller tallied from Strip.
func (s *Sanitizer) Count(n uint64) {
	s.cleansed.Add(n)
}

// RegisterMetrics attaches the sanitizer's counter to a registry.
func (s *Sanitizer) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("bp_sanitizer_cleansed_total", "Packets the sanitizer stripped options from.", s.cleansed.Load)
}
