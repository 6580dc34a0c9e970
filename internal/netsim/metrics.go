package netsim

import "borderpatrol/internal/metrics"

// RegisterMetrics attaches the gateway's connection-tracker counters and
// restart count to a registry. Everything is exported through scrape-time
// closures over the conntrack's existing stats, so the packet path pays
// nothing. The enforcement stage registers itself separately (it may run
// without a gateway in unit benches).
func (g *Gateway) RegisterMetrics(r *metrics.Registry) {
	ct := g.ct
	const transHelp = "Connection-tracker state transitions by kind."
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().Established }, metrics.L("kind", "established"))
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().Closed }, metrics.L("kind", "closed"))
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().DupCloses }, metrics.L("kind", "dup_close"))
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().LateSYNs }, metrics.L("kind", "late_syn"))
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().UntrackedCloses }, metrics.L("kind", "untracked_close"))
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().IdleReclaimed }, metrics.L("kind", "idle_reclaimed"))
	r.CounterFunc("bp_conntrack_transitions_total", transHelp,
		func() uint64 { return ct.Stats().TableFull }, metrics.L("kind", "table_full"))

	const stateHelp = "Connections currently tracked, by state."
	r.GaugeFunc("bp_conntrack_connections", stateHelp,
		func() float64 { return float64(ct.Stats().Open) }, metrics.L("state", "open"))
	r.GaugeFunc("bp_conntrack_connections", stateHelp,
		func() float64 { return float64(ct.Stats().TimeWait) }, metrics.L("state", "time_wait"))

	// Response-direction (server→device) enforcement: seq_drop is a
	// segment refused for breaking TCP sequence continuity (mid-stream
	// injection); unchecked is one passed because its full shard could not
	// adopt its connection.
	const respHelp = "Response-direction segments checked, by outcome."
	r.CounterFunc("bp_conntrack_responses_total", respHelp,
		func() uint64 { return ct.Stats().ResponsesChecked }, metrics.L("outcome", "checked"))
	r.CounterFunc("bp_conntrack_responses_total", respHelp,
		func() uint64 { return ct.Stats().ResponseAdopts }, metrics.L("outcome", "adopted"))
	r.CounterFunc("bp_conntrack_responses_total", respHelp,
		func() uint64 { return ct.Stats().ResponseLate }, metrics.L("outcome", "late"))
	r.CounterFunc("bp_conntrack_responses_total", respHelp,
		func() uint64 { return ct.Stats().ResponseSeqDrops }, metrics.L("outcome", "seq_drop"))
	r.CounterFunc("bp_conntrack_responses_total", respHelp,
		func() uint64 { return ct.Stats().ResponseUnchecked }, metrics.L("outcome", "unchecked"))

	r.CounterFunc("bp_gateway_restarts_total", "Gateway crash/reboot cycles.", g.Restarts)
}

// RegisterMetrics attaches the network's fault-injection counters and the
// response-sequence table's overflow count to a registry. The fault
// closures read FaultStats, which is zero while no fault plan is armed, so
// the series exist (at zero) even on a clean network.
func (n *Network) RegisterMetrics(r *metrics.Registry) {
	const faultHelp = "Wire faults injected on the device-to-gateway path, by stage."
	r.CounterFunc("bp_netsim_faults_total", faultHelp,
		func() uint64 { return n.FaultStats().Drops }, metrics.L("stage", "drop"))
	r.CounterFunc("bp_netsim_faults_total", faultHelp,
		func() uint64 { return n.FaultStats().Duplicates }, metrics.L("stage", "duplicate"))
	r.CounterFunc("bp_netsim_faults_total", faultHelp,
		func() uint64 { return n.FaultStats().Reorders }, metrics.L("stage", "reorder"))
	r.CounterFunc("bp_netsim_faults_total", faultHelp,
		func() uint64 { return n.FaultStats().Delays }, metrics.L("stage", "delay"))
	r.CounterFunc("bp_netsim_faults_total", faultHelp,
		func() uint64 { return n.FaultStats().Corruptions }, metrics.L("stage", "corrupt"))
	r.CounterFunc("bp_netsim_faults_total", faultHelp,
		func() uint64 { return n.FaultStats().Truncations }, metrics.L("stage", "truncate"))
	r.CounterFunc("bp_netsim_fault_delay_virtual_ns_total",
		"Total virtual wire time charged by the delay fault.",
		func() uint64 { return uint64(n.FaultStats().DelayVirtual.Nanoseconds()) })
	r.CounterFunc("bp_netsim_response_seq_untracked_total",
		"Server responses of connections a full response-sequence shard could not record.",
		n.respUntracked.Load)
}
