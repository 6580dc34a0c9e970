package netsim

import "borderpatrol/internal/metrics"

// RegisterMetrics attaches the gateway's connection-tracker series and
// restart count to a registry. The tracker's series sum its per-shard
// counters at scrape time, so the packet path pays nothing. The
// enforcement stage registers itself separately (it may run without a
// gateway in unit benches).
func (g *Gateway) RegisterMetrics(r *metrics.Registry) {
	g.ct.registerMetrics(r)
	r.CounterFunc("bp_gateway_restarts_total", "Gateway crash/reboot cycles.", g.Restarts)
}

func (ct *Conntrack) registerMetrics(r *metrics.Registry) {
	count := func(c ctCount) func() uint64 {
		return func() uint64 { return ct.sum(func(s *ctShard) uint64 { return s.n[c] }) }
	}
	const transHelp = "Connection-tracker state transitions by kind."
	for _, t := range []struct {
		c    ctCount
		kind string
	}{
		{ctEstablished, "established"}, {ctClosed, "closed"}, {ctDupClose, "dup_close"},
		{ctLateSYN, "late_syn"}, {ctUntrackedClose, "untracked_close"},
		{ctIdleReclaimed, "idle_reclaimed"}, {ctTableFull, "table_full"},
	} {
		r.CounterFunc("bp_conntrack_transitions_total", transHelp, count(t.c), metrics.L("kind", t.kind))
	}

	const stateHelp = "Connections currently tracked, by state."
	r.GaugeFunc("bp_conntrack_connections", stateHelp,
		func() float64 {
			return float64(ct.sum(func(s *ctShard) uint64 { return uint64(s.conns.Len() - s.parked) }))
		},
		metrics.L("state", "open"))
	r.GaugeFunc("bp_conntrack_connections", stateHelp,
		func() float64 { return float64(ct.sum(func(s *ctShard) uint64 { return uint64(s.parked) })) },
		metrics.L("state", "time_wait"))

	// Response-direction (server→device) enforcement: seq_drop is a
	// segment refused for breaking TCP sequence continuity (mid-stream
	// injection); unchecked is one passed because its full shard could not
	// adopt its connection.
	const respHelp = "Response-direction segments checked, by outcome."
	for _, o := range []struct {
		c       ctCount
		outcome string
	}{
		{ctChecked, "checked"}, {ctAdopted, "adopted"}, {ctLate, "late"},
		{ctSeqDrop, "seq_drop"}, {ctUnchecked, "unchecked"},
	} {
		r.CounterFunc("bp_conntrack_responses_total", respHelp, count(o.c), metrics.L("outcome", o.outcome))
	}
}

// RegisterMetrics attaches the network's fault-injection counters and the
// response-sequence table's overflow and reclaim counts to a registry. The
// fault counts belong to the network, not to a plan: they exist (at zero)
// on a clean network and survive every InstallFaults and ClearFaults.
func (n *Network) RegisterMetrics(r *metrics.Registry) {
	const faultHelp = "Wire faults injected on the device-to-gateway path, by stage."
	for st := range n.faultN.n {
		r.CounterFunc("bp_netsim_faults_total", faultHelp, n.faultN.n[st].Load, metrics.L("stage", faultStageNames[st]))
	}
	r.CounterFunc("bp_netsim_fault_delay_virtual_ns_total",
		"Total virtual wire time charged by the delay fault.",
		func() uint64 { return uint64(n.faultN.delay.Load()) })
	r.CounterFunc("bp_netsim_response_seq_untracked_total",
		"Server responses of connections a full response-sequence shard could not record.",
		n.respUntracked.Load)
	r.CounterFunc("bp_netsim_response_seq_reclaimed_total",
		"Server response-sequence entries a full shard reclaimed after they idled past the keep-alive timeout.",
		n.respReclaimed.Load)
}
