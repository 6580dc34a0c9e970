package main

import (
	"fmt"
	"math"
)

// burstSize is the packet count of one pooled-device burst: the unit the
// fleet and churn workloads hand to Network.DeliverBatch.
const burstSize = 1024

// workload describes one closed-loop traffic shape. An operation is what
// op_us_p50 times: one connection (device workloads) or one burst of up to
// burstSize packets (pooled workloads).
type workload struct {
	name string
	// apps sizes the seeded apkgen corpus.
	apps int
	// requests is Op.Requests on every functionality: data packets per flow.
	requests int
	// udp turns every functionality into a tagged DNS-over-UDP query
	// against one zone server (no SYN/FIN lifecycle).
	udp bool
	// pooled workloads drive the gateway and server only: template bursts
	// rewritten onto DevicePool devices, sent phase-major.
	pooled bool
	// nominal is the scale-1 size: measured connections (device
	// workloads) or pooled devices.
	nominal int
	// warm is the scale-1 warm-up: connections, or whole waves.
	warm int
	// waves is the measured wave count in count mode (pooled only).
	waves int
	// heapAt is the scale-1 operation count after which live_heap_mb is
	// taken (device workloads); pooled workloads derive theirs from the
	// wave shape (see shape).
	heapAt int
	// slice is the scale-1 operation count of one throughput slice
	// (device workloads; a pooled slice is one wave). pkts_per_s is the
	// median slice's rate, so that a stretch of interference from outside
	// the process does not set the figure.
	slice int
	// swapEvery and flipEvery schedule churn's control-plane writes, in
	// bursts: a policy swap through hub.Set + Store.Reload, and one
	// device's network-class flip through devctx.Source.SetNetwork.
	swapEvery, flipEvery int
}

// workloads is the benchmark's fixed set, in reporting order. Why each
// exists is in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "connect", apps: 200, requests: 1, nominal: 500_000, warm: 50_000, heapAt: 100_000, slice: 13_000},
	{name: "keepalive", apps: 200, requests: 32, nominal: 80_000, warm: 8_000, heapAt: 16_000, slice: 1_300},
	{name: "fleet", apps: 50, requests: 8, pooled: true, nominal: 32_768, warm: 1, waves: 9},
	{name: "churn", apps: 50, requests: 4, udp: true, pooled: true, nominal: 16_384, warm: 4, waves: 80,
		swapEvery: 64, flipEvery: 4},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled applies the single scale factor to a scale-1 count, never below
// floor.
func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}

// phases is the packet count of one flow, which is also the number of
// phases a pooled wave is sent in: SYN + requests + FIN, or the bare
// datagrams for UDP.
func (w *workload) phases() int {
	if w.udp {
		return w.requests
	}
	return w.requests + 2
}

// dataPhase reports whether the p-th packet of a flow carries a request
// (and so must come back with a response when delivered).
func (w *workload) dataPhase(p int) bool {
	return w.udp || (p >= 1 && p <= w.requests)
}

// shape is a workload sized by the scale factor.
type shape struct {
	*workload
	// devices is the pooled device count (0 for device workloads).
	devices int
	// burstsPerPhase and burstsPerWave derive from devices.
	burstsPerPhase, burstsPerWave int
	// warmOps and countOps are the warm-up and count-mode measured
	// lengths in operations.
	warmOps, countOps int
	// heapOps is the measured-operation count at which live_heap_mb is
	// taken.
	heapOps int
	// sliceOps is the length of one throughput slice: whole periods of
	// the traffic mix, or one wave.
	sliceOps int
}

func (w *workload) shape(scale float64) shape {
	s := shape{workload: w}
	if !w.pooled {
		s.warmOps = scaled(w.warm, scale, 1)
		s.countOps = scaled(w.nominal, scale, 13)
		s.heapOps = scaled(w.heapAt, scale, 1)
		s.sliceOps = scaled(w.slice/mixPeriod, scale, 1) * mixPeriod
		return s
	}
	s.devices = scaled(w.nominal, scale, 16)
	s.burstsPerPhase = (s.devices + burstSize - 1) / burstSize
	s.burstsPerWave = s.burstsPerPhase * w.phases()
	s.warmOps = w.warm * s.burstsPerWave
	s.countOps = w.waves * s.burstsPerWave
	s.sliceOps = s.burstsPerWave
	// Every device has its flow open and answered once: after the SYN
	// phase and the first request round (TCP), or after one whole wave
	// (UDP, whose entries only ever leave by TTL, eviction or
	// invalidation).
	s.heapOps = 2 * s.burstsPerPhase
	if w.udp {
		s.heapOps = s.burstsPerWave
	}
	return s
}

// atBoundary reports whether a run may stop after op (0-based, counted
// from the start of the measured phase): device workloads stop after any
// connection, pooled ones only after a whole wave so that every run
// measures the same mix of flow phases.
func (s *shape) atBoundary(op int) bool {
	return !s.pooled || (op+1)%s.burstsPerWave == 0
}
