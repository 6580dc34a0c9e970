package main

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"time"

	"borderpatrol/internal/experiments"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
)

// config is one invocation's settings.
type config struct {
	seed int64
	// seconds bounds the measured phase in wall time; at 0 the run
	// instead measures exactly the scaled operation counts (count mode),
	// which is what makes counter values repeat.
	seconds float64
	// scale multiplies every operation and device count.
	scale float64
	// setups is how many times an untraced run sets up, to report the
	// median as setup_s.
	setups int
	// apps, when not 0, replaces the workload's corpus size: the tests run
	// on a small corpus so that they stay light beside the timing-sensitive
	// packages go test runs at the same time.
	apps int
}

// maxSamples bounds the per-operation timing buffer (allocated before the
// heap baseline is taken, so it never shows in live_heap_mb).
const maxSamples = 1 << 21

// bufferCap sizes a preallocated buffer: limit in time mode, where the
// operation count is not known beforehand, and no more than need in count
// mode.
func (c config) bufferCap(need, limit int) int {
	if c.seconds > 0 {
		return limit
	}
	return min(need, limit)
}

// interval is one timed call into the program.
type interval struct{ start, end time.Time }

func (iv interval) ns() int64 { return int64(iv.end.Sub(iv.start)) }

// opOut is what one operation sent, got back and cost. pkts and dels are
// valid until the next step on the same env.
type opOut struct {
	pkts   []*ipv4.Packet
	dels   []netsim.Delivery
	failed int
	// respDrops counts responses the gateway's sequence-continuity check
	// refused on the way back.
	respDrops int
	// The timed region: the calls into the program.
	invoke, deliver, reload, flip interval
	// gen is the generator's own clone-and-rewrite, outside the timed
	// region.
	gen interval
	control
}

// control is the control-plane writes an operation made before its burst
// (churn), kept for the twins to repeat.
type control struct {
	swapped   bool
	flipped   bool
	flipAddr  netip.Addr
	flipClass policy.NetworkClass
}

func (o *opOut) timedNs() int64 {
	return o.invoke.ns() + o.deliver.ns() + o.reload.ns() + o.flip.ns()
}

// step runs operation i (counted from the start of warm-up, so schedules
// and control events continue across the warm-up boundary) through tb's
// whole path and scores it against the oracle.
func (e *env) step(tb *experiments.Testbed, i int, out *opOut) error {
	*out = opOut{}
	if e.pooled {
		if err := e.control(tb, i, out); err != nil {
			return err
		}
		out.gen.start = time.Now()
		e.fillBurst(i)
		out.gen.end = time.Now()
		out.pkts = e.burst
	} else {
		fi := e.sched[i%len(e.sched)]
		f := e.fns[fi]
		out.invoke.start = time.Now()
		inv, err := tb.Apps[f.app].Invoke(f.name)
		out.invoke.end = time.Now()
		if err != nil {
			return err
		}
		out.pkts = inv.Packets
		e.fates = e.fates[:0]
		for range inv.Packets {
			e.fates = append(e.fates, e.want[e.doc][fi])
		}
	}
	out.deliver.start = time.Now()
	out.dels = tb.Network.DeliverBatch(out.pkts)
	out.deliver.end = time.Now()
	burstPhase := e.burstPhase(i)
	for p, d := range out.dels {
		phase := burstPhase
		if !e.pooled {
			phase = p // a device operation is one whole flow, in order
		}
		if d.Delivered != e.fates[p] || (!d.Delivered && d.Stage != netsim.StageGateway) || !answered(d, e.dataPhase(phase)) {
			out.failed++
		}
		if d.ResponseDropped {
			out.respDrops++
		}
	}
	return nil
}

// burstPhase is the flow phase every packet of pooled burst i belongs to.
func (e *env) burstPhase(i int) int {
	if !e.pooled {
		return 0
	}
	return i % e.burstsPerWave / e.burstsPerPhase
}

// control makes the control-plane writes due before pooled burst i: every
// swapEvery-th burst the hub alternates its document and the store
// reloads it (after Reload returns, the oracle expects the new fates);
// every flipEvery-th burst one device's network class flips, which bumps
// the global context generation.
func (e *env) control(tb *experiments.Testbed, i int, out *opOut) error {
	if e.swapEvery > 0 && i > 0 && i%e.swapEvery == 0 {
		e.publish(1 - e.doc)
		out.swapped = true
		out.reload.start = time.Now()
		applied, err := tb.Policy.Reload()
		out.reload.end = time.Now()
		if err != nil || !applied {
			return fmt.Errorf("policy swap before burst %d: applied=%v err=%v", i, applied, err)
		}
	}
	if e.flipEvery > 0 && i%e.flipEvery == 0 {
		k := i / e.flipEvery
		out.flipped = true
		out.flipAddr = e.pool.Addr(int(e.order[k%e.devices]))
		out.flipClass = policy.NetTrusted
		if k/e.devices%2 == 1 {
			out.flipClass = policy.NetCellular
		}
		out.flip.start = time.Now()
		tb.Context.SetNetwork(out.flipAddr, out.flipClass)
		out.flip.end = time.Now()
	}
	return nil
}

// follow repeats on a twin the control-plane writes an operation made on
// the first testbed, untimed.
func (e *env) follow(tb *experiments.Testbed, c control) error {
	if c.swapped {
		if _, err := tb.Policy.Reload(); err != nil {
			return err
		}
	}
	if c.flipped {
		tb.Context.SetNetwork(c.flipAddr, c.flipClass)
	}
	return nil
}

// fillBurst clones pooled burst i out of the templates: phase-major, so
// every packet belongs to a different device's flow.
func (e *env) fillBurst(i int) {
	wave := i / e.burstsPerWave
	phase := e.burstPhase(i)
	lo := i % e.burstsPerPhase * burstSize
	hi := min(lo+burstSize, e.devices)
	e.burst, e.fates = e.burst[:0], e.fates[:0]
	for _, d := range e.order[lo:hi] {
		fi := e.sched[(int(d)+wave*waveStride)%len(e.sched)]
		c := e.templates[fi][phase].Clone()
		c.Header.Src = e.pool.Addr(int(d))
		e.burst = append(e.burst, c)
		e.fates = append(e.fates, e.want[e.doc][fi])
	}
}

// totals accumulates a phase of operations.
type totals struct {
	ops, pkts, failed, respDrops, swaps, flips   int
	invokeNs, deliverNs, reloadNs, flipNs, genNs int64
	samples                                      []int64
	// rates are the packets per timed second of each completed slice of
	// sliceOps operations.
	sliceOps, slicePkts int
	sliceNs             int64
	rates               []float64
	// afterInvalidation collects the delivery time of the first burst
	// after a context flip or policy swap; reloads each Store.Reload.
	afterInvalidation, reloads []int64
	// allowed counts device connections the oracle admits: what conntrack
	// must have established and closed.
	allowed int
}

func (t *totals) add(o *opOut) {
	t.ops++
	t.pkts += len(o.pkts)
	t.failed += o.failed
	t.respDrops += o.respDrops
	t.invokeNs += o.invoke.ns()
	t.deliverNs += o.deliver.ns()
	t.reloadNs += o.reload.ns()
	t.flipNs += o.flip.ns()
	t.genNs += o.gen.ns()
	if o.swapped {
		t.swaps++
		t.reloads = append(t.reloads, o.reload.ns())
	}
	if !o.invoke.start.IsZero() && o.dels[0].Delivered {
		t.allowed++
	}
	if o.flipped {
		t.flips++
	}
	if len(t.samples) < cap(t.samples) {
		t.samples = append(t.samples, o.timedNs())
	}
	t.slicePkts += len(o.pkts)
	t.sliceNs += o.timedNs()
	if t.sliceOps > 0 && t.ops%t.sliceOps == 0 {
		t.rates = append(t.rates, float64(t.slicePkts)/(float64(t.sliceNs)/1e9))
		t.slicePkts, t.sliceNs = 0, 0
	}
	if o.swapped || o.flipped {
		t.afterInvalidation = append(t.afterInvalidation, o.deliver.ns())
	}
}

func (t *totals) timedNs() int64 { return t.invokeNs + t.deliverNs + t.reloadNs + t.flipNs }

// pktsPerSec is the median slice's rate, or the whole phase's when the
// run was too short to complete a slice.
func (t *totals) pktsPerSec() float64 {
	if len(t.rates) == 0 {
		return float64(t.pkts) / (float64(t.timedNs()) / 1e9)
	}
	return medianFloat(t.rates)
}

// warmUp runs the warm-up operations through tb's whole path.
func (e *env) warmUp(tb *experiments.Testbed) error {
	var out opOut
	for i := 0; i < e.warmOps; i++ {
		if err := e.step(tb, i, &out); err != nil {
			return err
		}
		if out.failed > 0 {
			return fmt.Errorf("warm-up operation %d: %d packets met another fate than the oracle's", i, out.failed)
		}
	}
	return nil
}

// heapMiB forces a collection and returns the live heap. It collects
// twice: a sync.Pool's owner (an enforcer, with its flow table) stays
// reachable from the pool's victim list for one more cycle after its last
// use, which would leave a closed testbed in the baseline on some runs
// and not on others.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// phase is a measured stretch of operations with the process-wide
// readings taken around it.
type phase struct {
	totals
	mem0, mem1 runtime.MemStats
	gc0, gc1   gcReading
	reg0, reg1 scrape
	// liveMiB is the live heap at the heapOps mark.
	liveMiB float64
}

// measure runs the measured phase on tb: whole operations until the
// deadline (time mode) or exactly countOps (count mode). Live heap is
// taken at the fixed heapOps mark rather than at the end, so a faster
// program is not charged for the state its extra operations leave behind;
// a run too short to reach the mark takes it at the end.
func (e *env) measure(tb *experiments.Testbed, seconds float64, heapBase float64, samples []int64) (*phase, error) {
	ph := &phase{liveMiB: math.NaN()}
	ph.samples = samples[:0]
	ph.sliceOps = e.sliceOps
	ph.reg0 = scrapeRegistry(tb.Metrics)
	ph.gc0 = readGC()
	runtime.ReadMemStats(&ph.mem0)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var out opOut
	for op := 0; seconds > 0 || op < e.countOps; op++ {
		if err := e.step(tb, e.warmOps+op, &out); err != nil {
			return nil, err
		}
		ph.add(&out)
		if op+1 == e.heapOps {
			ph.liveMiB = heapMiB() - heapBase
		}
		if seconds > 0 && e.atBoundary(op) && !out.deliver.end.Before(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ph.mem1)
	ph.gc1 = readGC()
	ph.reg1 = scrapeRegistry(tb.Metrics)
	if math.IsNaN(ph.liveMiB) {
		ph.liveMiB = heapMiB() - heapBase
	}
	return ph, nil
}
