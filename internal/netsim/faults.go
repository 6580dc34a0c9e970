package netsim

import (
	"sync/atomic"
	"time"

	"borderpatrol/internal/ipv4"
)

// FaultPlan configures deterministic, seeded fault injection on the wire
// between the devices and the gateway. Probabilities are per packet in
// [0, 1]; a zero plan injects nothing. The same seed over the same traffic
// yields the same fault sequence, so a failing soak run replays exactly.
type FaultPlan struct {
	// Seed initializes the fault PRNG.
	Seed uint64
	// Drop loses the packet on the wire (counted as StageFault).
	Drop float64
	// Duplicate delivers the packet twice.
	Duplicate float64
	// Reorder swaps the packet with its wire neighbour within a burst (a
	// burst of one has a neighbour only when the packet was duplicated).
	Reorder float64
	// Delay charges extra virtual wire time in [DelayMin, DelayMax].
	Delay float64
	// Corrupt flips a payload byte. The IPv4 header — including the
	// IP_OPTIONS tag — is never touched: BorderPatrol's threat model puts
	// faults on the wire data, and the fail-safe property under test is
	// that no payload damage converts a deny into a delivery.
	Corrupt float64
	// Truncate cuts the payload short (header again untouched).
	Truncate float64
	// DelayMin and DelayMax bound the virtual delay charged when Delay
	// fires (DelayMax <= DelayMin charges DelayMin).
	DelayMin, DelayMax time.Duration
}

// faultStage indexes the fault counters, one per kind of fault.
type faultStage int

const (
	faultDrop faultStage = iota
	faultDuplicate
	faultReorder
	faultDelay
	faultCorrupt
	faultTruncate
	faultStages
)

// faultStageNames label bp_netsim_faults_total's series.
var faultStageNames = [faultStages]string{"drop", "duplicate", "reorder", "delay", "corrupt", "truncate"}

// faultCounts counts injected faults. A Network owns one for its whole
// life, so arming or clearing a plan never resets a count.
type faultCounts struct {
	n     [faultStages]atomic.Uint64
	delay atomic.Int64 // total virtual wire time the delay fault charged, ns
}

// Faults is a FaultPlan armed with a PRNG, counting into its network's
// counters. All methods are lock-free (the PRNG state advances with one
// atomic add), so the parallel batch paths share one instance without
// serializing.
type Faults struct {
	state  atomic.Uint64
	counts *faultCounts

	// Probabilities precomputed to uint32-scaled thresholds: a roll fires
	// when next()&0xffffffff < threshold, so p==0 can never fire and p==1
	// always does.
	drop, dup, reorder, delay, corrupt, truncate uint64
	delayMin, delaySpan                          int64
}

// threshold scales a probability to the 32-bit comparison domain.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 32
	}
	return uint64(p * (1 << 32))
}

// newFaults arms a plan that counts into counts.
func newFaults(plan FaultPlan, counts *faultCounts) *Faults {
	f := &Faults{
		counts:   counts,
		drop:     threshold(plan.Drop),
		dup:      threshold(plan.Duplicate),
		reorder:  threshold(plan.Reorder),
		delay:    threshold(plan.Delay),
		corrupt:  threshold(plan.Corrupt),
		truncate: threshold(plan.Truncate),
		delayMin: int64(plan.DelayMin),
	}
	if span := int64(plan.DelayMax - plan.DelayMin); span > 0 {
		f.delaySpan = span
	}
	f.state.Store(plan.Seed)
	return f
}

// next is a splitmix64 step: the sequence position advances with a single
// atomic add, so concurrent rollers draw disjoint values without locking.
func (f *Faults) next() uint64 {
	x := f.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll fires with the precomputed threshold's probability; a zero
// threshold returns false without burning a PRNG step.
func (f *Faults) roll(t uint64) bool {
	if t == 0 {
		return false
	}
	return f.next()&0xffffffff < t
}

// rollCounted rolls t and counts a firing under stage.
func (f *Faults) rollCounted(t uint64, stage faultStage) bool {
	if f.roll(t) {
		f.counts.n[stage].Add(1)
		return true
	}
	return false
}

func (f *Faults) rollDrop() bool    { return f.rollCounted(f.drop, faultDrop) }
func (f *Faults) rollDup() bool     { return f.rollCounted(f.dup, faultDuplicate) }
func (f *Faults) rollReorder() bool { return f.rollCounted(f.reorder, faultReorder) }

// rollDelay returns the virtual wire delay to charge (zero = no delay).
func (f *Faults) rollDelay() time.Duration {
	if !f.roll(f.delay) {
		return 0
	}
	d := f.delayMin
	if f.delaySpan > 0 {
		d += int64(f.next() % uint64(f.delaySpan+1))
	}
	if d <= 0 {
		return 0
	}
	f.counts.n[faultDelay].Add(1)
	f.counts.delay.Add(d)
	return time.Duration(d)
}

// mutate applies corruption/truncation rolls to pkt's payload and returns
// the damaged clone, or nil when no mutation fired. The original packet —
// and its IPv4 header with the tag option — is never modified.
func (f *Faults) mutate(pkt *ipv4.Packet) *ipv4.Packet {
	doCorrupt := f.roll(f.corrupt) && len(pkt.Payload) > 0
	doTrunc := f.roll(f.truncate) && len(pkt.Payload) > 0
	if !doCorrupt && !doTrunc {
		return nil
	}
	out := pkt.Clone()
	if doCorrupt {
		pos := int(f.next() % uint64(len(out.Payload)))
		// XOR with a non-zero byte so the flip always changes the payload.
		out.Payload[pos] ^= byte(f.next()%255) + 1
		f.counts.n[faultCorrupt].Add(1)
	}
	if doTrunc && len(out.Payload) > 0 {
		out.Payload = out.Payload[:int(f.next()%uint64(len(out.Payload)))]
		f.counts.n[faultTruncate].Add(1)
	}
	return out
}
