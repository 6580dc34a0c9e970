package kernel

import (
	"errors"
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
)

func batchPkt(i int, payload string) *ipv4.Packet {
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.AddrFrom4([4]byte{93, 184, byte(i >> 8), byte(i)}),
		},
		Payload: []byte(payload),
	}
}

// TestOutputBatchMatchesScalar runs the same packets through Output and
// OutputBatch against a queue whose handler drops "evil" payloads, and
// requires identical fates.
func TestOutputBatchMatchesScalar(t *testing.T) {
	mk := func() *Netfilter {
		nf := NewNetfilter()
		nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
		drop := func(pkt *ipv4.Packet) bool { return string(pkt.Payload) == "evil" }
		nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet, out []BatchVerdict) {
			for i, pkt := range pkts {
				if drop(pkt) {
					out[i] = BatchVerdict{Verdict: VerdictDrop}
				} else {
					out[i] = BatchVerdict{Verdict: VerdictAccept, Aux: i}
				}
			}
		})
		return nf
	}

	var pkts []*ipv4.Packet
	for i := 0; i < 16; i++ {
		payload := "ok"
		if i%3 == 0 {
			payload = "evil"
		}
		pkts = append(pkts, batchPkt(i, payload))
	}

	scalar := mk()
	var want []bool
	for _, pkt := range pkts {
		out, err := scalar.Output(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out != nil)
	}

	batch := mk()
	res, err := batch.OutputBatch(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pkts) {
		t.Fatalf("len(res) = %d, want %d", len(res), len(pkts))
	}
	for i := range res {
		if (res[i].Out != nil) != want[i] {
			t.Fatalf("pkt %d: batch delivered=%v, scalar=%v", i, res[i].Out != nil, want[i])
		}
		if res[i].Out != nil && res[i].Aux == nil {
			t.Fatalf("pkt %d: aux not propagated", i)
		}
	}
}

// TestOutputBatchRewriteFlowsDownstream checks that a rewrite from one
// queue is what the next chain's queue sees (the sanitizer depends on it).
func TestOutputBatchRewriteFlowsDownstream(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	nf.Append(ChainPostrouting, Rule{Target: TargetQueue, QueueNum: 2})
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet, out []BatchVerdict) {
		for i, pkt := range pkts {
			rw := pkt.Clone()
			rw.Payload = append(rw.Payload, []byte("+q1")...)
			out[i] = BatchVerdict{Verdict: VerdictAccept, Rewritten: rw}
		}
	})
	var seen []string
	nf.RegisterBatchQueue(2, func(pkts []*ipv4.Packet, out []BatchVerdict) {
		for i, pkt := range pkts {
			seen = append(seen, string(pkt.Payload))
			out[i] = BatchVerdict{Verdict: VerdictAccept}
		}
	})
	res, err := nf.OutputBatch([]*ipv4.Packet{batchPkt(0, "a"), batchPkt(1, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "a+q1" || seen[1] != "b+q1" {
		t.Fatalf("queue 2 saw %v", seen)
	}
	for i, r := range res {
		if r.Out == nil {
			t.Fatalf("pkt %d dropped", i)
		}
	}
}

// TestOutputBatchDeadQueue: packets to an unregistered queue drop with
// ErrNoQueueHandler, like the scalar path.
func TestOutputBatchDeadQueue(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 9})
	res, err := nf.OutputBatch([]*ipv4.Packet{batchPkt(0, "x")})
	if !errors.Is(err, ErrNoQueueHandler) {
		t.Fatalf("err = %v", err)
	}
	if res[0].Out != nil {
		t.Fatal("packet survived a dead queue")
	}
}

// TestOutputBatchRuleTargets: accept/drop rules partition the batch before
// any queue work, and matched subsets reach the queue as one slice.
func TestOutputBatchRuleTargets(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{
		Match:  func(pkt *ipv4.Packet) bool { return string(pkt.Payload) == "drop-me" },
		Target: TargetDrop,
	})
	nf.Append(ChainOutput, Rule{
		Match:  func(pkt *ipv4.Packet) bool { return string(pkt.Payload) == "fast-path" },
		Target: TargetAccept,
	})
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	var batchSizes []int
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet, out []BatchVerdict) {
		batchSizes = append(batchSizes, len(pkts))
		for i := range out {
			out[i] = BatchVerdict{Verdict: VerdictAccept}
		}
	})
	pkts := []*ipv4.Packet{
		batchPkt(0, "drop-me"),
		batchPkt(1, "fast-path"),
		batchPkt(2, "inspect"),
		batchPkt(3, "inspect"),
	}
	res, err := nf.OutputBatch(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Out != nil {
		t.Fatal("TargetDrop packet survived")
	}
	for i := 1; i < 4; i++ {
		if res[i].Out == nil {
			t.Fatalf("pkt %d dropped", i)
		}
	}
	if len(batchSizes) != 1 || batchSizes[0] != 2 {
		t.Fatalf("queue saw batches %v, want one batch of 2", batchSizes)
	}
}

// TestOutputBatchRetainsNoScratch pins that nothing a traversal returns
// lives in its pooled scratch: a handler that (against its contract) keeps
// the packet and verdict slices it was handed, and scribbles on them — and
// on whatever scratch the pool gives out next — after OutputBatch
// returned, changes no result; and the next traversal, on a scratch left
// longer by a bigger batch, sees no stale packet.
func TestOutputBatchRetainsNoScratch(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	nf.Append(ChainPostrouting, Rule{Target: TargetQueue, QueueNum: 2})
	var kept [][]*ipv4.Packet
	var keptOut [][]BatchVerdict
	var seen []string
	for q := 1; q <= 2; q++ {
		nf.RegisterBatchQueue(q, func(pkts []*ipv4.Packet, out []BatchVerdict) {
			kept, keptOut = append(kept, pkts), append(keptOut, out)
			for i, pkt := range pkts {
				seen = append(seen, string(pkt.Payload))
				if string(pkt.Payload) == "evil" {
					out[i] = BatchVerdict{Verdict: VerdictDrop, Aux: "denied"}
					continue
				}
				out[i] = BatchVerdict{Verdict: VerdictAccept, Aux: string(pkt.Payload)}
			}
		})
	}
	pkts := []*ipv4.Packet{batchPkt(0, "a"), batchPkt(1, "evil"), batchPkt(2, "b"), batchPkt(3, "c")}
	res, err := nf.OutputBatch(pkts)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]BatchResult(nil), res...)

	junk := batchPkt(9, "junk")
	for i := range kept {
		for j := range kept[i] {
			kept[i][j] = junk
			keptOut[i][j] = BatchVerdict{Verdict: VerdictDrop, Rewritten: junk, Aux: "junk"}
		}
	}
	sc := scratchPool.Get().(*batchScratch)
	for range 8 {
		sc.items = append(sc.items, batchItem{pkt: junk, aux: "junk"})
		sc.batch = append(sc.batch, junk)
		sc.verdicts = append(sc.verdicts, BatchVerdict{Rewritten: junk, Aux: "junk"})
	}
	sc.items, sc.batch, sc.verdicts = sc.items[:0], sc.batch[:0], sc.verdicts[:0]
	scratchPool.Put(sc)

	for i := range res {
		if res[i] != want[i] {
			t.Fatalf("result %d changed after the scratch was scribbled: %+v, was %+v", i, res[i], want[i])
		}
	}
	if res[0].Out != pkts[0] || res[1].Out != nil || res[1].Aux != "denied" || res[3].Aux != "c" {
		t.Fatalf("results %+v", res)
	}

	seen = seen[:0]
	res, err = nf.OutputBatch(pkts[2:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Out != pkts[2] || res[0].Aux != "b" || len(seen) != 2 || seen[0] != "b" || seen[1] != "b" {
		t.Fatalf("traversal after a longer one: results %+v, queues saw %v", res, seen)
	}
}
