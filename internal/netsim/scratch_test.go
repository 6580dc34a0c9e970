package netsim

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"borderpatrol/internal/audit"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/gateway"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// TestDeliveryOutlivesKernelScratch: a burst runs on pooled scratch (the
// burst, its workers' index and packet slices), which the next bursts
// reuse. The deliveries of a burst written into a Batch of the caller's
// own, the enforcement results they point at and the burst's audit trail
// must stay as they were after later bursts — of other flows, with other
// verdicts — went through the same scratch. (DeliverBatch's deliveries
// live only until its next call: TestDeliverBatchReusesKeptBatch.)
func TestDeliveryOutlivesKernelScratch(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	log := audit.New(nil, 64)
	defer log.Close()
	clock := NewClock()
	enf := shipped(clock, true, enforcer.Config{Audit: log}, db, eng)
	gw := gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Clock: clock})
	n := newStaticNetwork(ModeTAP, gw)

	allowed := keepAliveBurst(t, taggedPacket(t, apk, db, "sync"), 41000, 1)
	denied := keepAliveBurst(t, taggedPacket(t, apk, db, "beacon"), 41001, 1)
	burst := append(append([]*ipv4.Packet(nil), allowed...), denied...)
	var own Batch
	dels := n.DeliverInto(&own, burst)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	trail := log.Tail()
	results := make([]enforcer.Result, len(dels))
	for i, d := range dels {
		if d.Enforcement == nil || d.Delivered != (i < len(allowed)) {
			t.Fatalf("packet %d: %+v", i, d)
		}
		results[i] = *d.Enforcement
	}
	if len(trail) != len(burst) {
		t.Fatalf("%d audit entries for %d packets", len(trail), len(burst))
	}

	for port := uint16(42000); port < 42008; port++ {
		n.DeliverBatch(keepAliveBurst(t, taggedPacket(t, apk, db, "beacon"), port, 3))
	}

	for i, d := range dels {
		if !reflect.DeepEqual(*d.Enforcement, results[i]) {
			t.Fatalf("packet %d: enforcement result changed after its burst: %+v, was %+v", i, *d.Enforcement, results[i])
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := log.Tail()[:len(trail)]; !reflect.DeepEqual(got, trail) {
		t.Fatalf("audit trail changed after its burst:\n%+v\nwas\n%+v", got, trail)
	}
}

// TestDeliverBatchReusesKeptBatch pins DeliverBatch's lifetime rule: the
// next call on the same Network writes into the storage the last one
// returned, deliveries and the enforcement results they point at alike,
// while a burst written into a Batch of the caller's own stays apart from
// it and intact.
func TestDeliverBatchReusesKeptBatch(t *testing.T) {
	n, _, _, base := tailFixture(t)
	first := n.DeliverBatch(keepAliveBurst(t, base, 41000, 1))
	d0, r0 := &first[0], first[0].Enforcement
	if r0 == nil {
		t.Fatalf("first burst not enforced: %+v", first[0])
	}
	second := n.DeliverBatch(keepAliveBurst(t, base, 41001, 1))
	if &second[0] != d0 || second[0].Enforcement != r0 {
		t.Fatalf("second DeliverBatch wrote into new storage: deliveries %p, results %p; were %p, %p",
			&second[0], second[0].Enforcement, d0, r0)
	}

	var own Batch
	mine := n.DeliverInto(&own, keepAliveBurst(t, base, 41002, 1))
	want := make([]Delivery, len(mine))
	results := make([]enforcer.Result, len(mine))
	for i, d := range mine {
		if &mine[i] == d0 || d.Enforcement == r0 {
			t.Fatalf("packet %d: DeliverInto wrote into DeliverBatch's storage", i)
		}
		want[i], results[i] = d, *d.Enforcement
	}
	if third := n.DeliverBatch(keepAliveBurst(t, base, 41003, 1)); &third[0] != d0 {
		t.Fatalf("third DeliverBatch wrote into new storage")
	}
	for i, d := range mine {
		if !reflect.DeepEqual(d, want[i]) || !reflect.DeepEqual(*d.Enforcement, results[i]) {
			t.Fatalf("packet %d: caller-owned delivery changed: %+v, was %+v", i, d, want[i])
		}
	}
}

// TestDeliverBatchFleetBurstAllocatesNothing: in steady state a
// 1,024-packet fleet burst, every packet another flow and the burst spread
// over the workers, costs DeliverBatch no allocation. The deliveries and
// the enforcement results are written into the Network's kept Batch, split
// into one share per worker. The count is the least over 16 bursts, not
// their mean: the race detector makes sync.Pool drop a share of what is
// put back, so now and then a burst starts from fresh, unsized scratch.
func TestDeliverBatchFleetBurstAllocatesNothing(t *testing.T) {
	n, _, _, base := tailFixture(t)
	bursts := fleetBursts(t, base, 1024, 16)
	k := 0
	deliver := func() {
		for i, d := range n.DeliverBatch(bursts[k%len(bursts)]) {
			if !d.Delivered || d.ResponseDropped || d.Enforcement == nil {
				t.Fatalf("burst %d packet %d: %+v", k, i, d)
			}
		}
		k++
	}
	for range bursts {
		deliver()
	}
	least := math.Inf(1)
	for range 16 {
		least = min(least, testing.AllocsPerRun(1, deliver))
	}
	if least != 0 {
		t.Fatalf("steady-state fleet burst: %.0f allocs, want 0", least)
	}
}

// TestConcurrentCallerOwnedDeliveries: deliveries written into Batches of
// their callers' own stay theirs while other goroutines deliver on the
// same Network, one of them through DeliverBatch and one through Deliver.
// Each goroutine sends its own connections, allowed and denied by turns,
// and checks its deliveries and the results they point at, the
// caller-owned ones again after its next burst. Run with -race.
func TestConcurrentCallerOwnedDeliveries(t *testing.T) {
	eng, apk, db := buildEngineAndDB(t)
	n := newStaticNetwork(ModeTAP, nil)
	enf := shipped(n.Clock, true, enforcer.Config{}, db, eng)
	n.Gateway = gateway.NewGateway(gateway.GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(), Workers: 2, Clock: n.Clock})
	allow, deny := taggedPacket(t, apk, db, "sync"), taggedPacket(t, apk, db, "beacon")

	const goroutines, rounds = 4, 24
	// Round r of goroutine g is 64 connections, allowed on even rounds:
	// enough packets that the burst spreads over both workers.
	bursts := make([][][]*ipv4.Packet, goroutines)
	for g := range bursts {
		for r := 0; r < rounds; r++ {
			base := allow
			if r%2 == 1 {
				base = deny
			}
			var burst []*ipv4.Packet
			for c := 0; c < 64; c++ {
				burst = append(burst, keepAliveBurst(t, base, uint16(10000+(g*rounds+r)*64+c), 1)...)
			}
			bursts[g] = append(bursts[g], burst)
		}
	}
	check := func(g, r int, dels []Delivery) error {
		allowed := r%2 == 0
		wantVerdict, wantMethod := policy.VerdictAllow, "sync"
		if !allowed {
			wantVerdict, wantMethod = policy.VerdictDrop, "beacon"
		}
		if len(dels) != len(bursts[g][r]) {
			return fmt.Errorf("goroutine %d round %d: %d deliveries for %d packets", g, r, len(dels), len(bursts[g][r]))
		}
		for i, d := range dels {
			e := d.Enforcement
			if d.Delivered != allowed || e == nil || e.Verdict != wantVerdict ||
				len(e.Stack) == 0 || e.Stack[len(e.Stack)-1].Name != wantMethod {
				return fmt.Errorf("goroutine %d round %d packet %d: %+v, result %+v", g, r, i, d, e)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own [2]Batch
			var prev []Delivery
			for r, burst := range bursts[g] {
				var dels []Delivery
				switch g {
				case 0:
					dels = n.DeliverBatch(burst)
				case 1:
					for _, pkt := range burst {
						dels = append(dels, n.Deliver(pkt))
					}
				default:
					dels = n.DeliverInto(&own[r%2], burst)
				}
				if err := check(g, r, dels); err != nil {
					errs <- err
					return
				}
				if g != 0 && prev != nil {
					if err := check(g, r-1, prev); err != nil {
						errs <- fmt.Errorf("after the next burst: %w", err)
						return
					}
				}
				prev = dels
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkDeliverBatchConnect is one connection as the connect workload
// sends it — SYN, one request, FIN in one burst — through DeliverBatch:
// enforcer (a flow miss, then the memo), sanitizer, conntrack, server and
// response check. One op is one burst. Source ports cycle as in
// BenchmarkServeKeepAlive.
func BenchmarkDeliverBatchConnect(b *testing.B) {
	n, _, _, base := tailFixture(b)
	bursts := make([][]*ipv4.Packet, 1024)
	for i := range bursts {
		bursts[i] = keepAliveBurst(b, base, uint16(20000+i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range n.DeliverBatch(bursts[i%len(bursts)]) {
			if !d.Delivered || d.ResponseDropped {
				b.Fatalf("delivery: %+v", d)
			}
		}
	}
}
