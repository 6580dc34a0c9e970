package experiments

import (
	"testing"

	"borderpatrol/internal/policystore"
)

// TestRunSoakSmoke is the CI chaos gate: a scaled-down soak (tens of
// thousands of packets, minutes of virtual time) that still exercises
// every churn dimension — faults, swaps with malformed candidates,
// fail-closed outages, gateway restarts, idle GC — and asserts the full
// invariant set via (*SoakResult).Check. The acceptance-grade run
// (DefaultSoakConfig, ≥1M packets) is TestRunSoakFull below.
func TestRunSoakSmoke(t *testing.T) {
	cfg := SoakConfig{
		Packets:  30_000,
		Swaps:    12,
		Restarts: 2,
		Outages:  2,
		FailMode: policystore.FailClosed,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	t.Log(res)
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	assertSoakShape(t, res, cfg)
}

// TestRunSoakFull drives the acceptance configuration: ≥1M packets at 1%
// per-fault rates, ≥50 swaps, ≥2 restarts. Skipped under -short (the CI
// race job runs the smoke; the full run executes in the default test
// sweep).
func TestRunSoakFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak skipped in -short mode")
	}
	cfg := DefaultSoakConfig()
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	t.Log(res)
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	assertSoakShape(t, res, cfg)
	if res.Packets < 1_000_000 {
		t.Fatalf("packets = %d, want >= 1M", res.Packets)
	}
}

// assertSoakShape checks the run actually exercised the churn it was
// configured for — a soak that silently skipped its faults or restarts
// would pass Check while proving nothing.
func assertSoakShape(t *testing.T, res *SoakResult, cfg SoakConfig) {
	t.Helper()
	if res.Packets < cfg.Packets {
		t.Errorf("packets = %d, want >= %d", res.Packets, cfg.Packets)
	}
	if res.Restarts != uint64(cfg.Restarts) {
		t.Errorf("restarts = %d, want %d", res.Restarts, cfg.Restarts)
	}
	if res.DegradedEnters != uint64(cfg.Outages) {
		t.Errorf("degraded enters = %d, want %d", res.DegradedEnters, cfg.Outages)
	}
	if res.DegradedDrops == 0 {
		t.Error("no packets denied during degraded windows")
	}
	if res.Swaps == 0 || res.RejectedSwaps == 0 {
		t.Errorf("swaps = %d applied / %d rejected, want both > 0", res.Swaps, res.RejectedSwaps)
	}
	for _, stage := range []string{"drop", "duplicate", "reorder", "corrupt", "truncate", "delay"} {
		if res.Faults[stage] == 0 {
			t.Errorf("fault plan under-exercised: no %s in %v", stage, res.Faults)
		}
	}
	if res.GCConnsReclaimed == 0 {
		t.Error("idle GC never reclaimed a half-open connection (lost FINs should produce them)")
	}
	if res.Delivered == 0 {
		t.Error("nothing was delivered")
	}
	if res.DupCloses == 0 {
		t.Error("no duplicate closes observed (duplicated FINs should produce them)")
	}
	if res.ResponsesChecked == 0 {
		t.Error("response-direction continuity check never ran")
	}
	if res.ResponseAdopts == 0 {
		t.Error("no mid-stream adoptions (restarts wipe the tracker; their responses should re-prime)")
	}
	if len(res.Snapshots) < 10 {
		t.Errorf("in-run snapshots = %d, want >= 10", len(res.Snapshots))
	}
	for i, s := range res.Snapshots {
		if s.Epoch == 0 || s.VirtualTime <= 0 {
			t.Errorf("snapshot %d not filled in: %+v", i, s)
		}
	}
}

// TestLeakTrendDetectsMonotoneGrowth injects synthetic snapshot series
// into Check: a steadily climbing conntrack (the half-open-leak signature)
// must fail the run even though every end-state field is clean.
func TestLeakTrendDetectsMonotoneGrowth(t *testing.T) {
	res := &SoakResult{ResponsesChecked: 1}
	for i := 0; i < 16; i++ {
		res.Snapshots = append(res.Snapshots, SoakSnapshot{
			Epoch:     i + 1,
			ConnsOpen: 100 + i*50, // 100 -> 850: monotone, >1.5x, >64 absolute
			FlowsLive: 40 + (i%2)*30,
			HeapBytes: 32 << 20,
		})
	}
	if err := res.Check(); err == nil {
		t.Fatal("Check passed despite a monotone conntrack growth trend")
	}
}

func TestLeakTrendIgnoresHealthyChurn(t *testing.T) {
	res := &SoakResult{ResponsesChecked: 1}
	for i := 0; i < 16; i++ {
		res.Snapshots = append(res.Snapshots, SoakSnapshot{
			Epoch:     i + 1,
			ConnsOpen: 200 + (i%3)*80, // oscillates, no trend
			FlowsLive: 500 - i*10,     // shrinking
			HeapBytes: int64(30+i%4) << 20,
		})
	}
	if err := res.Check(); err != nil {
		t.Fatalf("Check flagged healthy oscillation: %v", err)
	}
}

func TestLeakTrendUnit(t *testing.T) {
	mono := make([]int64, 20)
	for i := range mono {
		mono[i] = int64(100 + i*20)
	}
	if !leakTrend(mono, 64) {
		t.Error("monotone growth not flagged")
	}
	if leakTrend(mono[:8], 64) {
		t.Error("series shorter than 10 samples must never trip")
	}
	plateau := []int64{100, 200, 300, 400, 500, 500, 500, 500, 500, 500, 500, 500}
	if leakTrend(plateau, 64) {
		t.Error("climb-to-plateau flagged as leak (only 4/11 strict increases)")
	}
	small := make([]int64, 20)
	for i := range small {
		small[i] = int64(10 + i) // grows, but by less than minAbs
	}
	if leakTrend(small, 64) {
		t.Error("sub-threshold growth flagged")
	}
}
