package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// Test scales. The soak smoke pushes about 30,000 packets over hours of
// virtual time and still exercises every churn dimension; the full soak is
// the acceptance run of at least 1M packets.
const (
	soakSmokeEpochs, soakSmokeSwaps = 450, 12
	soakFullEpochs, soakFullSwaps   = 15_300, 60
)

// runTable runs a table, holds the result to Check, and breaks the counter
// behind every named check the table arms (brokenChecks): Check must then
// reject the result through that check.
func runTable(t *testing.T, sc Scenario) *ScenarioResult {
	t.Helper()
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	for _, c := range brokenChecks {
		if !slices.Contains(c.tables, sc.name) {
			continue
		}
		broken := *res
		c.brk(&broken)
		if broken.Check() == nil || !failing(&broken, c.check) {
			t.Errorf("%s: check %s passed a broken result", sc.name, c.check)
		}
	}
	return res
}

// TestRunSoakSmoke is the CI chaos gate: the soak table at smoke scale —
// faults, swaps with malformed candidates, fail-closed outages, gateway
// restarts, idle GC — held to every named check and to its shape.
func TestRunSoakSmoke(t *testing.T) {
	assertSoakShape(t, runTable(t, SoakScenario(2019, soakSmokeEpochs, soakSmokeSwaps)), 30_000)
}

// TestRunSoakFull drives the acceptance scale: at least 1M packets at 1 %
// per-fault rates, 60 swaps, 3 restarts. Skipped under -short.
func TestRunSoakFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak skipped in -short mode")
	}
	assertSoakShape(t, runTable(t, SoakScenario(2019, soakFullEpochs, soakFullSwaps)), 1_000_000)
}

// assertSoakShape checks the run exercised the churn it was planned for: a
// soak that silently skipped its faults or restarts would pass Check while
// proving nothing.
func assertSoakShape(t *testing.T, res *ScenarioResult, packets int) {
	t.Helper()
	if res.Packets < packets {
		t.Errorf("packets = %d, want >= %d", res.Packets, packets)
	}
	if res.Restarts != soakRestarts {
		t.Errorf("restarts = %d, want %d", res.Restarts, soakRestarts)
	}
	if res.Outages != soakOutages || res.DegradedEnters != soakOutages {
		t.Errorf("outages = %d, degraded enters = %d, want %d", res.Outages, res.DegradedEnters, soakOutages)
	}
	if res.DegradedDrops == 0 {
		t.Error("no packets denied during degraded windows")
	}
	if res.Swaps == 0 || res.Rejected == 0 {
		t.Errorf("swaps = %d applied / %d rejected, want both > 0", res.Swaps, res.Rejected)
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

// TestRunReloadUnderLoad is the acceptance gate for the policy store: rule
// swaps racing saturating batched traffic never produce a verdict the model
// gives neither before nor after the swap, malformed candidates are
// rejected with the last-good rules serving, and the engine generation
// advances exactly once per applied swap (Check). Its split check counts
// only sends that started while a swap was being applied, so it needs two
// CPUs: on one, nothing runs beside the swap.
func TestRunReloadUnderLoad(t *testing.T) {
	swaps := 150
	if testing.Short() {
		swaps = 40
	}
	res := runTable(t, ReloadScenario(swaps))
	if res.Swaps == 0 || res.Raced == 0 || res.Packets == 0 {
		t.Fatalf("swaps = %d, raced events = %d, packets = %d: the run raced nothing", res.Swaps, res.Raced, res.Packets)
	}
	if res.PolicyVersion == "" || res.PolicyRules == 0 {
		t.Fatalf("store lost its last-good state: %s (%d rules)", res.PolicyVersion, res.PolicyRules)
	}
}

// TestRunContextSmoke runs the context table at a reduced scale and checks
// its population shape and the JSON export.
func TestRunContextSmoke(t *testing.T) {
	res := runTable(t, ContextScenario(2019, 16, 20_000))
	// 16 devices round-robin over 4 groups: 4 each.
	for name, n := range res.Groups {
		if n != 4 {
			t.Fatalf("group %s ran %d devices, want 4", name, n)
		}
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %v, want 4", res.Groups)
	}
	// Exactly the trusted devices but the hot one were flipped. 16
	// consecutive pool addresses share no stripe, so no flip may touch
	// another device's cached flow.
	if res.FlippedDevices != 3 || res.StripeMates != 0 || res.Bystanders != 0 {
		t.Fatalf("flipped %d devices, %d stripe mates, %d bystander re-evaluations, want 3, 0, 0",
			res.FlippedDevices, res.StripeMates, res.Bystanders)
	}
	// The time-window cohort: 4 cellular + 4 unknown flows across both
	// edges of the lockdown, one re-evaluation per flow per edge.
	if res.TimeFlows != 8 || res.TimeEdges != 2 || res.TimeReevaluations != 16 {
		t.Fatalf("time window: %d flows, %d edges, %d re-evaluations", res.TimeFlows, res.TimeEdges, res.TimeReevaluations)
	}
	if res.ModelWarns == 0 || res.ModelBlocks == 0 || res.HitPackets != 20_000 {
		t.Fatalf("model warned %d, blocked %d; %d timed hits", res.ModelWarns, res.ModelBlocks, res.HitPackets)
	}
	path := filepath.Join(t.TempDir(), "BENCH_context.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ScenarioResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.StaleAllows != 0 || back.FlippedDevices != res.FlippedDevices || back.Check() != nil {
		t.Fatalf("JSON round trip: %+v", back)
	}
}

// brokenChecks breaks the counter behind every named check, on each table
// whose run arms it; runTable applies the cases to its table's result.
var brokenChecks = []struct {
	check  string
	tables []string
	brk    func(r *ScenarioResult)
}{
	{"fail-safe", allTables, func(r *ScenarioResult) { r.FailSafeViolations = 1 }},
	{"verdicts", allTables, func(r *ScenarioResult) { r.VerdictMismatches = 1 }},
	{"torn", allTables, func(r *ScenarioResult) { r.TornVerdicts = 1 }},
	{"divergent", []string{"reload"}, func(r *ScenarioResult) { r.Divergent = 0 }},
	{"split", []string{"reload"}, func(r *ScenarioResult) { r.VerdictsOld = 0 }},
	{"split", []string{"reload"}, func(r *ScenarioResult) { r.VerdictsNew = 0 }},
	// A store that took a push in other than one round, one apply and one
	// generation per changed shard.
	{"push", allTables, func(r *ScenarioResult) { r.PushOff = 1 }},
	{"generation", allTables, func(r *ScenarioResult) { r.GenerationDelta++ }},
	{"rejected", []string{"soak", "reload"}, func(r *ScenarioResult) { r.Rejected = 0 }},
	{"rejected", allTables, func(r *ScenarioResult) { r.Rejected++ }},
	{"degraded", allTables, func(r *ScenarioResult) { r.Outages = int(r.DegradedEnters) + 1 }},
	{"stale-drops", allTables, func(r *ScenarioResult) { r.StaleDrops = 0 }},
	{"response-drops", allTables, func(r *ScenarioResult) { r.SpuriousResponseDrops = 1 }},
	{"responses-checked", allTables, func(r *ScenarioResult) { r.ResponsesChecked = 0 }},
	{"seq-drop", allTables, func(r *ScenarioResult) { r.ResponseSeqDrops = 1 }},
	{"stale-allows", allTables, func(r *ScenarioResult) { r.StaleAllows = 1 }},
	{"post-flip-drops", []string{"context"}, func(r *ScenarioResult) { r.PostFlipDrops-- }},
	{"post-flip-drops", allTables, func(r *ScenarioResult) { r.PostFlipDrops++ }},
	// A flip that re-evaluated more than its stripe.
	{"bystanders", allTables, func(r *ScenarioResult) { r.BystanderOverruns = 1 }},
	{"invalidations", []string{"context"}, func(r *ScenarioResult) {
		r.Invalidations = map[string]uint64{"network": r.Invalidations["network"]}
	}},
	{"risk", []string{"context"}, func(r *ScenarioResult) { r.RiskWarns = 0 }},
	{"risk", []string{"context"}, func(r *ScenarioResult) { r.RiskBlocks = 0 }},
	{"time-stale-allows", allTables, func(r *ScenarioResult) { r.StaleTimeAllows = 1 }},
	// A flow scored more, or less, often than once per time edge.
	{"time-reevaluations", allTables, func(r *ScenarioResult) { r.TimeReevaluations++ }},
	{"time-reevaluations", []string{"context"}, func(r *ScenarioResult) { r.TimeReevaluations-- }},
	{"cache-hit", []string{"context"}, func(r *ScenarioResult) { r.HitNsPerPkt = 0 }},
	{"cache-hit", []string{"context"}, func(r *ScenarioResult) { r.HitNsPerPkt = 30_000 }},
	{"conns-leaked", allTables, func(r *ScenarioResult) { r.ConnsLeaked = 1 }},
	{"flows-leaked", allTables, func(r *ScenarioResult) { r.FlowsLeaked = 1 }},
	{"goroutines-leaked", allTables, func(r *ScenarioResult) { r.GoroutinesLeaked = 1 }},
	{"heap", allTables, func(r *ScenarioResult) { r.HeapGrowth = scenarioHeapBound + 1 }},
	// A steadily climbing conntrack is the half-open-leak signature.
	{"conns-trend", allTables, func(r *ScenarioResult) { climb(r, func(s *Snapshot, i int) { s.ConnsOpen = 100 + i*50 }) }},
	{"flows-trend", allTables, func(r *ScenarioResult) { climb(r, func(s *Snapshot, i int) { s.FlowsLive = 100 + i*50 }) }},
	{"heap-trend", allTables, func(r *ScenarioResult) { climb(r, func(s *Snapshot, i int) { s.HeapBytes = int64(16+i*4) << 20 }) }},
}

var allTables = []string{"soak", "reload", "context", "fleet"}

// climb replaces r's snapshots with a series that one resource climbs
// across.
func climb(r *ScenarioResult, set func(*Snapshot, int)) {
	r.Snapshots = make([]Snapshot, 16)
	for i := range r.Snapshots {
		r.Snapshots[i] = Snapshot{Epoch: i + 1, ConnsOpen: 10, FlowsLive: 10, HeapBytes: 32 << 20}
		set(&r.Snapshots[i], i)
	}
}

// TestScenarioChecksCanFail: every named check has a case in brokenChecks,
// so each table test shows that each check it arms can fail.
func TestScenarioChecksCanFail(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range brokenChecks {
		covered[c.check] = len(c.tables) > 0
	}
	for _, c := range (&ScenarioResult{}).checks() {
		if !covered[c.name] {
			t.Errorf("no case breaks check %s", c.name)
		}
	}
}

// failing reports whether the named check fails on r.
func failing(r *ScenarioResult, name string) bool {
	for _, c := range r.checks() {
		if c.name == name {
			return c.failed
		}
	}
	return false
}

// TestScenarioPolicyWriteFailureEndsRun: an event whose policy write fails
// returns the error, where the old reload swapper ended its swaps silently.
// A directory at the policy path makes the write fail, even as root.
func TestScenarioPolicyWriteFailureEndsRun(t *testing.T) {
	r, err := startScenario(ContextScenario(2019, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := os.Remove(r.path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(r.path, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range []epoch{{swap: true}, {malformed: true}} {
		if err := r.events(e); err == nil || !strings.Contains(err.Error(), "write policy") {
			t.Errorf("%+v: events returned %v, want the failed write", e, err)
		}
	}
	if err := r.step(epoch{swap: true}); err == nil {
		t.Error("an epoch over an unwritable policy file succeeded")
	}
}

// TestScenarioPastInstantEndsRun: an epoch's instant is a time of day, not
// a step, and a run whose traffic already carried the clock past it fails
// rather than probing a later instant.
func TestScenarioPastInstantEndsRun(t *testing.T) {
	r, err := startScenario(ContextScenario(2019, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.step(epoch{}); err != nil {
		t.Fatal(err)
	}
	now := r.tb.Network.Clock.Now()
	if err := r.step(epoch{at: now + time.Second}); err != nil || r.tb.Network.Clock.Now() < now+time.Second {
		t.Fatalf("step to %v: %v, clock reads %v", now+time.Second, err, r.tb.Network.Clock.Now())
	}
	if err := r.step(epoch{at: now}); err == nil || !strings.Contains(err.Error(), "past the epoch's instant") {
		t.Fatalf("step back to %v returned %v, want the past-instant error", now, err)
	}
}

// TestLeakTrendDetectsMonotoneGrowth injects a synthetic snapshot series
// into Check: a steadily climbing conntrack (the half-open-leak signature)
// must fail the run even though every end-state field is clean.
func TestLeakTrendDetectsMonotoneGrowth(t *testing.T) {
	res := &ScenarioResult{ResponsesChecked: 1}
	for i := 0; i < 16; i++ {
		res.Snapshots = append(res.Snapshots, Snapshot{
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
	res := &ScenarioResult{ResponsesChecked: 1}
	for i := 0; i < 16; i++ {
		res.Snapshots = append(res.Snapshots, Snapshot{
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
