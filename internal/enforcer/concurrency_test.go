package enforcer

import (
	"sync"
	"testing"

	"borderpatrol/internal/policy"
)

// TestConcurrentProcess drives the enforcer from many goroutines under
// -race: atomic counters and the lock-free decode path must neither race
// nor lose packets, and central reconfiguration may run concurrently.
func TestConcurrentProcess(t *testing.T) {
	e, db, apk := newEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)

	tracker := mkPacket(t, apk, db, "beacon", "download")
	clean := mkPacket(t, apk, db, "download")

	const goroutines = 8
	const perG = 500

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := setRules(e.engine, []policy.Rule{
				{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if res := e.Process(tracker); res.Verdict != policy.VerdictDrop || res.Cause != DropPolicy {
					t.Errorf("tracker packet admitted: %+v", res)
					return
				}
				if res := e.Process(clean); res.Verdict != policy.VerdictAllow {
					t.Errorf("clean packet dropped: %+v", res)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone

	if n := count(e, "bp_enforcer_verdicts_total"); n != goroutines*perG*2 {
		t.Fatalf("processed = %d, want %d", n, goroutines*perG*2)
	}
	if acc, drop := verdicts(e); acc != goroutines*perG || drop != goroutines*perG {
		t.Fatalf("accepted/dropped = %d/%d, want %d each", acc, drop, goroutines*perG)
	}
	if n := drops(e, DropPolicy); n != goroutines*perG {
		t.Fatalf("policy drops = %d, want %d", n, goroutines*perG)
	}
}
