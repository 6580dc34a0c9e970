package experiments

import (
	"net/netip"
	"strings"
	"testing"
)

// TestDNSResolutionEndToEnd is the DNS-over-UDP acceptance test: tagged
// query datagrams traverse the gateway, get policy verdicts, and resolve
// against the zone — while the deny-listed component's queries die at the
// enforcement point without ever reaching the resolver.
func TestDNSResolutionEndToEnd(t *testing.T) {
	res, err := RunDNSResolution()
	if err != nil {
		t.Fatal(err)
	}
	// 3 files + 1 ghost + 2 c2 queries.
	if res.QueriesSent != 6 {
		t.Fatalf("queries sent = %d, want 6", res.QueriesSent)
	}
	if res.Blocked != 2 {
		t.Fatalf("blocked = %d, want 2 (the Beacon class queries)", res.Blocked)
	}
	if res.Answered != 4 || res.NXDomain != 1 {
		t.Fatalf("answered = %d (nx %d), want 4 (nx 1)", res.Answered, res.NXDomain)
	}
	if got := res.Resolved["files.corp.example"]; len(got) != 1 || got[0] != netip.MustParseAddr("10.80.0.10") {
		t.Fatalf("files.corp.example resolved to %v", got)
	}
	if _, leaked := res.Resolved["c2.tracker.example"]; leaked {
		t.Fatal("deny-listed component resolved its rendezvous name")
	}
	// The zone saw only delivered queries.
	if res.ZoneQueries != 4 {
		t.Fatalf("zone queries = %d, want 4", res.ZoneQueries)
	}
	// UDP flows are cached on the 5-tuple: per functionality one miss,
	// repeats hit (3 sockets → 3 misses; files repeats 2×, c2 repeats 1×
	// against its cached drop).
	if res.FlowMisses != 3 {
		t.Fatalf("flow misses = %d, want 3 (one per UDP socket)", res.FlowMisses)
	}
	if res.FlowHits+res.MemoHits != 3 {
		t.Fatalf("flow hits = %d + memo %d, want 3 (repeat queries cached)",
			res.FlowHits, res.MemoHits)
	}
	// Connectionless: nothing tracked, nothing closed.
	if res.ConnsEstablished != 0 || res.ConnsOpen != 0 {
		t.Fatalf("conntrack tracked UDP: %d established, %d open", res.ConnsEstablished, res.ConnsOpen)
	}
	out := res.Format()
	for _, want := range []string{"DNS over UDP", "files.corp.example", "blocked at gateway: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q", want)
		}
	}
}
