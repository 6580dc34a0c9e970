package enforcer

import (
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/transport"
)

// withTCP wraps a test packet's bare HTTP payload in a TCP segment with
// the given source port (destination 443) — the shape the wire carries.
func withTCP(pkt *ipv4.Packet, srcPort uint16) *ipv4.Packet {
	out := pkt.Clone()
	seg := transport.TCPSegment{
		SrcPort: srcPort, DstPort: 443, Seq: 1,
		Flags: transport.FlagPSH | transport.FlagACK, Window: 65535,
		Payload: pkt.Payload,
	}
	out.Payload = seg.Marshal()
	return out
}

// TestTCPPortsSeparateFlows: two connections between the same host pair
// with the same tag — two apps, or two sockets of one app — get distinct
// flow entries now that the key carries real ports.
func TestTCPPortsSeparateFlows(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	base := mkPacket(t, apk, db, "download")

	connA := withTCP(base, 40001)
	connB := withTCP(base, 40002)

	if res := e.Process(connA); res.Verdict != policy.VerdictAllow {
		t.Fatalf("connA: %+v", res)
	}
	if res := e.Process(connB); res.Verdict != policy.VerdictAllow {
		t.Fatalf("connB: %+v", res)
	}
	if misses, live := count(e, "bp_flowtable_misses_total"), count(e, "bp_flowtable_live"); misses != 2 || live != 2 {
		t.Fatalf("same-endpoint connections shared a flow entry: misses %d, live %d", misses, live)
	}
	// Repeats on each connection hit their own entry.
	e.Process(connA)
	e.Process(connB)
	if n := count(e, "bp_flowtable_hits_total"); n != 2 {
		t.Fatalf("flow hits = %d, want 2", n)
	}
}

// TestEndFlowTearsDownOnlyItsConnection: FIN-driven teardown keyed on the
// 5-tuple must not evict a sibling connection between the same hosts.
func TestEndFlowTearsDownOnlyItsConnection(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	base := mkPacket(t, apk, db, "download")
	connA := withTCP(base, 40001)
	connB := withTCP(base, 40002)
	e.Process(connA)
	e.Process(connB)

	if !e.EndFlow(connA) {
		t.Fatal("EndFlow missed connA")
	}
	if n := count(e, "bp_flowtable_live"); n != 1 {
		t.Fatalf("live flows = %d after one teardown, want 1", n)
	}
	// connB still hits; connA re-resolves.
	e.Process(connB)
	if n := count(e, "bp_flowtable_hits_total"); n != 1 {
		t.Fatalf("sibling connection lost its entry: %d hits", n)
	}
}

// TestFragmentsNotKeyedByGarbagePorts: fragments of a tagged TCP packet
// all get verdicts (the copied tag decides them), but only the first
// fragment — the one actually carrying the transport header — may
// contribute ports to its flow key. Non-first fragments key with zero
// ports rather than garbage payload bytes.
func TestFragmentsNotKeyedByGarbagePorts(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	base := mkPacket(t, apk, db, "download")
	full := withTCP(base, 40001)
	// Grow the payload so fragmentation yields several pieces.
	seg, err := transport.ParseTCP(full.Payload)
	if err != nil {
		t.Fatal(err)
	}
	seg.Payload = append(seg.Payload, make([]byte, 4000)...)
	full.Payload = seg.Marshal()

	frags, err := ipv4.Fragment(full, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("got %d fragments", len(frags))
	}
	for i, f := range frags {
		if res := e.Process(f); res.Verdict != policy.VerdictAllow {
			t.Fatalf("fragment %d dropped: %+v", i, res)
		}
	}
	// Two flow entries: the first fragment's ported key, and one shared
	// port-less key for every non-first fragment (they must all collapse
	// onto the same zero-port key — garbage ports would scatter them).
	if n := count(e, "bp_flowtable_live"); n != 2 {
		t.Fatalf("live flows = %d, want 2 (ported + port-less)", n)
	}
	wantHits := uint64(len(frags) - 2) // non-first fragments after the first miss
	if n := count(e, "bp_flowtable_hits_total"); n != wantHits {
		t.Fatalf("hits = %d, want %d (non-first fragments share one key)", n, wantHits)
	}
}

// TestLegacyPayloadKeysWithZeroPorts: a payload that is not a transport
// header (bare HTTP bytes, which no device emits any more but an attacker
// can) is never read as ports — it keys with ports zero, one flow per
// (endpoints, proto, tag).
func TestLegacyPayloadKeysWithZeroPorts(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	bare := mkPacket(t, apk, db, "download") // raw HTTP payload
	e.Process(bare)
	e.Process(bare)
	misses, hits, live := count(e, "bp_flowtable_misses_total"), count(e, "bp_flowtable_hits_total"), count(e, "bp_flowtable_live")
	if misses != 1 || hits != 1 || live != 1 {
		t.Fatalf("headerless keying changed: misses/hits/live %d/%d/%d", misses, hits, live)
	}
}
