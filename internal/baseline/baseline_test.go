package baseline

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

func mkPkt(src, dst string, payload int) *ipv4.Packet {
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr(src),
			Dst: netip.MustParseAddr(dst),
		},
		Payload: make([]byte, payload),
	}
}

func TestIPBlocklist(t *testing.T) {
	b := NewIPBlocklist(netip.MustParseAddr("203.0.113.7"))
	if b.Decide(mkPkt("10.0.0.5", "203.0.113.7", 10)) != policy.VerdictDrop {
		t.Fatal("blocked IP passed")
	}
	if b.Decide(mkPkt("10.0.0.5", "198.18.0.1", 10)) != policy.VerdictAllow {
		t.Fatal("clean IP dropped")
	}
	b.Block(netip.MustParseAddr("198.18.0.1"))
	if b.Decide(mkPkt("10.0.0.5", "198.18.0.1", 10)) != policy.VerdictDrop {
		t.Fatal("late-blocked IP passed")
	}
	if b.Name() != "ip-blocklist" {
		t.Fatal("name")
	}
}

func TestIPBlocklistCannotSeparateFunctions(t *testing.T) {
	// The Dropbox problem: upload and download hit the same IP. Blocking it
	// kills both — there is no configuration of the mechanism that blocks
	// one and keeps the other.
	dropboxIP := "162.125.4.1"
	b := NewIPBlocklist(netip.MustParseAddr(dropboxIP))
	upload := mkPkt("10.0.0.5", dropboxIP, 4096)
	download := mkPkt("10.0.0.5", dropboxIP, 64)
	if b.Decide(upload) != policy.VerdictDrop || b.Decide(download) != policy.VerdictDrop {
		t.Fatal("expected both directions blocked: the mechanism is all-or-nothing per IP")
	}
}

func TestFlowSizeThreshold(t *testing.T) {
	f := NewFlowSizeThreshold(1000)
	// Small flow passes.
	if f.DecideWithPort(mkPkt("10.0.0.5", "198.18.0.1", 400), 40001) != policy.VerdictAllow {
		t.Fatal("small flow dropped")
	}
	// Same socket crossing the budget drops.
	if f.DecideWithPort(mkPkt("10.0.0.5", "198.18.0.1", 700), 40001) != policy.VerdictDrop {
		t.Fatal("oversized flow passed")
	}
	if f.Name() != "flow-size-threshold" {
		t.Fatal("name")
	}
}

func TestFlowSizeThresholdEvadedByFragmentation(t *testing.T) {
	// Paper §VII: fragmenting a transfer across sockets resets the counter,
	// so a 10 KB exfiltration in 20 × 500 B sockets sails through a 1 KB
	// threshold.
	f := NewFlowSizeThreshold(1000)
	for port := uint16(41000); port < 41020; port++ {
		if f.DecideWithPort(mkPkt("10.0.0.5", "198.18.0.1", 500), port) != policy.VerdictAllow {
			t.Fatalf("fragmented chunk on port %d dropped", port)
		}
	}
}
