package enforcer

import (
	"net/netip"
	"slices"
	"testing"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// TestEveryDropCauseMovesItsSeries drives each drop cause the enforcer
// returns through ProcessBatch and checks that its
// bp_enforcer_drops_total series, and only that one, moves by one packet;
// and that the registry carries a series for exactly the causes driven, so
// no series reads 0 for a drop the enforcer never makes.
func TestEveryDropCauseMovesItsSeries(t *testing.T) {
	e, db, apk := newEnforcer(t, Config{}, contextRules(t, `
{[deny][library]["com/flurry"]}
{[risk][network]["unknown"][100]}
{[threshold][block][100]}
`), policy.VerdictAllow)
	withTag := func(data []byte) *ipv4.Packet {
		pkt := &ipv4.Packet{Header: ipv4.Header{
			TTL: 64, Protocol: ipv4.ProtoTCP,
			Src: netip.MustParseAddr("10.0.0.5"),
			Dst: netip.MustParseAddr("8.8.8.8"),
		}}
		if data != nil {
			pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: data})
		}
		return pkt
	}
	encode := func(tg tag.Tag) []byte {
		b, err := tg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	unknown := dex.TruncatedHash{0xee, 0xee, 0xee, 0xee}
	cases := []struct {
		cause DropCause
		pkt   *ipv4.Packet
	}{
		{DropUntagged, withTag(nil)},
		{DropMalformedTag, withTag([]byte{0xff, 0x01})},
		{DropUnknownApp, withTag(encode(tag.Tag{AppHash: unknown, Indexes: []uint32{0}}))},
		{DropBadIndex, withTag(encode(tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{9999}}))},
		{DropPolicy, mkPacket(t, apk, db, "beacon")},
		// The device's network is unknown: the allowed stack scores 100.
		{DropRisk, mkPacket(t, apk, db, "download")},
	}
	reg := registry(e)
	read := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range reg.Snapshot() {
			if s.Name == "bp_enforcer_drops_total" {
				out[s.Labels[0].Value] = s.Value
			}
		}
		return out
	}
	var driven []string
	for _, c := range cases {
		before := read()
		res := e.ProcessBatch([]*ipv4.Packet{c.pkt}, nil)
		if res[0].Verdict != policy.VerdictDrop || res[0].Cause != c.cause {
			t.Fatalf("%v packet: verdict %v, cause %v", c.cause, res[0].Verdict, res[0].Cause)
		}
		after := read()
		for name, v := range after {
			want := before[name]
			if name == c.cause.String() {
				want++
			}
			if v != want {
				t.Errorf("%v packet: drops{cause=%q} %v → %v, want %v", c.cause, name, before[name], v, want)
			}
		}
		driven = append(driven, c.cause.String())
	}
	var registered []string
	for name := range read() {
		registered = append(registered, name)
	}
	slices.Sort(driven)
	slices.Sort(registered)
	if !slices.Equal(registered, driven) {
		t.Fatalf("bp_enforcer_drops_total causes %v, driven %v", registered, driven)
	}
}
