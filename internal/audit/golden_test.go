package audit

import (
	"encoding/json"
	"net/netip"
	"os"
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

// goldenView is what testdata/tail_golden.json holds: Tail() after
// goldenSequence, as rendered by the last commit that stringified every
// entry in the drainer. The lazily rendered tail must reproduce it byte
// for byte.
type goldenView struct {
	Tail []Entry `json:"tail"`
}

// goldenSequence records a fixed mix over several drains into a log whose
// tail is shorter than the sequence, so it turns over more than once:
// policy drops with rule and stack, a second app's unknown-app drop with
// neither, an untagged drop with a zero hash, allows with and without
// context, an IPv6 source, and one burst longer than the tail.
func goldenSequence(l *Log) goldenView {
	other := dropResult()
	other.AppHash[0] = 0x01
	other.Cause = enforcer.DropUnknownApp
	other.Access, other.Stack = nil, nil
	allowCtx := dropResult()
	allowCtx.Verdict = policy.VerdictAllow
	allowCtx.Access = &policy.Access{Verdict: policy.VerdictAllow}
	mix := []enforcer.Result{
		dropResult(),
		{Verdict: policy.VerdictAllow},
		other,
		{Verdict: policy.VerdictDrop, Cause: enforcer.DropUntagged},
		allowCtx,
	}
	v6 := samplePacket()
	v6.Header.Src = netip.MustParseAddr("2001:db8::7")
	v6.Payload = nil
	for round := 0; round < 5; round++ {
		for i, res := range mix {
			pkt := samplePacket()
			if (round+i)%4 == 0 {
				pkt = v6
			}
			l.Record(pkt, res)
		}
		if round%2 == 0 {
			l.Flush()
		}
	}
	var burst []*ipv4.Packet
	var results []enforcer.Result
	for i := 0; i < 11; i++ {
		burst = append(burst, samplePacket())
		results = append(results, mix[i%len(mix)])
	}
	l.RecordBatch(burst, results)
	l.Record(v6, other)
	return goldenView{Tail: l.Tail()}
}

func TestTailMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tail_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	l := New(nil, 8)
	defer l.Close()
	got, err := json.MarshalIndent(goldenSequence(l), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("Tail differs from testdata/tail_golden.json:\n%s", got)
	}
}
