package audit

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/policy"
)

// FuzzReadEntries: no input panics the audit-trail reader, and the line a
// Log writes for a decision built from the input — its rule target and a
// stack frame's class name are the input's bytes — reads back equal to
// the Log's own tail entry.
func FuzzReadEntries(f *testing.F) {
	var trail bytes.Buffer
	l := New(&trail, 4)
	l.Record(samplePacket(), dropResult())
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(trail.Bytes())
	f.Add([]byte(`{"seq":1,"src":"10.66.0.2"}` + "\n" + `{"seq":`))
	f.Add([]byte(`{"stack":["Lcom/a;->b()V",1]}`))
	f.Add([]byte("\xff\xfe not json"))
	f.Fuzz(func(t *testing.T, b []byte) {
		ReadEntries(bytes.NewReader(b)) // any input: an error, never a panic

		pkt, res := samplePacket(), dropResult()
		pkt.Payload = b
		if len(b) >= 4 {
			pkt.Header.Src = netip.AddrFrom4([4]byte(b[:4]))
		}
		if len(b) >= 16 {
			pkt.Header.Dst = netip.AddrFrom16([16]byte(b[:16]))
		}
		copy(res.AppHash[:], b)
		if len(b) > 0 && b[0]&1 == 1 {
			res.Verdict = policy.VerdictAllow
		}
		rule := *res.Access.Rule
		rule.Target = string(b)
		res.Access = &policy.Access{Verdict: res.Verdict, Rule: &rule}
		res.Stack = append(res.Stack, dex.Signature{Package: "com/app", Class: string(b), Name: "run", Proto: "()V"})

		var out bytes.Buffer
		l := New(&out, 4)
		l.Record(pkt, res)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEntries(&out)
		if err != nil {
			t.Fatalf("written trail %q does not read back: %v", out.Bytes(), err)
		}
		if want := l.Tail(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trail read back as %+v, want %+v", got, want)
		}
	})
}
