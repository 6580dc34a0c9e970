package dns

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"
)

// answerFixture is a zone of names with one to three addresses, a handler
// over it, and the queries for those names plus one the zone lacks.
func answerFixture(tb testing.TB, names int) (*Zone, func([]byte) []byte, [][]byte) {
	tb.Helper()
	z := NewZone()
	var queries [][]byte
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("host%d.corp.example", i)
		for j := 0; j <= i%3; j++ {
			if err := z.AddRecord(name, netip.AddrFrom4([4]byte{10, byte(j), byte(i >> 8), byte(i)})); err != nil {
				tb.Fatal(err)
			}
		}
		queries = append(queries, mustQuery(tb, uint16(i), name))
	}
	queries = append(queries, mustQuery(tb, 0xffff, "nope.example"))
	return z, ZoneHandler(z), queries
}

func mustQuery(tb testing.TB, id uint16, name string) []byte {
	tb.Helper()
	q, err := (&Query{ID: id, Name: name}).Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// want is the answer the zone gives a query, rendered by Marshal.
func want(tb testing.TB, z *Zone, query []byte) []byte {
	tb.Helper()
	q, err := ParseQuery(query)
	if err != nil {
		tb.Fatal(err)
	}
	a := &Answer{ID: q.ID, Addrs: resolve(z, q.Name)}
	if a.Addrs == nil {
		a.RCode = RCodeNXDomain
	}
	out, err := a.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestAnswerRetained: answers are cut from shared blocks, and one held
// while 10k later answers are cut (many blocks' worth) keeps its bytes.
func TestAnswerRetained(t *testing.T) {
	z, h, queries := answerFixture(t, 64)
	held := make([][]byte, len(queries))
	for i, q := range queries {
		held[i] = h(q)
	}
	for i := 0; i < 10_000; i++ {
		h(queries[i%len(queries)])
	}
	for i, q := range queries {
		if w := want(t, z, q); !bytes.Equal(held[i], w) {
			t.Fatalf("answer %d became %x, want %x", i, held[i], w)
		}
	}
}

// TestAnswerIsolated: an answer's capacity ends where it does, so its
// holder appending to it writes into a new array, not into the next
// answer cut from the block.
func TestAnswerIsolated(t *testing.T) {
	z, h, queries := answerFixture(t, 8)
	for i := 0; i+1 < len(queries); i++ {
		first := h(queries[i])
		if cap(first) != len(first) {
			t.Fatalf("answer %d: len %d, cap %d", i, len(first), cap(first))
		}
		grown := append(first, 0xde, 0xad, 0xbe, 0xef)
		next := h(queries[i+1])
		if w := want(t, z, queries[i+1]); !bytes.Equal(next, w) {
			t.Fatalf("answer %d is %x after an append to its predecessor, want %x", i+1, next, w)
		}
		if w := want(t, z, queries[i]); !bytes.Equal(first, w) || !bytes.Equal(grown[:len(first)], w) {
			t.Fatalf("answer %d is %x after the append, want %x", i, first, w)
		}
	}
}

// TestZoneHandlerAllocatesNothing: a served query costs no allocation of
// its own; the blocks answers are cut from amortise to none per query.
func TestZoneHandlerAllocatesNothing(t *testing.T) {
	_, h, queries := answerFixture(t, 16)
	k := 0
	if allocs := testing.AllocsPerRun(10_000, func() {
		h(queries[k%len(queries)])
		k++
	}); allocs != 0 {
		t.Fatalf("%.0f allocations per query", allocs)
	}
}

// TestZoneHandlerConcurrentWithAddRecord runs handler calls on several
// goroutines while names are added and address sets grow. Every answer
// parses, echoes its query's ID and is one the zone gave at some point:
// address sets only grow, so that is NXDOMAIN or a prefix of the set the
// zone ends with.
func TestZoneHandlerConcurrentWithAddRecord(t *testing.T) {
	const names, addrs, callers = 32, 8, 4
	z := NewZone()
	h := ZoneHandler(z)
	name := func(i int) string { return fmt.Sprintf("grow%d.corp.example", i) }
	queries := make([][]byte, names)
	for i := range queries {
		queries[i] = mustQuery(t, uint16(i), name(i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < addrs; j++ {
			for i := 0; i < names; i++ {
				if err := z.AddRecord(name(i), netip.AddrFrom4([4]byte{10, 1, byte(i), byte(j)})); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// got[c][k] answers queries[(k*7+c)%names].
	got := make([][][]byte, callers)
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2_000; k++ {
				got[c] = append(got[c], h(queries[(k*7+c)%names]))
			}
		}()
	}
	wg.Wait()
	for c := range got {
		for k, out := range got[c] {
			i := (k*7 + c) % names
			ans, err := ParseAnswer(out)
			if err != nil {
				t.Fatalf("answer %x for %s does not parse: %v", out, name(i), err)
			}
			final := resolve(z, name(i))
			if ans.ID != uint16(i) || (ans.RCode == RCodeNXDomain) != (len(ans.Addrs) == 0) ||
				len(ans.Addrs) > len(final) || !slices.Equal(ans.Addrs, final[:len(ans.Addrs)]) {
				t.Fatalf("%s (id %d) answered %+v; the zone ends with %v", name(i), i, ans, final)
			}
		}
	}
}

// BenchmarkZoneHandler is one served query: in-place validation, a read of
// the zone under its read lock and the answer cut from the handler's
// block. Designed 0 allocs/op.
func BenchmarkZoneHandler(b *testing.B) {
	_, h, queries := answerFixture(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h(queries[i%len(queries)]) == nil {
			b.Fatal("query refused")
		}
	}
}
