package enforcer

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// This file covers the tag and decision tables behind the miss path (see
// decodedTag): what they share, what they refuse to share, and what they
// cost.

// genAPK is a second app with enough methods that its tags can fill one
// window of the tag table.
func genAPK() *dex.APK {
	methods := make([]dex.MethodDef, 64)
	for i := range methods {
		methods[i] = dex.MethodDef{Name: fmt.Sprintf("m%02d", i), Proto: "()V", File: "G.java", StartLine: 10 * i, EndLine: 10*i + 5}
	}
	return &dex.APK{
		PackageName: "com.corp.gen",
		VersionCode: 1,
		Dexes:       []*dex.File{{Classes: []dex.ClassDef{{Package: "com/corp/gen", Name: "Gen", Methods: methods}}}},
	}
}

// conflictingTags returns the payloads of flowtable.InternWindow+1
// different three-frame tags of apk (already in db) whose windows in e's
// tag table start at one cell, so cycling through them finds each one
// replaced, and the stack each decodes to.
func conflictingTags(tb testing.TB, e *Enforcer, apk *dex.APK) (tags [][]byte, stacks [][]dex.Signature) {
	tb.Helper()
	entry, ok := e.db.LookupTruncated(apk.Truncated())
	if !ok {
		tb.Fatal("apk not in db")
	}
	n := uint32(len(entry.Signatures))
	homes := make(map[int][][]uint32)
	for i := uint32(0); i < n*n*n; i++ {
		indexes := []uint32{i % n, i / n % n, i / n / n}
		payload, err := (&tag.Tag{AppHash: apk.Truncated(), Indexes: indexes}).Encode()
		if err != nil {
			tb.Fatal(err)
		}
		home := e.tags.Home(flowtable.Digest(payload))
		if homes[home] = append(homes[home], indexes); len(homes[home]) <= flowtable.InternWindow {
			continue
		}
		for _, indexes := range homes[home] {
			payload, _ := (&tag.Tag{AppHash: apk.Truncated(), Indexes: indexes}).Encode()
			stack, err := e.db.DecodeStack(apk.Truncated(), indexes)
			if err != nil {
				tb.Fatal(err)
			}
			tags, stacks = append(tags, payload), append(stacks, stack)
		}
		return tags, stacks
	}
	tb.Fatal("no window of the tag table holds enough tags")
	return
}

// taggedPacket is a packet from the n-th device of the test pool carrying
// the raw tag payload: each n is another flow.
func taggedPacket(payload []byte, n int) *ipv4.Packet {
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.AddrFrom4([4]byte{10, 0, byte(n >> 8), byte(n)}),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: []byte("POST /x HTTP/1.1\r\n\r\n"),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	return pkt
}

// internStats reads the tag table's counters.
func internStats(e *Enforcer) (hits, misses uint64) {
	return count(e, "bp_enforcer_decoded_tag_hits_total"), count(e, "bp_enforcer_decoded_tag_misses_total")
}

// TestInternedDecodeSharedPerTag: flows carrying one tag decode it once and
// share one immutable Stack, and each flow is evaluated once; the uncached
// enforcer never uses the table.
func TestInternedDecodeSharedPerTag(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	payload := mkPacket(t, apk, db, "beacon", "download").Header.Options[0].Data
	first := e.Process(taggedPacket(payload, 1))
	for n := 2; n <= 10; n++ {
		res := e.Process(taggedPacket(payload, n))
		if res.Verdict != policy.VerdictAllow || res.AppHash != apk.Truncated() {
			t.Fatalf("flow %d: %+v", n, res)
		}
		if &res.Stack[0] != &first.Stack[0] || len(res.Stack) != 2 {
			t.Fatalf("flow %d decoded its own stack %v", n, res.Stack)
		}
	}
	if hits, misses := internStats(e); hits != 9 || misses != 1 {
		t.Fatalf("intern hits/misses = %d/%d, want 9/1", hits, misses)
	}
	if misses, evals := count(e, "bp_flowtable_misses_total"), count(e, "bp_policy_evaluations_total"); misses != 10 || evals != 10 {
		t.Fatalf("flow misses %d, evaluations %d, want 10 each", misses, evals)
	}

	ref, _, _ := newEnforcer(t, Config{}, nil, policy.VerdictAllow)
	a, b := ref.Process(taggedPacket(payload, 1)), ref.Process(taggedPacket(payload, 1))
	if hits, misses := internStats(ref); hits+misses != 0 || &a.Stack[0] == &b.Stack[0] {
		t.Fatal("the uncached reference shares decodes between packets")
	}
}

// TestInternCellConflictNeverBorrowsAStack: one more tag than a window
// holds, all forced onto one window, each decode to their own stack,
// whichever are resident — a cell checks the tag bytes verbatim, and a
// newcomer to a full window replaces its oldest record.
func TestInternCellConflictNeverBorrowsAStack(t *testing.T) {
	e, db, _ := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	gen := genAPK()
	if err := db.Add(gen); err != nil {
		t.Fatal(err)
	}
	tags, stacks := conflictingTags(t, e, gen)
	if slices.Equal(stacks[0], stacks[1]) {
		t.Fatalf("conflicting tags decode alike: %v", stacks[0])
	}
	w := len(tags)
	flow := 0
	process := func(k int) {
		t.Helper()
		flow++
		res := e.Process(taggedPacket(tags[k], flow))
		if res.Verdict != policy.VerdictAllow || !slices.Equal(res.Stack, stacks[k]) {
			t.Fatalf("flow %d, tag %d: decoded %v (%v), want %v", flow, k, res.Stack, res.Verdict, stacks[k])
		}
	}
	for i := 0; i < 2*w; i++ {
		process(i % w) // every packet finds its own tag replaced
	}
	if hits, misses := internStats(e); hits != 0 || misses != uint64(2*w) {
		t.Fatalf("cycling conflict: intern hits/misses = %d/%d, want 0/%d", hits, misses, 2*w)
	}
	if n := count(e, "bp_enforcer_decoded_tag_replacements_total"); n != uint64(w+1) {
		t.Fatalf("replacements = %d, want %d", n, w+1)
	}
	process(w - 1) // the last w-1 tags are resident now
	process(1)
	process(0)
	if hits, misses := internStats(e); hits != 2 || misses != uint64(2*w+1) {
		t.Fatalf("intern hits/misses = %d/%d, want 2/%d", hits, misses, 2*w+1)
	}
}

// TestInternFollowsDatabaseGeneration: a record is used only under the
// database generation it was decoded in, and only successful decodes are
// interned — an unknown app, a bad index and a malformed tag decode afresh
// on every flow, so provisioning the app takes effect on the next packet.
func TestInternFollowsDatabaseGeneration(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	known := mkPacket(t, apk, db, "download").Header.Options[0].Data
	gen := genAPK()
	unknownTag, err := (&tag.Tag{AppHash: gen.Truncated(), Indexes: []uint32{3, 4}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	badIndex, err := (&tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{9999}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	flow := 0
	process := func(payload []byte) Result {
		flow++
		return e.Process(taggedPacket(payload, flow))
	}
	for i := 0; i < 3; i++ {
		if res := process(unknownTag); res.Cause != DropUnknownApp {
			t.Fatalf("unprovisioned app: %+v", res)
		}
		if res := process(badIndex); res.Cause != DropBadIndex {
			t.Fatalf("bad index: %+v", res)
		}
		if res := process([]byte{0xff, 0x01}); res.Cause != DropMalformedTag {
			t.Fatalf("malformed tag: %+v", res)
		}
	}
	if hits, misses := internStats(e); hits != 0 || misses != 9 {
		t.Fatalf("failed decodes: intern hits/misses = %d/%d, want 0/9", hits, misses)
	}

	process(known)
	process(known)
	if hits, misses := internStats(e); hits != 1 || misses != 10 {
		t.Fatalf("known tag: intern hits/misses = %d/%d, want 1/10", hits, misses)
	}
	// Provisioning the second app moves the generation: the resident record
	// of the known tag is from the old one and is decoded again, and the
	// tag that was an unknown app a moment ago now decodes.
	if err := db.Add(gen); err != nil {
		t.Fatal(err)
	}
	if res := process(known); res.Verdict != policy.VerdictAllow || len(res.Stack) != 1 {
		t.Fatalf("known tag after the mutation: %+v", res)
	}
	want, err := db.DecodeStack(gen.Truncated(), []uint32{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := process(unknownTag); res.Verdict != policy.VerdictAllow || !slices.Equal(res.Stack, want) {
		t.Fatalf("newly provisioned app: %+v, want stack %v", res, want)
	}
	if hits, misses := internStats(e); hits != 1 || misses != 12 {
		t.Fatalf("after the mutation: intern hits/misses = %d/%d, want 1/12", hits, misses)
	}
	if d, _ := e.tags.Find(flowtable.Digest(known), db.Generation(), func(d *decodedTag) bool { return d.is(known) }); d == nil {
		t.Fatalf("no record of generation %d for the known tag", db.Generation())
	}
}

// TestInternConcurrentMixedTags: 64 goroutines push new flows of a mix of
// tags — two of them fighting over one cell — through one enforcer; every
// packet must get its own tag's stack (run under -race).
func TestInternConcurrentMixedTags(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	gen := genAPK()
	if err := db.Add(gen); err != nil {
		t.Fatal(err)
	}
	payloads, want := conflictingTags(t, e, gen)
	for _, names := range [][]string{{"download"}, {"upload"}, {"beacon", "download"}} {
		pkt := mkPacket(t, apk, db, names...)
		payloads = append(payloads, pkt.Header.Options[0].Data)
		want = append(want, e.Process(pkt).Stack)
	}
	const goroutines, perG = 64, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % len(payloads)
				res := e.Process(taggedPacket(payloads[k], g*perG+i))
				if res.Verdict != policy.VerdictAllow || !slices.Equal(res.Stack, want[k]) {
					t.Errorf("goroutine %d packet %d (tag %d): %v %v, want %v", g, i, k, res.Verdict, res.Stack, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := internStats(e); hits == 0 || hits+misses != count(e, "bp_flowtable_misses_total") {
		t.Fatalf("intern hits/misses = %d/%d over %d flow misses", hits, misses, count(e, "bp_flowtable_misses_total"))
	}
}

// TestNonIPv4AddressBypassesTheCache: the flow key holds IPv4 endpoints, so
// a packet with any other source address is decided by the full pipeline
// every time and leaves no trace in the table or the intern cells.
func TestNonIPv4AddressBypassesTheCache(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}, policy.VerdictAllow)
	for _, tc := range []struct {
		names []string
		want  policy.Verdict
	}{{[]string{"download"}, policy.VerdictAllow}, {[]string{"beacon"}, policy.VerdictDrop}} {
		pkt := mkPacket(t, apk, db, tc.names...)
		pkt.Header.Src = netip.MustParseAddr("2001:db8::5")
		for i := 0; i < 2; i++ {
			if res := e.Process(pkt); res.Verdict != tc.want || len(res.Stack) != 1 {
				t.Fatalf("%v from an IPv6 source: %+v", tc.names, res)
			}
		}
	}
	hits, misses := internStats(e)
	var flow float64
	for _, smp := range registry(e).Snapshot() {
		if strings.HasPrefix(smp.Name, "bp_flowtable_") {
			flow += smp.Value
		}
	}
	if processed := count(e, "bp_enforcer_verdicts_total"); flow != 0 || processed != 4 || hits+misses != 0 {
		t.Fatalf("bypass left traces: flow-table counts %v, processed %d, intern %d/%d", flow, processed, hits, misses)
	}
}

// TestInternedMissAllocatesNothing pins the fill path's allocations: a new
// flow of a known tag reaching a known decision allocates nothing.
func TestInternedMissAllocatesNothing(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	payload := mkPacket(t, apk, db, "beacon", "download").Header.Options[0].Data
	const runs = 500
	pkts := make([]*ipv4.Packet, runs+2)
	for i := range pkts {
		pkts[i] = taggedPacket(payload, i)
	}
	e.Process(pkts[0]) // interns the tag
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		e.Process(pkts[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("an interned miss allocates %v times, want 0", allocs)
	}
	if hits, misses := internStats(e); misses != 1 || hits != runs+1 {
		t.Fatalf("intern hits/misses = %d/%d", hits, misses)
	}
}
