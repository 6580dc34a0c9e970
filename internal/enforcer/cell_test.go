package enforcer

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
)

// This file covers the flow cache's cell: its size, that it holds no
// pointer, and that a hit through it is exact.

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestFlowCellIs64BytesPointerFree walks the flow cache's type down to the
// cell one flow occupies: at most 64 bytes, with no pointer anywhere in it.
func TestFlowCellIs64BytesPointerFree(t *testing.T) {
	shard, ok := reflect.TypeOf(FlowCache{}).FieldByName("shards")
	if !ok {
		t.Fatal("flow cache has no shards")
	}
	index, ok := shard.Type.Elem().FieldByName("flows")
	if !ok {
		t.Fatal("shard has no flows index")
	}
	cells, ok := index.Type.FieldByName("cells")
	if !ok {
		t.Fatal("index has no cells")
	}
	cell := cells.Type.Elem()
	if size := cell.Size(); size > 64 {
		t.Fatalf("a flow's cell %v is %d bytes, want at most 64", cell, size)
	}
	if hasPointers(cell) {
		t.Fatalf("a flow's cell %v holds a pointer", cell)
	}
	if !hasPointers(reflect.TypeOf(Result{})) {
		t.Fatal("the walk has no teeth: Result holds pointers")
	}
}

// forgeDigest returns tag bytes that differ from b but share its Digest:
// flip a bit of the first eight-byte word, then cancel the change in the
// FNV state with the second word. b must be at least 16 bytes.
func forgeDigest(b []byte) []byte {
	const offset, prime = 14695981039346656037, 1099511628211
	w1 := binary.LittleEndian.Uint64(b)
	forged := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(forged, w1^1<<60)
	h1, h1f := (offset^w1)*prime, (offset^(w1^1<<60))*prime
	binary.LittleEndian.PutUint64(forged[8:], binary.LittleEndian.Uint64(b[8:])^h1^h1f)
	return forged
}

// TestDigestCollisionCannotBorrowVerdict: a packet of a cached flow's
// tuple whose tag bytes differ from the flow's but share their digest —
// and so its flow key and cell — must never be served the flow's cached
// verdict: the hit compares the tag bytes verbatim with the interned tag.
// A crafted FNV collision is exactly the tag-forgery attack the exact hit
// defends against.
func TestDigestCollisionCannotBorrowVerdict(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	ref, _, _ := newEnforcer(t, Config{}, nil, policy.VerdictAllow)
	payload := mkPacket(t, apk, db, "download").Header.Options[0].Data
	indexes := []uint32{0, 1, 2}
	for len(payload) < 16 {
		indexes = append(indexes, indexes...)
		var err error
		if payload, err = (&tag.Tag{AppHash: apk.Truncated(), Indexes: indexes}).Encode(); err != nil {
			t.Fatal(err)
		}
	}
	forged := forgeDigest(payload)
	if flowtable.Digest(forged) != flowtable.Digest(payload) || string(forged) == string(payload) {
		t.Fatal("fixture: the forged tag does not collide")
	}
	benign, forgery := taggedPacket(payload, 1), taggedPacket(forged, 1)
	if res := e.Process(benign); res.Verdict != policy.VerdictAllow {
		t.Fatalf("benign flow: %+v", res)
	}
	want := ref.Process(forgery)
	if want.Verdict != policy.VerdictDrop {
		t.Fatalf("fixture: the forged tag is allowed on its own merits: %+v", want)
	}
	for i := 0; i < 3; i++ {
		if res := e.Process(forgery); res.Verdict != want.Verdict || res.Cause != want.Cause {
			t.Fatalf("forged packet %d borrowed %v/%v, want %v/%v", i, res.Verdict, res.Cause, want.Verdict, want.Cause)
		}
		if res := e.Process(benign); res.Verdict != policy.VerdictAllow || res.Cause != DropNone {
			t.Fatalf("benign packet %d after the forgery: %+v", i, res)
		}
	}
	if hits := count(e, "bp_flowtable_hits_total"); hits != 3 {
		t.Fatalf("flow-table hits = %d, want the benign flow's 3", hits)
	}
}

// TestReplacedRecordIsAMiss: once the tag record a cached flow names is
// replaced, the flow's next packet is a miss, evaluated afresh, never a hit
// through a handle that names another record.
func TestReplacedRecordIsAMiss(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	pkt := mkPacket(t, apk, db, "download")
	payload := pkt.Header.Options[0].Data
	first := e.Process(pkt)
	if res := e.Process(pkt); count(e, "bp_flowtable_hits_total") == 0 || res.Access == nil {
		t.Fatalf("before replacing the tag record: %+v", res)
	}
	hits, evals := count(e, "bp_flowtable_hits_total"), count(e, "bp_policy_evaluations_total")
	for i := 0; i < flowtable.InternWindow; i++ {
		e.tags.Store(flowtable.Digest(payload), e.engine.Generation(), decodedTag{})
	}
	res := e.Process(pkt)
	if count(e, "bp_flowtable_hits_total") != hits || count(e, "bp_policy_evaluations_total") != evals+1 {
		t.Fatal("replaced tag record: the next packet was a hit")
	}
	if res.Verdict != policy.VerdictAllow || res.Access.Reason() != first.Access.Reason() || len(res.Stack) != 1 || res.Stack[0] != first.Stack[0] {
		t.Fatalf("replaced tag record: re-evaluated to %+v", res)
	}
}

// BenchmarkProcessFlowHitFleet is the enforcer's hit path on fleet's
// pattern: 32,768 live flows, one per device, all of one tag, probed in
// shuffled order — the flow-table probe, the verbatim tag check and the
// handle read, against caches the flows do not fit in.
func BenchmarkProcessFlowHitFleet(b *testing.B) {
	const flows = 32768
	e, base := benchEnforcer(b, true)
	pkts := make([]*ipv4.Packet, flows)
	for i := range pkts {
		p := base.Clone()
		p.Header.Src = netip.AddrFrom4([4]byte{10, 128 + byte(i>>16), byte(i >> 8), byte(i)})
		if res := e.Process(p); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
		pkts[i] = p
	}
	rand.New(rand.NewSource(1)).Shuffle(flows, func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Process(pkts[i%flows]); res.Verdict != policy.VerdictAllow {
			b.Fatal("benign packet dropped")
		}
	}
}
