package analyzer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"borderpatrol/internal/dex"
)

func buildAPK(pkg string, version int) *dex.APK {
	return &dex.APK{
		PackageName: pkg,
		Label:       pkg,
		Category:    "BUSINESS",
		VersionCode: version,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{
				{
					Package: "com/example/app",
					Name:    "Main",
					Methods: []dex.MethodDef{
						{Name: "onCreate", Proto: "(Landroid/os/Bundle;)V", File: "Main.java", StartLine: 10, EndLine: 40},
						{Name: "sync", Proto: "()V", File: "Main.java", StartLine: 50, EndLine: 70},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []dex.MethodDef{
						{Name: "beacon", Proto: "()V", File: "Agent.java", StartLine: 5, EndLine: 20},
					},
				},
			},
		}},
	}
}

func TestAnalyzeAPKDeterministicIndexes(t *testing.T) {
	a := buildAPK("com.example.app", 1)
	e1, err := AnalyzeAPK(a)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := AnalyzeAPK(buildAPK("com.example.app", 1))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Hash != e2.Hash {
		t.Fatal("hash not deterministic")
	}
	if len(e1.Signatures) != 3 {
		t.Fatalf("got %d signatures, want 3", len(e1.Signatures))
	}
	for i := range e1.Signatures {
		if e1.Signatures[i] != e2.Signatures[i] {
			t.Fatalf("index %d differs: %s vs %s", i, e1.Signatures[i], e2.Signatures[i])
		}
	}
}

func TestDatabaseEncodeDecodeBijective(t *testing.T) {
	db := NewDatabase()
	apk := buildAPK("com.example.app", 1)
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	tr := apk.Truncated()
	r, ok := db.Resolve(tr)
	if !ok {
		t.Fatal("known app did not resolve")
	}
	seen := map[dex.Signature]int{}
	for i, raw := range mustEntry(t, db, tr).Signatures {
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := r.Signature(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if back != sig {
			t.Fatalf("Signature(%d) = %s, want %s", i, back, sig)
		}
		if j, dup := seen[sig]; dup {
			t.Fatalf("indexes %d and %d decode to %s", j, i, sig)
		}
		seen[sig] = i
	}
}

func mustEntry(t *testing.T, db *Database, tr dex.TruncatedHash) AppEntry {
	t.Helper()
	e, ok := db.LookupTruncated(tr)
	if !ok {
		t.Fatal("entry missing")
	}
	return e
}

func TestDatabaseErrors(t *testing.T) {
	db := NewDatabase()
	apk := buildAPK("com.example.app", 1)
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(buildAPK("com.example.app", 1)); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("duplicate: %v", err)
	}
	var unknown dex.TruncatedHash
	if _, err := db.DecodeStack(unknown, []uint32{0}); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app: %v", err)
	}
	r, _ := db.Resolve(apk.Truncated())
	if _, err := r.Signature(999); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("bad index: %v", err)
	}
	if _, err := db.DecodeStack(apk.Truncated(), []uint32{0, 999}); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("stack with bad index: %v", err)
	}
}

func TestDatabaseDifferentVersionsCoexist(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(buildAPK("com.example.app", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(buildAPK("com.example.app", 2)); err != nil {
		t.Fatalf("second version rejected: %v", err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDatabase()
	for i := 1; i <= 5; i++ {
		if err := db.Add(buildAPK("com.example.app", i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf, again bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d apps, want %d", loaded.Len(), db.Len())
	}
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != saved {
		t.Fatal("an app's record changed in the round trip")
	}
	// Decoding still works after reload.
	apk := buildAPK("com.example.app", 1)
	stack, err := loaded.DecodeStack(apk.Truncated(), []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if stack[0].Package == "" {
		t.Fatal("decoded empty signature")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":9,"apps":[]}`)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":1,"apps":[{"hash":"zz","signatures":[]}]}`)); err == nil {
		t.Error("bad hash accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":1,"apps":[{"hash":"da6880ab1f9919747d39e2bd895b95a5","signatures":["garbage"]}]}`)); err == nil {
		t.Error("bad signature accepted")
	}
}

func TestIndexDeterminismProperty(t *testing.T) {
	// Property: for a randomly generated apk, analyzing twice produces the
	// identical index mapping, and every index round-trips.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apk := randomAPK(r)
		e1, err := AnalyzeAPK(apk)
		if err != nil {
			return false
		}
		e2, err := AnalyzeAPK(apk)
		if err != nil {
			return false
		}
		if e1.Hash != e2.Hash || len(e1.Signatures) != len(e2.Signatures) {
			return false
		}
		for i := range e1.Signatures {
			if e1.Signatures[i] != e2.Signatures[i] {
				return false
			}
		}
		// Signatures must be unique (bijective index mapping).
		seen := make(map[string]bool, len(e1.Signatures))
		for _, s := range e1.Signatures {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomAPK(r *rand.Rand) *dex.APK {
	nClasses := 1 + r.Intn(6)
	classes := make([]dex.ClassDef, nClasses)
	for i := range classes {
		nMethods := 1 + r.Intn(8)
		methods := make([]dex.MethodDef, nMethods)
		line := 1
		for j := range methods {
			methods[j] = dex.MethodDef{
				Name:      "m" + string(rune('a'+j)),
				Proto:     "()V",
				File:      "F.java",
				StartLine: line,
				EndLine:   line + 5,
			}
			line += 10
		}
		classes[i] = dex.ClassDef{
			Package: "com/gen/p" + string(rune('a'+i)),
			Name:    "C" + string(rune('A'+i)),
			Methods: methods,
		}
	}
	return &dex.APK{
		PackageName: "com.gen.app",
		VersionCode: r.Intn(100),
		Dexes:       []*dex.File{{Classes: classes}},
	}
}

// TestTruncatedHashCollisionBound verifies the paper's §VII claim: with
// 3.3M apps and 8-byte (64-bit) truncated hashes, the collision
// probability is below 1e-6. Birthday bound: p ≈ n(n-1)/2 / 2^64.
func TestTruncatedHashCollisionBound(t *testing.T) {
	const n = 3_300_000.0
	p := n * (n - 1) / 2 / float64(1<<63) / 2
	if p >= 1e-6 {
		t.Fatalf("collision probability %.3g not below 1e-6", p)
	}
	// And empirically: a million random 64-bit values should not collide in
	// a deterministic pseudorandom draw (overwhelming probability).
	r := rand.New(rand.NewSource(7))
	seen := make(map[uint64]bool, 1<<20)
	for i := 0; i < 1<<20; i++ {
		v := r.Uint64()
		if seen[v] {
			t.Fatal("unexpected collision in 2^20 draws")
		}
		seen[v] = true
	}
}
