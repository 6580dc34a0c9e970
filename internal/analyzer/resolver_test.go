package analyzer

import (
	"errors"
	"testing"

	"borderpatrol/internal/dex"
)

func resolverTestAPK() *dex.APK {
	return &dex.APK{
		PackageName: "com.corp.files",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{{
				Package: "com/corp/files",
				Name:    "SyncEngine",
				Methods: []dex.MethodDef{
					{Name: "download", Proto: "()V", File: "S.java", StartLine: 10, EndLine: 20},
					{Name: "upload", Proto: "()V", File: "S.java", StartLine: 30, EndLine: 40},
				},
			}},
		}},
	}
}

func TestResolverDecodeAndEncodeAgree(t *testing.T) {
	apk := resolverTestAPK()
	db := NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	r, ok := db.Resolve(apk.Truncated())
	if !ok {
		t.Fatal("known app did not resolve")
	}
	for i := 0; i < r.Len(); i++ {
		sig, err := r.Signature(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := r.SignatureString(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if raw != sig.String() {
			t.Fatalf("cached string %q != %q", raw, sig.String())
		}
	}
	if _, err := r.Signature(999); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("out-of-range index error = %v", err)
	}
	if _, err := r.SignatureString(999); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("out-of-range string error = %v", err)
	}
}

func TestResolveUnknownApp(t *testing.T) {
	db := NewDatabase()
	var h dex.TruncatedHash
	h[0] = 0xee
	if _, ok := db.Resolve(h); ok {
		t.Fatal("unknown hash resolved")
	}
}

func TestDecodeStackIntoReusesBuffer(t *testing.T) {
	apk := resolverTestAPK()
	db := NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	r, ok := db.Resolve(apk.Truncated())
	if !ok {
		t.Fatal("resolve failed")
	}
	buf := make([]dex.Signature, 0, 8)
	out, err := r.DecodeStackInto(buf, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || cap(out) != cap(buf) || &out[0] != &buf[:1][0] {
		t.Fatalf("buffer not reused: len=%d cap=%d", len(out), cap(out))
	}
	// Steady state: decoding through a retained buffer must not allocate.
	indexes := []uint32{1, 0, 1}
	if avg := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = r.DecodeStackInto(buf, indexes)
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeStackInto allocates %.1f per op", avg)
	}
	if _, err := r.DecodeStackInto(buf, []uint32{5}); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("bad index error = %v", err)
	}
}
