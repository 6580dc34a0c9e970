package dex

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// hostileHeader is a 48-byte container that claims maxCount dex files,
// maxCount classes in the first and maxCount methods in its first class,
// then ends: every string empty, nothing behind the counts.
func hostileHeader() []byte {
	b := binary.BigEndian.AppendUint32(nil, apkMagic)
	b = binary.BigEndian.AppendUint16(b, apkVersion)
	b = append(b, make([]byte, 3*2+2*8)...) // package, label, category; version code, downloads
	b = binary.BigEndian.AppendUint32(b, maxCount)
	b = binary.BigEndian.AppendUint16(b, 0) // not debug-stripped
	b = binary.BigEndian.AppendUint32(b, maxCount)
	b = append(b, make([]byte, 3*2)...) // package, name, super
	return binary.BigEndian.AppendUint32(b, maxCount)
}

// TestReadAPKHostileCountsAllocateLittle: counts read off the wire size
// nothing, so the 48-byte header claiming a million dex files, classes
// and methods fails having allocated well under 1 MiB, not the 144 MiB
// those counts would pre-size.
func TestReadAPKHostileCountsAllocateLittle(t *testing.T) {
	hdr := hostileHeader()
	if len(hdr) != 48 {
		t.Fatalf("header is %d bytes, want 48", len(hdr))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadAPK(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no records behind its counts was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading the 48-byte header allocated %d bytes, want < 1 MiB", got)
	}
}

// FuzzReadAPK: no input panics the container parser, and a container it
// accepts writes back to exactly the bytes it was read from (what follows
// the container is not read).
func FuzzReadAPK(f *testing.F) {
	multi := buildTestAPK()
	multi.Dexes = append(multi.Dexes, &File{DebugStripped: true})
	for _, a := range []*APK{buildTestAPK(), multi} {
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add(hostileHeader())
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := ReadAPK(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := a.WriteTo(&out); err != nil {
			t.Fatalf("accepted container does not write: %v", err)
		}
		if !bytes.HasPrefix(in, out.Bytes()) {
			t.Fatalf("round trip changed the container:\n in  %x\n out %x", in, out.Bytes())
		}
	})
}
