package tag

import (
	"slices"
	"testing"

	"borderpatrol/internal/dex"
)

// budget is how many of t's frames Encode keeps: 14 narrow, or 9 once any
// index needs the wide form.
func budget(t Tag) int {
	for _, idx := range t.Indexes {
		if idx > MaxNarrowIndex {
			return MaxWideFrames
		}
	}
	return MaxNarrowFrames
}

// FuzzTagDecode feeds arbitrary option bytes to the decoder the enforcer
// runs on every flow miss. Decoding never panics; DecodeInto on a
// retained tag dirty from an earlier decode agrees with Decode; and a
// decoded tag re-encodes to one that decodes to the same app, flags and
// frames, cut to the budget Encode applies, with the truncated flag set
// when it cut.
func FuzzTagDecode(f *testing.F) {
	hash := dex.TruncatedHash{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7}
	for _, seed := range []Tag{
		{AppHash: hash},
		{AppHash: hash, Indexes: []uint32{0, 1, 512, MaxNarrowIndex}, DebugStripped: true},
		{AppHash: hash, Indexes: []uint32{70000, 1, MaxWideIndex}},
		{AppHash: hash, Indexes: make([]uint32, MaxNarrowFrames+3), Truncated: true},
	} {
		buf, err := seed.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0x20, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x10, 1, 2, 3, 4, 5, 6, 7, 8, 0x80, 1})

	dirty := Tag{AppHash: hash, Indexes: []uint32{7, 7, 7}, DebugStripped: true, Truncated: true}
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := Decode(buf)
		into := dirty
		into.Indexes = slices.Clone(dirty.Indexes)
		errInto := DecodeInto(&into, buf)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Decode err %v, DecodeInto err %v", err, errInto)
		}
		if err != nil {
			return
		}
		if into.AppHash != got.AppHash || into.DebugStripped != got.DebugStripped ||
			into.Truncated != got.Truncated || !slices.Equal(into.Indexes, got.Indexes) {
			t.Fatalf("DecodeInto = %+v, Decode = %+v", into, got)
		}

		re, err := got.Encode()
		if err != nil {
			t.Fatalf("Encode(Decode(%x)): %v", buf, err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", got, err)
		}
		keep := min(len(got.Indexes), budget(got))
		if back.AppHash != got.AppHash || back.DebugStripped != got.DebugStripped ||
			back.Truncated != (got.Truncated || keep < len(got.Indexes)) || !slices.Equal(back.Indexes, got.Indexes[:keep]) {
			t.Fatalf("Decode(Encode(%+v)) = %+v", got, back)
		}
		if len(re) > MaxEncoded {
			t.Fatalf("Encode(%+v) is %d bytes, over the %d-byte budget", got, len(re), MaxEncoded)
		}
	})
}
