package ipv4

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: no input panics the parser, and a packet it accepts
// re-marshals to exactly the bytes it was read from (up to the total
// length; what follows is link-layer padding). The identity covers
// parseOptions, which every tag passes through.
func FuzzUnmarshal(f *testing.F) {
	tagged := samplePacket()
	tagged.Header.SetOption(Option{Type: OptSecurity, Data: []byte{0x10, 0xaa, 0xbb, 0xcc, 0xdd}})
	nop := samplePacket()
	nop.Header.Options = []Option{{Type: OptNOP}, {Type: OptSecurity, Data: []byte{1, 2}}}
	for _, p := range []*Packet{samplePacket(), tagged, nop} {
		buf, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(append(append([]byte(nil), buf...), 0, 0)) // link-layer padding
		f.Add(buf[:MinHeaderLen+2])                      // cut inside the options
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := Unmarshal(buf)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet does not marshal: %v", err)
		}
		total := int(buf[2])<<8 | int(buf[3])
		if !bytes.Equal(out, buf[:total]) {
			t.Fatalf("round trip changed the packet:\n in  %x\n out %x", buf[:total], out)
		}
	})
}
