package kernel

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/transport"
)

// freshPacket is the wire form of the packet the kernel should build when
// socket s (a snapshot taken just before the call) sends payload with TCP
// flags (ignored on UDP) and IP ID id, built the way the kernel did before
// it had blocks: fresh buffers, and the options setsockopt was given
// applied one by one with SetOption.
func freshPacket(t *testing.T, s Socket, opts []ipv4.Option, id uint16, flags byte, payload []byte) []byte {
	t.Helper()
	var wire []byte
	if s.Protocol == ipv4.ProtoUDP {
		wire = (&transport.UDPDatagram{SrcPort: s.Local.Port(), DstPort: s.Remote.Port(), Payload: payload}).Marshal()
	} else {
		wire = (&transport.TCPSegment{SrcPort: s.Local.Port(), DstPort: s.Remote.Port(),
			Seq: s.seq, Flags: flags, Window: 65535, Payload: payload}).Marshal()
	}
	pkt := &ipv4.Packet{
		Header:  ipv4.Header{ID: id, TTL: 64, Protocol: s.Protocol, Src: s.Local.Addr(), Dst: s.Remote.Addr()},
		Payload: wire,
	}
	for _, o := range opts {
		pkt.Header.SetOption(ipv4.Option{Type: o.Type, Data: append([]byte(nil), o.Data...)})
	}
	b, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomOptions is an option list within MaxOptionsLen, sometimes empty,
// sometimes naming a type twice (SetOption keeps the type once).
func randomOptions(rng *rand.Rand) []ipv4.Option {
	types := []byte{ipv4.OptSecurity, ipv4.OptNOP, ipv4.OptTimestamp, ipv4.OptSecurity}
	var opts []ipv4.Option
	total := 0
	for i := rng.IntN(4); i > 0; i-- {
		o := ipv4.Option{Type: types[rng.IntN(len(types))]}
		size := 1
		if o.Type != ipv4.OptNOP {
			o.Data = make([]byte, rng.IntN(12))
			for j := range o.Data {
				o.Data[j] = byte(rng.Uint32())
			}
			size = 2 + len(o.Data)
		}
		if total+size > ipv4.MaxOptionsLen {
			break
		}
		total += size
		opts = append(opts, o)
	}
	return opts
}

// blockSizes straddle every boundary the blocks have: empty and tiny
// segments, the first block's size, the large-segment bypass threshold
// either side, and segments that need their own buffer.
var blockSizes = []int{
	0, 1, 7, 100, wireBlockFirst - transport.TCPHeaderLen, wireBlockFirst,
	wireBlockCap/4 - transport.TCPHeaderLen, wireBlockCap/4 - transport.UDPHeaderLen,
	wireBlockCap/4 - transport.UDPHeaderLen + 1, wireBlockCap / 2, 3 * wireBlockCap / 4,
}

// TestBlockPacketsMatchFreshAllocation is the differential test of the
// blocks: over random interleavings of TCP and UDP sockets opening,
// setting options, handshaking, sending payloads of every size class and
// shutting down, every packet — checked only after all of them were built,
// so a later cut writing into an earlier one shows — marshals to the bytes
// the kernel built from fresh allocations.
func TestBlockPacketsMatchFreshAllocation(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 27))
			k := New(Config{AllowUnprivilegedIPOptions: true})
			type built struct {
				pkt  *ipv4.Packet
				want []byte
			}
			var out []built
			opts := map[int][]ipv4.Option{}
			var open []int
			buf := make([]byte, wireBlockCap)
			for step := 0; step < 4000; step++ {
				if len(open) < 2 || rng.IntN(40) == 0 {
					proto := byte(ipv4.ProtoTCP)
					if rng.IntN(3) == 0 {
						proto = ipv4.ProtoUDP
					}
					fd := k.Socket(10001, proto)
					if err := k.Connect(fd, addrPort("10.0.0.5", uint16(30000+fd)), addrPort("93.184.216.34", 80)); err != nil {
						t.Fatal(err)
					}
					open = append(open, fd)
				}
				i := rng.IntN(len(open))
				fd := open[i]
				s, err := k.GetSocket(fd)
				if err != nil {
					t.Fatal(err)
				}
				id := k.ipidCounter + 1
				var pkt *ipv4.Packet
				var want []byte
				switch r := rng.IntN(20); {
				case r == 0:
					o := randomOptions(rng)
					if err := k.SetIPOptions(fd, 0, o); err != nil {
						t.Fatal(err)
					}
					ref := make([]ipv4.Option, len(o))
					for j := range o {
						ref[j] = ipv4.Option{Type: o[j].Type, Data: bytes.Clone(o[j].Data)}
						for b := range o[j].Data { // the kernel must have copied them
							o[j].Data[b] = 0xee
						}
					}
					opts[fd] = ref
					continue
				case r == 1:
					want = freshPacket(t, s, opts[fd], id, transport.FlagSYN, nil)
					pkt, err = k.Handshake(fd)
				case r == 2:
					want = freshPacket(t, s, opts[fd], id, transport.FlagFIN|transport.FlagACK, nil)
					pkt, err = k.Shutdown(fd)
					if err == nil {
						_ = k.Close(fd)
						open = append(open[:i], open[i+1:]...)
						delete(opts, fd)
					}
				default:
					if s.finSent {
						continue
					}
					n := blockSizes[rng.IntN(len(blockSizes))]
					payload := buf[:n]
					for j := range payload {
						payload[j] = byte(rng.Uint32())
					}
					want = freshPacket(t, s, opts[fd], id, transport.FlagPSH|transport.FlagACK, payload)
					pkt, err = k.Send(fd, payload)
					for j := range payload { // the kernel must have copied it
						payload[j] = 0xee
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if pkt != nil {
					out = append(out, built{pkt, want})
				}
			}
			if len(out) < 3000 {
				t.Fatalf("only %d packets built", len(out))
			}
			for i, b := range out {
				got, err := b.pkt.Marshal()
				if err != nil || !bytes.Equal(got, b.want) {
					t.Fatalf("packet %d of %d (%d-byte payload) differs from a freshly built one (err %v)",
						i, len(out), len(b.pkt.Payload), err)
				}
			}
		})
	}
}

// taggedKernel is a kernel with one connected TCP socket carrying an
// 11-byte tag, SYN sent.
func taggedKernel(t *testing.T) (*Kernel, int) {
	t.Helper()
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	tag := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{0x10, 1, 2, 3, 4, 5, 6, 7, 8, 0, 7}}}
	if err := k.SetIPOptions(fd, 0, tag); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Handshake(fd); err != nil {
		t.Fatal(err)
	}
	return k, fd
}

func mustMarshal(t *testing.T, p *ipv4.Packet) []byte {
	t.Helper()
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendToPacketLeavesNeighboursAlone: packets cut from one block sit
// side by side, so every cut is capacity-capped. Appending to one packet's
// payload, option list or option bytes must reallocate, leaving the
// packets either side, and the socket's later packets, unchanged.
func TestAppendToPacketLeavesNeighboursAlone(t *testing.T) {
	k, fd := taggedKernel(t)
	var pkts [3]*ipv4.Packet
	var want [3][]byte
	for i := range pkts {
		p, err := k.Send(fd, []byte(fmt.Sprint("GET /", i)))
		if err != nil {
			t.Fatal(err)
		}
		pkts[i], want[i] = p, mustMarshal(t, p)
	}
	mid := pkts[1]
	if cap(mid.Payload) != len(mid.Payload) || cap(mid.Header.Options) != len(mid.Header.Options) ||
		cap(mid.Header.Options[0].Data) != len(mid.Header.Options[0].Data) {
		t.Fatal("a packet's cuts are not capacity-capped")
	}
	mid.Payload = append(mid.Payload, bytes.Repeat([]byte{0xee}, 64)...)
	mid.Header.Options = append(mid.Header.Options, ipv4.Option{Type: ipv4.OptTimestamp, Data: []byte{0xee, 0xee}})
	mid.Header.Options[0].Data = append(mid.Header.Options[0].Data, 0xee)
	for _, i := range []int{0, 2} {
		if got := mustMarshal(t, pkts[i]); !bytes.Equal(got, want[i]) {
			t.Fatalf("appending to packet 1 changed packet %d", i)
		}
	}
	next, err := k.Send(fd, []byte("GET /0"))
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := next.Header.FindOption(ipv4.OptSecurity)
	if len(next.Header.Options) != 1 || len(opt.Data) != 11 || opt.Data[10] != 7 {
		t.Fatalf("appending to packet 1 changed the socket's next packet: %+v", next.Header.Options)
	}
}

// TestRetainedPacketSurvivesLaterSends: a packet held while the kernel cuts
// ten thousand more, through many blocks, stays byte-identical.
func TestRetainedPacketSurvivesLaterSends(t *testing.T) {
	k, fd := taggedKernel(t)
	kept, err := k.Send(fd, []byte("GET /kept HTTP/1.1\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := mustMarshal(t, kept)
	payload := make([]byte, 600)
	for i := 0; i < 10_000; i++ {
		for j := range payload {
			payload[j] = byte(i)
		}
		if _, err := k.Send(fd, payload[:i%len(payload)]); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustMarshal(t, kept); !bytes.Equal(got, want) {
		t.Fatal("a retained packet changed under later sends")
	}
}

// TestConcurrentSocketsShareBlocks: sockets of one kernel sending from
// their own goroutines cut from the same blocks under the kernel's lock;
// each packet carries its own socket's ports and bytes. Run with -race.
func TestConcurrentSocketsShareBlocks(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	const workers, sends = 4, 500
	var wg sync.WaitGroup
	got := make([][]*ipv4.Packet, workers)
	for w := 0; w < workers; w++ {
		fd := k.Socket(10001, ipv4.ProtoTCP)
		if err := k.Connect(fd, addrPort("10.0.0.5", uint16(40000+w)), addrPort("93.184.216.34", 80)); err != nil {
			t.Fatal(err)
		}
		if err := k.SetIPOptions(fd, 0, []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{byte(w), 1, 2}}}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w, fd int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, 40+w)
			for i := 0; i < sends; i++ {
				p, err := k.Send(fd, payload)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], p)
			}
		}(w, fd)
	}
	wg.Wait()
	for w, pkts := range got {
		if len(pkts) != sends {
			t.Fatalf("worker %d built %d packets", w, len(pkts))
		}
		for _, p := range pkts {
			seg, err := transport.ViewTCP(p.Payload)
			opt, _ := p.Header.FindOption(ipv4.OptSecurity)
			if err != nil || seg.SrcPort != uint16(40000+w) || len(opt.Data) != 3 || opt.Data[0] != byte(w) ||
				!bytes.Equal(seg.Payload, bytes.Repeat([]byte{byte('a' + w)}, 40+w)) {
				t.Fatalf("worker %d: packet carries another socket's bytes (err %v)", w, err)
			}
		}
	}
}

// TestIdleDeviceHoldsLittle: blocks start small, so a device whose one
// connection sent a SYN, a request and a FIN holds under a kilobyte of
// blocks.
func TestIdleDeviceHoldsLittle(t *testing.T) {
	k, fd := taggedKernel(t)
	if _, err := k.Send(fd, []byte("GET / HTTP/1.1\r\nHost: files.corp.example\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Shutdown(fd); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	held := cap(k.pkts)*int(unsafe.Sizeof(ipv4.Packet{})) + cap(k.opts)*int(unsafe.Sizeof(ipv4.Option{})) + cap(k.wire)
	if held > 1024 {
		t.Fatalf("an idle 3-packet device holds %d bytes of blocks, want ≤ 1024", held)
	}
}
