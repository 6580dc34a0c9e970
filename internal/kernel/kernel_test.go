package kernel

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/transport"
)

func addrPort(a string, p uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr(a), p)
}

func newConnected(t *testing.T, k *Kernel) int {
	t.Helper()
	fd := k.Socket(10001, ipv4.ProtoTCP)
	if err := k.Connect(fd, addrPort("10.0.0.5", 40000), addrPort("93.184.216.34", 80)); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return fd
}

func TestSocketLifecycle(t *testing.T) {
	k := New(Config{})
	fd := k.Socket(10001, ipv4.ProtoTCP)
	if fd < 3 {
		t.Fatalf("fd = %d, want >= 3", fd)
	}
	s, err := k.GetSocket(fd)
	if err != nil || s.State != SockCreated {
		t.Fatalf("state = %v err = %v", s.State, err)
	}
	if err := k.Connect(fd, addrPort("10.0.0.5", 40000), addrPort("1.2.3.4", 80)); err != nil {
		t.Fatal(err)
	}
	if err := k.Connect(fd, addrPort("10.0.0.5", 40001), addrPort("1.2.3.4", 80)); !errors.Is(err, ErrIsConnected) {
		t.Fatalf("double connect: %v", err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close: %v", err)
	}
	if err := k.Connect(fd, addrPort("10.0.0.5", 40001), addrPort("1.2.3.4", 80)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("connect after close: %v", err)
	}
	if _, err := k.Send(fd, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestSendRequiresConnect(t *testing.T) {
	k := New(Config{})
	fd := k.Socket(10001, ipv4.ProtoTCP)
	if _, err := k.Send(fd, []byte("x")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ENOTCONN", err)
	}
}

func TestSetIPOptionsPermissionModel(t *testing.T) {
	// Unpatched kernel: unprivileged caller gets EPERM, CAP_NET_ADMIN works.
	k := New(Config{AllowUnprivilegedIPOptions: false})
	fd := newConnected(t, k)
	opt := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3}}}
	if err := k.SetIPOptions(fd, 0, opt); !errors.Is(err, ErrPermission) {
		t.Fatalf("unprivileged on unpatched kernel: %v", err)
	}
	if err := k.SetIPOptions(fd, CapNetAdmin, opt); err != nil {
		t.Fatalf("privileged on unpatched kernel: %v", err)
	}

	// Patched kernel: unprivileged caller succeeds (the paper's one-line patch).
	kp := New(Config{AllowUnprivilegedIPOptions: true})
	fd2 := newConnected(t, kp)
	if err := kp.SetIPOptions(fd2, 0, opt); err != nil {
		t.Fatalf("unprivileged on patched kernel: %v", err)
	}
}

func TestSetOnceHardeningBlocksReplay(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true, SetOptionsOncePerSocket: true})
	fd := newConnected(t, k)
	benign := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{0xaa}}}
	if err := k.SetIPOptions(fd, 0, benign); err != nil {
		t.Fatal(err)
	}
	// A malicious function replaying a benign tag must be rejected.
	replay := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{0xbb}}}
	if err := k.SetIPOptions(fd, 0, replay); !errors.Is(err, ErrOptionSealed) {
		t.Fatalf("replay: %v", err)
	}
	// The original tag survives.
	s, _ := k.GetSocket(fd)
	if len(s.Options) != 1 || s.Options[0].Data[0] != 0xaa {
		t.Fatalf("options = %+v", s.Options)
	}
	// Without hardening, overwrite is allowed (prototype behaviour).
	k2 := New(Config{AllowUnprivilegedIPOptions: true})
	fd2 := newConnected(t, k2)
	if err := k2.SetIPOptions(fd2, 0, benign); err != nil {
		t.Fatal(err)
	}
	if err := k2.SetIPOptions(fd2, 0, replay); err != nil {
		t.Fatalf("prototype kernel must allow overwrite: %v", err)
	}
}

func TestSetIPOptionsSizeLimit(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	big := []ipv4.Option{{Type: ipv4.OptSecurity, Data: make([]byte, 39)}}
	if err := k.SetIPOptions(fd, 0, big); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized options: %v", err)
	}
}

func TestSendStampsOptions(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	if err := k.SetIPOptions(fd, 0, []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{7, 8, 9}}}); err != nil {
		t.Fatal(err)
	}
	pkt, err := k.Send(fd, []byte("GET /"))
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
	if !ok || len(opt.Data) != 3 {
		t.Fatalf("options not stamped: %+v", pkt.Header.Options)
	}
	if pkt.Header.Src != netip.MustParseAddr("10.0.0.5") || pkt.Header.Dst != netip.MustParseAddr("93.184.216.34") {
		t.Fatal("addresses wrong")
	}
	// IP IDs increment per packet.
	pkt2, _ := k.Send(fd, []byte("GET /2"))
	if pkt2.Header.ID == pkt.Header.ID {
		t.Fatal("IP ID did not advance")
	}
}

func TestFDsAreUniquePerKernel(t *testing.T) {
	k := New(Config{})
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		fd := k.Socket(10001, ipv4.ProtoTCP)
		if seen[fd] {
			t.Fatalf("fd %d reused while open", fd)
		}
		seen[fd] = true
	}
}

func TestSendWrapsTCPSegment(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	pkt, err := k.Send(fd, []byte("GET / HTTP/1.1\r\n\r\n"))
	if err != nil || pkt == nil {
		t.Fatalf("send: pkt=%v err=%v", pkt, err)
	}
	seg, err := transport.ParseTCP(pkt.Payload)
	if err != nil {
		t.Fatalf("payload is not a TCP segment: %v", err)
	}
	if seg.SrcPort != 40000 || seg.DstPort != 80 {
		t.Fatalf("segment ports %d->%d, want 40000->80", seg.SrcPort, seg.DstPort)
	}
	if seg.Flags != transport.FlagPSH|transport.FlagACK {
		t.Fatalf("data segment flags %#02x", seg.Flags)
	}
	if string(seg.Payload) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("segment payload %q", seg.Payload)
	}
	// Sequence numbers advance by payload length across sends.
	pkt2, _ := k.Send(fd, []byte("x"))
	seg2, err := transport.ParseTCP(pkt2.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if seg2.Seq != seg.Seq+uint32(len(seg.Payload)) {
		t.Fatalf("seq %d after %d+%d", seg2.Seq, seg.Seq, len(seg.Payload))
	}
}

func TestConnectionLifecycleSegments(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)

	syn, err := k.Handshake(fd)
	if err != nil || syn == nil {
		t.Fatalf("handshake: pkt=%v err=%v", syn, err)
	}
	seg, err := transport.ParseTCP(syn.Payload)
	if err != nil || seg.Flags != transport.FlagSYN || len(seg.Payload) != 0 {
		t.Fatalf("SYN segment = %+v err=%v", seg, err)
	}
	// Handshake is idempotent: the SYN goes out once.
	if again, err := k.Handshake(fd); err != nil || again != nil {
		t.Fatalf("second handshake: pkt=%v err=%v", again, err)
	}

	data, err := k.Send(fd, []byte("payload"))
	if err != nil || data == nil {
		t.Fatal("send after handshake failed")
	}
	dseg, _ := transport.ParseTCP(data.Payload)
	if dseg.Seq != seg.Seq+1 {
		t.Fatalf("data seq %d, want ISN+1 = %d (SYN consumes one)", dseg.Seq, seg.Seq+1)
	}

	fin, err := k.Shutdown(fd)
	if err != nil || fin == nil {
		t.Fatalf("shutdown: pkt=%v err=%v", fin, err)
	}
	fseg, err := transport.ParseTCP(fin.Payload)
	if err != nil || fseg.Flags != transport.FlagFIN|transport.FlagACK {
		t.Fatalf("FIN segment = %+v err=%v", fseg, err)
	}
	// Half-closed: no data after FIN, and the FIN goes out once.
	if _, err := k.Send(fd, []byte("late")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send after FIN: %v", err)
	}
	if again, err := k.Shutdown(fd); err != nil || again != nil {
		t.Fatalf("second shutdown: pkt=%v err=%v", again, err)
	}
}

func TestUDPSocketsWrapDatagrams(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := k.Socket(10001, ipv4.ProtoUDP)
	if err := k.Connect(fd, addrPort("10.0.0.5", 40002), addrPort("10.66.0.53", 53)); err != nil {
		t.Fatal(err)
	}
	// No handshake and no teardown segments on UDP.
	if pkt, err := k.Handshake(fd); err != nil || pkt != nil {
		t.Fatalf("UDP handshake: pkt=%v err=%v", pkt, err)
	}
	pkt, err := k.Send(fd, []byte("dns-query"))
	if err != nil || pkt == nil {
		t.Fatal("UDP send failed")
	}
	if pkt.Header.Protocol != ipv4.ProtoUDP {
		t.Fatalf("protocol = %d", pkt.Header.Protocol)
	}
	dg, err := transport.ParseUDP(pkt.Payload)
	if err != nil {
		t.Fatalf("payload is not a UDP datagram: %v", err)
	}
	if dg.SrcPort != 40002 || dg.DstPort != 53 || string(dg.Payload) != "dns-query" {
		t.Fatalf("datagram = %+v", dg)
	}
	if pkt, err := k.Shutdown(fd); err != nil || pkt != nil {
		t.Fatalf("UDP shutdown: pkt=%v err=%v", pkt, err)
	}
}

func TestUDPSendRejectsOversizedPayload(t *testing.T) {
	checkIPv4Budget(t, ipv4.ProtoUDP, transport.UDPHeaderLen)
}

func TestTCPSendRejectsOversizedPayload(t *testing.T) {
	checkIPv4Budget(t, ipv4.ProtoTCP, transport.TCPHeaderLen)
}

// checkIPv4Budget pins EMSGSIZE at the 16-bit IPv4 total length, which
// covers the IPv4 header, its options and the transport header: one byte
// over fails without consuming a sequence number, and a payload exactly
// at the budget makes a 65,535-byte packet that marshals and parses back.
func checkIPv4Budget(t *testing.T, proto byte, thdr int) {
	t.Helper()
	for _, opts := range [][]ipv4.Option{nil, {{Type: ipv4.OptSecurity, Data: make([]byte, 11)}}} {
		k := New(Config{AllowUnprivilegedIPOptions: true})
		fd := k.Socket(10001, proto)
		if err := k.Connect(fd, addrPort("10.0.0.5", 40002), addrPort("10.66.0.53", 53)); err != nil {
			t.Fatal(err)
		}
		if err := k.SetIPOptions(fd, 0, opts); err != nil {
			t.Fatal(err)
		}
		h := ipv4.Header{Options: opts}
		hlen, err := h.HeaderLen()
		if err != nil {
			t.Fatal(err)
		}
		budget := ipv4.MaxPacketLen - hlen - thdr
		before, _ := k.GetSocket(fd)
		if _, err := k.Send(fd, make([]byte, budget+1)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%d options: payload one byte over the IPv4 budget: %v", len(opts), err)
		}
		if after, _ := k.GetSocket(fd); after.seq != before.seq {
			t.Fatalf("%d options: refused send moved seq %d -> %d", len(opts), before.seq, after.seq)
		}
		pkt, err := k.Send(fd, make([]byte, budget))
		if err != nil || pkt == nil {
			t.Fatalf("%d options: payload at the budget: pkt=%v err=%v", len(opts), pkt, err)
		}
		wire, err := pkt.Marshal()
		if err != nil || len(wire) != ipv4.MaxPacketLen {
			t.Fatalf("%d options: marshal: %d bytes, %v", len(opts), len(wire), err)
		}
		back, err := ipv4.Unmarshal(wire)
		if err != nil || !bytes.Equal(back.Payload, pkt.Payload) || len(back.Header.Options) != len(opts) {
			t.Fatalf("%d options: packet does not parse back: %v", len(opts), err)
		}
		var info transport.Info
		if !transport.PeekPacket(back, &info) || info.DataOff != thdr {
			t.Fatalf("%d options: transport header lost: %+v", len(opts), info)
		}
	}
}

// TestCloseFreesSocket pins that a device's socket table follows its open
// connections: connect/send/close cycles leave nothing behind, and a closed
// fd answers EBADF on every call.
func TestCloseFreesSocket(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	var last int
	for i := 0; i < 1000; i++ {
		fd := newConnected(t, k)
		if _, err := k.Handshake(fd); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Send(fd, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Shutdown(fd); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(fd); err != nil {
			t.Fatal(err)
		}
		if fd <= last {
			t.Fatalf("fd %d reused after %d", fd, last)
		}
		last = fd
	}
	if n := len(k.sockets); n != 0 {
		t.Fatalf("%d sockets tracked after every one was closed", n)
	}
	for name, err := range map[string]error{
		"GetSocket":    func() error { _, err := k.GetSocket(last); return err }(),
		"SetIPOptions": k.SetIPOptions(last, CapNetAdmin, nil),
		"Handshake":    func() error { _, err := k.Handshake(last); return err }(),
		"Shutdown":     func() error { _, err := k.Shutdown(last); return err }(),
	} {
		if !errors.Is(err, ErrBadFD) {
			t.Errorf("%s on a closed fd: %v, want ErrBadFD", name, err)
		}
	}
}

// TestGetSocketSnapshotOwnsOptionBytes: every packet of a socket carries
// the socket's one copy of its option bytes, so a snapshot that aliased
// them would let its holder rewrite the tag of every later packet.
// Scribbling on the snapshot must leave the next packet's tag as set.
func TestGetSocketSnapshotOwnsOptionBytes(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	tag := []byte{0x10, 1, 2, 3, 4, 5, 6, 7, 8, 0, 7}
	if err := k.SetIPOptions(fd, 0, []ipv4.Option{{Type: ipv4.OptSecurity, Data: tag}}); err != nil {
		t.Fatal(err)
	}
	tag[0] = 0xee // the caller's bytes were copied at setsockopt
	snap, err := k.GetSocket(fd)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Options[0].Data {
		snap.Options[0].Data[i] = 0xff
	}
	snap.Options[0].Type = ipv4.OptTimestamp
	pkt, err := k.Send(fd, []byte("GET"))
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
	if !ok || opt.Data[0] != 0x10 || opt.Data[len(opt.Data)-1] != 7 {
		t.Fatalf("packet tag after scribbling the snapshot: %x (found %v)", opt.Data, ok)
	}
}
