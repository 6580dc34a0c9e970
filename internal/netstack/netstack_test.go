package netstack

import (
	"errors"
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
)

func newStack() *Stack {
	k := kernel.New(kernel.Config{AllowUnprivilegedIPOptions: true})
	return NewStack(k, netip.MustParseAddr("10.0.0.5"))
}

func remoteAP() netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 80)
}

// firstFD is the first fd a fresh kernel allocates (0-2 are stdio).
const firstFD = 3

func TestLazySocketCreation(t *testing.T) {
	st := newStack()
	s := st.NewJavaSocket(10001)
	// Mirrors Java: constructing the socket object does not call socket(2).
	if s.FD() != -1 {
		t.Fatalf("fd = %d before connect, want -1 (lazy init)", s.FD())
	}
	if err := s.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	// The kernel hands out fds from 3 up, one per socket(2): the first fd
	// means connect made the stack's first socket(2) call; the next one
	// allocated means it made no other.
	if s.FD() != firstFD {
		t.Fatalf("fd = %d on connect, want %d (the stack's first socket(2))", s.FD(), firstFD)
	}
	if fd := st.Kernel().Socket(10001, ipv4.ProtoTCP); fd != firstFD+1 {
		t.Fatalf("next socket(2) got fd %d, want %d: connect made more than one call", fd, firstFD+1)
	}
	if !s.Connected() {
		t.Fatal("not connected")
	}
	if s.Remote() != remoteAP() {
		t.Fatal("remote wrong")
	}
	if s.Local().Addr() != netip.MustParseAddr("10.0.0.5") {
		t.Fatal("local address wrong")
	}
}

func TestConnectHookFiresAfterConnection(t *testing.T) {
	st := newStack()
	var hookedFD int
	var wasConnected bool
	st.RegisterConnectHook(func(sock *JavaSocket) {
		hookedFD = sock.FD()
		wasConnected = sock.Connected()
		sock.SetContext("context-attached")
	})
	s := st.NewJavaSocket(10001)
	if err := s.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	// Post-hook semantics: socket exists and is connected when hook runs.
	if hookedFD != s.FD() || !wasConnected {
		t.Fatalf("hook saw fd=%d connected=%v", hookedFD, wasConnected)
	}
	if s.Context() != "context-attached" {
		t.Fatal("hook context lost")
	}
}

func TestHookCanSetIPOptions(t *testing.T) {
	st := newStack()
	st.RegisterConnectHook(func(sock *JavaSocket) {
		err := st.Kernel().SetIPOptions(sock.FD(), 0, []ipv4.Option{
			{Type: ipv4.OptSecurity, Data: []byte{0xde, 0xad}},
		})
		if err != nil {
			t.Errorf("hook setsockopt: %v", err)
		}
	})
	s := st.NewJavaSocket(10001)
	if err := s.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	pkt, err := s.Send([]byte("GET / HTTP/1.1\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
	if !ok || opt.Data[0] != 0xde {
		t.Fatal("tag not stamped on packet")
	}
}

func TestSendErrors(t *testing.T) {
	st := newStack()
	s := st.NewJavaSocket(10001)
	if _, err := s.Send([]byte("x")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send before connect: %v", err)
	}
	if err := s.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Connect(remoteAP()); !errors.Is(err, ErrClosed) {
		t.Fatalf("connect after close: %v", err)
	}
}

func TestDoubleConnect(t *testing.T) {
	st := newStack()
	s := st.NewJavaSocket(10001)
	if err := s.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(remoteAP()); !errors.Is(err, kernel.ErrIsConnected) {
		t.Fatalf("double connect: %v", err)
	}
}

func TestCloseBeforeConnectIsCheap(t *testing.T) {
	st := newStack()
	s := st.NewJavaSocket(10001)
	if err := s.Close(); err != nil {
		t.Fatalf("close of never-connected socket: %v", err)
	}
	if fd := st.Kernel().Socket(10001, ipv4.ProtoTCP); fd != firstFD {
		t.Fatalf("closing an unconnected Java socket called socket(2): the next fd is %d, want %d", fd, firstFD)
	}
}

func TestEphemeralPortsAdvance(t *testing.T) {
	st := newStack()
	a := st.NewJavaSocket(10001)
	b := st.NewJavaSocket(10001)
	if err := a.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	if a.Local().Port() == b.Local().Port() {
		t.Fatal("two live sockets share an ephemeral port")
	}
}

// TestEphemeralPortWrapSkipsBoundPorts pins the counter's wrap: one socket
// holds the first ephemeral port open across 25,536 connect/close cycles,
// one for every ephemeral port, so the counter wraps from 65535 and must
// step over the held port instead of handing it out a second time. With
// every port held, Connect fails instead.
func TestEphemeralPortWrapSkipsBoundPorts(t *testing.T) {
	st := newStack()
	held := st.NewJavaSocket(10001)
	if err := held.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	heldPort := held.Local().Port()
	seen := 0
	for c := 0; c < 1<<16-firstEphemeral; c++ {
		s := st.NewJavaSocket(10001)
		if err := s.Connect(remoteAP()); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if p := s.Local().Port(); p == heldPort {
			t.Fatalf("cycle %d: port %d handed out while an open socket holds it", c, p)
		} else if p < firstEphemeral {
			t.Fatalf("cycle %d: port %d below the ephemeral range", c, p)
		} else if p == heldPort+1 {
			seen++
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 2 {
		t.Fatalf("port %d handed out %d times in one wrap, want 2 (before and after)", heldPort+1, seen)
	}

	// Every port held: the next connect has none left.
	open := []*JavaSocket{held}
	for c := 1; c < 1<<16-firstEphemeral; c++ {
		s := st.NewJavaSocket(10001)
		if err := s.Connect(remoteAP()); err != nil {
			t.Fatalf("socket %d of %d: %v", c, 1<<16-firstEphemeral, err)
		}
		open = append(open, s)
	}
	last := st.NewJavaSocket(10001)
	if err := last.Connect(remoteAP()); !errors.Is(err, ErrNoFreePort) {
		t.Fatalf("connect with every port held: err %v, want ErrNoFreePort", err)
	}
	// Closing one frees exactly that port.
	freed := open[100].Local().Port()
	if err := open[100].Close(); err != nil {
		t.Fatal(err)
	}
	again := st.NewJavaSocket(10001)
	if err := again.Connect(remoteAP()); err != nil || again.Local().Port() != freed {
		t.Fatalf("after closing port %d: got port %d, err %v", freed, again.Local().Port(), err)
	}
}

func TestSocketReuseKeepsOneContext(t *testing.T) {
	// Paper §VII "Socket reuse": all packets on one socket carry the stack
	// trace captured at connect time; reusing the socket for a different
	// purpose cannot change the tag without reconnecting.
	st := newStack()
	calls := 0
	st.RegisterConnectHook(func(sock *JavaSocket) {
		calls++
		_ = st.Kernel().SetIPOptions(sock.FD(), 0, []ipv4.Option{
			{Type: ipv4.OptSecurity, Data: []byte{byte(calls)}},
		})
	})
	s := st.NewJavaSocket(10001)
	if err := s.Connect(remoteAP()); err != nil {
		t.Fatal(err)
	}
	p1, _ := s.Send([]byte("first purpose"))
	p2, _ := s.Send([]byte("second purpose"))
	o1, _ := p1.Header.FindOption(ipv4.OptSecurity)
	o2, _ := p2.Header.FindOption(ipv4.OptSecurity)
	if o1.Data[0] != o2.Data[0] {
		t.Fatal("context changed across sends on one socket")
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times for one socket, want 1", calls)
	}
}

// TestHookRegisteredDuringConnect: the hook list is copy-on-write, so a
// hook registered while a Connect runs its hooks joins from the next
// Connect on, and the running one is not disturbed.
func TestHookRegisteredDuringConnect(t *testing.T) {
	st := newStack()
	var first, late int
	st.RegisterConnectHook(func(*JavaSocket) {
		first++
		if first == 1 {
			st.RegisterConnectHook(func(*JavaSocket) { late++ })
		}
	})
	for i := 0; i < 2; i++ {
		if err := st.NewJavaSocket(10001).Connect(remoteAP()); err != nil {
			t.Fatal(err)
		}
	}
	if first != 2 || late != 1 {
		t.Fatalf("first hook ran %d times, late hook %d; want 2 and 1", first, late)
	}
}
