// Package netstack models the device-side socket layer with Java's exact
// semantics (paper §II-B1): a java.net.Socket object is created eagerly in
// managed code, but the operating-system socket (the socket(2) syscall)
// happens lazily on the first connect or bind. BorderPatrol's Context
// Manager hooks these transitions, so the distinction matters.
package netstack

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
)

// Errors for socket misuse.
var (
	ErrClosed       = errors.New("netstack: socket closed")
	ErrNotConnected = errors.New("netstack: socket not connected")
)

// ConnectHook observes a completed connect: the paper's Xposed post-hooks
// run after the OS socket exists and the connection is established, so the
// hook receives a live fd it can set options on.
type ConnectHook func(sock *JavaSocket)

// Stack is the per-device network stack: it allocates ephemeral ports,
// owns the kernel reference, and dispatches post-connect hooks.
type Stack struct {
	mu        sync.Mutex
	kern      *kernel.Kernel
	localAddr netip.Addr
	nextPort  uint16
	hooks     []ConnectHook
}

// NewStack builds a stack for a device with the given local address.
func NewStack(k *kernel.Kernel, local netip.Addr) *Stack {
	return &Stack{
		kern:      k,
		localAddr: local,
		nextPort:  40000,
	}
}

// Kernel returns the underlying kernel (for test assertions and the JNI
// shim, which issues setsockopt directly).
func (st *Stack) Kernel() *kernel.Kernel { return st.kern }

// LocalAddr returns the device address.
func (st *Stack) LocalAddr() netip.Addr { return st.localAddr }

// RegisterConnectHook installs a post-connect hook (the Xposed framework
// calls this when the Context Manager module loads). The hook list is
// copy-on-write: a new list replaces the old, so Connect can run the one
// it read without copying it.
func (st *Stack) RegisterConnectHook(h ConnectHook) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hooks = append(slices.Clip(st.hooks), h)
}

func (st *Stack) allocPort() uint16 {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := st.nextPort
	st.nextPort++
	if st.nextPort == 0 {
		st.nextPort = 40000
	}
	return p
}

func (st *Stack) connectHooks() []ConnectHook {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hooks
}

// JavaSocket mirrors java.net.Socket: constructing it does NOT create an
// OS socket; Connect does (lazy initialization). A socket built with
// NewDatagramSocket mirrors java.net.DatagramSocket instead: the same
// lazy lifecycle and the same post-connect hooks (so the Context Manager
// tags UDP flows exactly like TCP ones), but payloads ride in UDP
// datagrams and there is no connection handshake.
type JavaSocket struct {
	stack *Stack
	// proto is the transport protocol (ipv4.ProtoTCP or ipv4.ProtoUDP).
	proto byte
	mu    sync.Mutex
	// fd is -1 until the lazy socket(2) call.
	fd        int
	connected bool
	closed    bool
	remote    netip.AddrPort
	local     netip.AddrPort
	// OwnerUID is the Android uid of the app that owns the socket.
	OwnerUID int
	// ctx carries opaque per-socket context attached by hooks (the Context
	// Manager stores the captured stack trace here so tests and the
	// extractor can read it back). Guarded by mu: hooks run on whatever
	// goroutine called Connect, readers can be anywhere.
	ctx any
}

// NewJavaSocket mirrors `new java.net.Socket()`: no OS socket yet.
func (st *Stack) NewJavaSocket(ownerUID int) *JavaSocket {
	return &JavaSocket{stack: st, fd: -1, proto: ipv4.ProtoTCP, OwnerUID: ownerUID}
}

// NewDatagramSocket mirrors `new java.net.DatagramSocket()` connected
// usage: a UDP socket with the same lazy creation and hook semantics.
func (st *Stack) NewDatagramSocket(ownerUID int) *JavaSocket {
	return &JavaSocket{stack: st, fd: -1, proto: ipv4.ProtoUDP, OwnerUID: ownerUID}
}

// SetContext attaches opaque per-socket context. The publication is
// synchronized on the socket's own mutex, so a hook writing from the
// connect path never races a reader on another goroutine.
func (s *JavaSocket) SetContext(v any) {
	s.mu.Lock()
	s.ctx = v
	s.mu.Unlock()
}

// Context returns the context attached by SetContext (nil before any).
func (s *JavaSocket) Context() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctx
}

// FD returns the OS file descriptor, or -1 before the lazy socket call.
func (s *JavaSocket) FD() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fd
}

// Connected reports whether Connect succeeded.
func (s *JavaSocket) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// Remote returns the connected peer.
func (s *JavaSocket) Remote() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote
}

// Local returns the bound local address/port.
func (s *JavaSocket) Local() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.local
}

// Connect implements java.net.Socket.connect: it lazily issues the
// socket(2) syscall, then connect(2), then fires the registered
// post-connect hooks (Xposed transfers control to the Context Manager
// here; paper Fig. 2 step 1).
func (s *JavaSocket) Connect(remote netip.AddrPort) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.connected {
		s.mu.Unlock()
		return kernel.ErrIsConnected
	}
	if s.fd < 0 {
		s.fd = s.stack.kern.Socket(s.OwnerUID, s.proto)
	}
	local := netip.AddrPortFrom(s.stack.localAddr, s.stack.allocPort())
	if err := s.stack.kern.Connect(s.fd, local, remote); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("netstack: connect: %w", err)
	}
	s.local = local
	s.remote = remote
	s.connected = true
	s.mu.Unlock()

	for _, h := range s.stack.connectHooks() {
		h(s)
	}
	return nil
}

// Handshake emits the connection-opening SYN for a connected TCP socket
// (tagged — the hooks have already run by the time Connect returns). It
// returns (nil, nil) for UDP sockets, so callers can append the result
// unconditionally when non-nil.
func (s *JavaSocket) Handshake() (*ipv4.Packet, error) {
	fd, err := s.liveFD()
	if err != nil {
		return nil, err
	}
	return s.stack.kern.Handshake(fd)
}

// Finish emits the connection-closing FIN for a connected TCP socket; the
// caller still Closes the socket afterwards. Like Handshake it returns
// (nil, nil) when there is nothing to emit.
func (s *JavaSocket) Finish() (*ipv4.Packet, error) {
	fd, err := s.liveFD()
	if err != nil {
		return nil, err
	}
	return s.stack.kern.Shutdown(fd)
}

func (s *JavaSocket) liveFD() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return -1, ErrClosed
	}
	if !s.connected {
		return -1, ErrNotConnected
	}
	return s.fd, nil
}

// Send writes a payload to the connected socket; the kernel builds the
// packet, wrapping the payload in the socket's transport header and
// stamping the socket's IP options. The resulting wire packet is returned.
func (s *JavaSocket) Send(payload []byte) (*ipv4.Packet, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if !s.connected {
		s.mu.Unlock()
		return nil, ErrNotConnected
	}
	fd := s.fd
	s.mu.Unlock()
	return s.stack.kern.Send(fd, payload)
}

// Close implements java.net.Socket.close.
func (s *JavaSocket) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	if s.fd >= 0 {
		return s.stack.kern.Close(s.fd)
	}
	return nil
}
