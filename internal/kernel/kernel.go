// Package kernel simulates the Linux-kernel facilities BorderPatrol
// depends on: POSIX-style socket syscalls with capability checks on
// IP_OPTIONS, the paper's one-line kernel patch that lifts the
// CAP_NET_RAW requirement for unprivileged apps (§V-B "Instrumented Linux
// kernel"), and the set-once hardening against tag replay (§VII
// "Tag-replay"). The device runs no packet filter: every packet a socket
// call builds leaves the device as built. The gateway's NFQUEUE (§V-C) is
// modelled in virtual time by the netsim package, which calls its stages
// directly.
package kernel

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/transport"
)

// Capability bits mirror the Linux capabilities relevant to IP_OPTIONS.
type Capability uint32

// Capabilities.
const (
	// CapNetRaw permits raw packet construction (kernel default gate for
	// exotic socket options).
	CapNetRaw Capability = 1 << iota
	// CapNetAdmin permits network administration (header construction).
	CapNetAdmin
)

// Config selects kernel behaviour for a simulated device.
type Config struct {
	// AllowUnprivilegedIPOptions is the paper's one-line patch: when true,
	// user-space programs may set IP_OPTIONS without CAP_NET_ADMIN.
	AllowUnprivilegedIPOptions bool
	// SetOptionsOncePerSocket is the hardening the paper proposes against
	// tag replay: once IP_OPTIONS is set on a socket, further setsockopt
	// calls for it fail.
	SetOptionsOncePerSocket bool
}

// Errors mirroring the errno values the real syscalls produce.
var (
	ErrPermission   = errors.New("kernel: EPERM: operation not permitted")
	ErrBadFD        = errors.New("kernel: EBADF: bad file descriptor")
	ErrNotConnected = errors.New("kernel: ENOTCONN: socket not connected")
	ErrIsConnected  = errors.New("kernel: EISCONN: socket already connected")
	ErrInvalid      = errors.New("kernel: EINVAL: invalid argument")
	ErrOptionSealed = errors.New("kernel: EACCES: IP_OPTIONS already set on socket (set-once hardening)")
)

// SockState tracks a socket's lifecycle.
type SockState int

// Socket states.
const (
	// SockCreated is a socket after socket(2) and before connect(2).
	SockCreated SockState = iota + 1
	// SockConnected is a socket after a successful connect(2).
	SockConnected
)

// Socket is the kernel-side socket object.
type Socket struct {
	FD        int
	State     SockState
	Local     netip.AddrPort
	Remote    netip.AddrPort
	Protocol  byte
	Options   []ipv4.Option
	optSealed bool
	// OwnerUID identifies the app owning the socket (Android gives each
	// app a distinct uid).
	OwnerUID int
	// seq is the TCP send sequence number: the ISN is picked at connect,
	// the SYN and FIN each consume one, data consumes its length.
	seq uint32
	// synSent and finSent track the connection-lifecycle segments already
	// emitted, so Handshake/Shutdown are idempotent and data cannot
	// follow a FIN.
	synSent, finSent bool
}

// Kernel is one simulated kernel instance (one per device).
type Kernel struct {
	mu      sync.Mutex
	cfg     Config
	nextFD  int
	sockets map[int]*Socket
	// ipidCounter assigns IPv4 identification values.
	ipidCounter uint16
}

// New builds a kernel with the given configuration.
func New(cfg Config) *Kernel {
	return &Kernel{
		cfg:     cfg,
		nextFD:  3, // 0-2 are stdio, as on a real system
		sockets: make(map[int]*Socket),
	}
}

// Config returns the kernel configuration.
func (k *Kernel) Config() Config {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.cfg
}

// Socket implements socket(2): allocates a socket and returns its fd.
func (k *Kernel) Socket(ownerUID int, protocol byte) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	fd := k.nextFD
	k.nextFD++
	k.sockets[fd] = &Socket{
		FD:       fd,
		State:    SockCreated,
		Protocol: protocol,
		OwnerUID: ownerUID,
	}
	return fd
}

// Connect implements connect(2).
func (k *Kernel) Connect(fd int, local, remote netip.AddrPort) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.sockets[fd]
	if !ok {
		return ErrBadFD
	}
	if s.State == SockConnected {
		return ErrIsConnected
	}
	s.Local = local
	s.Remote = remote
	s.State = SockConnected
	// Deterministic ISN: fd and port spread connections apart; the
	// simulator needs reproducibility, not the RFC 6528 hash.
	s.seq = uint32(fd)<<16 | uint32(local.Port())
	return nil
}

// SetIPOptions implements setsockopt(fd, IPPROTO_IP, IP_OPTIONS, ...).
//
// The unpatched kernel requires CAP_NET_ADMIN (system apps only); the
// paper's patch lifts that requirement so the user-space Context Manager
// can tag sockets. With set-once hardening enabled, the first caller wins
// and later calls fail — defeating tag replay by malicious functions.
func (k *Kernel) SetIPOptions(fd int, caps Capability, opts []ipv4.Option) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.sockets[fd]
	if !ok {
		return ErrBadFD
	}
	if !k.cfg.AllowUnprivilegedIPOptions && caps&CapNetAdmin == 0 {
		return fmt.Errorf("%w: IP_OPTIONS requires CAP_NET_ADMIN on unpatched kernel", ErrPermission)
	}
	if k.cfg.SetOptionsOncePerSocket && s.optSealed {
		return ErrOptionSealed
	}
	total := 0
	for _, o := range opts {
		if o.Type != ipv4.OptEnd && o.Type != ipv4.OptNOP {
			total += 2 + len(o.Data)
		} else {
			total++
		}
	}
	if total > ipv4.MaxOptionsLen {
		return fmt.Errorf("%w: options %d bytes exceed %d", ErrInvalid, total, ipv4.MaxOptionsLen)
	}
	s.Options = cloneOptions(opts)
	s.optSealed = true
	return nil
}

// GetSocket returns a snapshot of the socket's kernel state, option bytes
// copied: the socket's own are what its every later packet carries.
func (k *Kernel) GetSocket(fd int) (Socket, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.sockets[fd]
	if !ok {
		return Socket{}, ErrBadFD
	}
	cp := *s
	cp.Options = cloneOptions(s.Options)
	return cp, nil
}

// cloneOptions deep-copies an option list, data included.
func cloneOptions(opts []ipv4.Option) []ipv4.Option {
	out := make([]ipv4.Option, len(opts))
	for i, o := range opts {
		out[i] = ipv4.Option{Type: o.Type, Data: append([]byte(nil), o.Data...)}
	}
	return out
}

// Close implements close(2) for sockets: the socket leaves the table, so a
// device's memory follows its open connections, not every connection it
// ever made. Fds are never reused, so every later call on fd finds no
// entry and returns ErrBadFD.
func (k *Kernel) Close(fd int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.sockets[fd]; !ok {
		return ErrBadFD
	}
	delete(k.sockets, fd)
	return nil
}

// Send builds the IPv4 packet for a payload written to a connected socket:
// it wraps the payload in the socket's transport header (a TCP data segment
// or a UDP datagram carrying the socket's real ports) and stamps the
// socket's IP options into the IPv4 header. It returns the packet as it
// enters the network.
func (k *Kernel) Send(fd int, payload []byte) (*ipv4.Packet, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, err := k.connectedLocked(fd)
	if err != nil {
		return nil, err
	}
	if s.finSent {
		return nil, ErrNotConnected
	}
	if s.Protocol == ipv4.ProtoUDP {
		if len(payload) > transport.MaxUDPPayload {
			// EMSGSIZE: the 16-bit UDP length field cannot represent it,
			// and Marshal would silently wrap the field.
			return nil, fmt.Errorf("%w: UDP payload %d exceeds %d bytes",
				ErrInvalid, len(payload), transport.MaxUDPPayload)
		}
		dg := transport.UDPDatagram{
			SrcPort: s.Local.Port(),
			DstPort: s.Remote.Port(),
			Payload: payload,
		}
		return k.buildPacketLocked(s, dg.Marshal()), nil
	}
	seg := transport.TCPSegment{
		SrcPort: s.Local.Port(),
		DstPort: s.Remote.Port(),
		Seq:     s.seq,
		Flags:   transport.FlagPSH | transport.FlagACK,
		Window:  65535,
		Payload: payload,
	}
	s.seq += uint32(len(payload))
	return k.buildPacketLocked(s, seg.Marshal()), nil
}

// connectedLocked returns fd's socket if it is connected. Caller holds
// k.mu.
func (k *Kernel) connectedLocked(fd int) (*Socket, error) {
	s, ok := k.sockets[fd]
	if !ok {
		return nil, ErrBadFD
	}
	if s.State != SockConnected {
		return nil, ErrNotConnected
	}
	return s, nil
}

// buildPacketLocked assembles the IPv4 packet for a socket's wire payload
// (transport header included) and stamps the socket's IP options. The
// packet gets its own option list but shares the option bytes, which
// SetIPOptions copied in and nothing writes after (the invariant on
// ipv4.Packet). Caller holds k.mu.
func (k *Kernel) buildPacketLocked(s *Socket, wire []byte) *ipv4.Packet {
	k.ipidCounter++
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			ID:       k.ipidCounter,
			TTL:      64,
			Protocol: s.Protocol,
			Src:      s.Local.Addr(),
			Dst:      s.Remote.Addr(),
		},
		Payload: wire,
	}
	if len(s.Options) > 0 {
		pkt.Header.Options = make([]ipv4.Option, 0, len(s.Options))
		for _, o := range s.Options {
			pkt.Header.SetOption(o)
		}
	}
	return pkt
}

// Handshake emits the connection-opening SYN segment for a connected TCP
// socket. It runs after the socket's IP options are in place (the Context
// Manager's post-connect hook has fired), so the SYN carries the flow's tag
// like every other packet and the gateway's conntrack can key the
// connection from its first segment. It returns (nil, nil) when the socket
// speaks UDP or when the SYN was already sent.
func (k *Kernel) Handshake(fd int) (*ipv4.Packet, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, err := k.connectedLocked(fd)
	if err != nil || s.Protocol != ipv4.ProtoTCP || s.synSent {
		return nil, err
	}
	seg := transport.TCPSegment{
		SrcPort: s.Local.Port(),
		DstPort: s.Remote.Port(),
		Seq:     s.seq,
		Flags:   transport.FlagSYN,
		Window:  65535,
	}
	s.seq++ // the SYN consumes one sequence number
	s.synSent = true
	return k.buildPacketLocked(s, seg.Marshal()), nil
}

// Shutdown emits the connection-closing FIN segment (FIN|ACK) for a
// connected TCP socket and marks the socket half-closed: further Sends
// fail. Like Handshake it returns (nil, nil) for UDP sockets or when the
// FIN was already sent. The gateway's conntrack tears the flow's cached
// verdict down when this segment passes enforcement.
func (k *Kernel) Shutdown(fd int) (*ipv4.Packet, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, err := k.connectedLocked(fd)
	if err != nil || s.Protocol != ipv4.ProtoTCP || s.finSent {
		return nil, err
	}
	seg := transport.TCPSegment{
		SrcPort: s.Local.Port(),
		DstPort: s.Remote.Port(),
		Seq:     s.seq,
		Flags:   transport.FlagFIN | transport.FlagACK,
		Window:  65535,
	}
	s.seq++ // the FIN consumes one sequence number
	s.finSent = true
	return k.buildPacketLocked(s, seg.Marshal()), nil
}
