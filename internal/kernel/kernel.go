// Package kernel simulates the Linux-kernel facilities BorderPatrol
// depends on: POSIX-style socket syscalls with capability checks on
// IP_OPTIONS, the paper's one-line kernel patch that lifts the
// CAP_NET_RAW requirement for unprivileged apps (§V-B "Instrumented Linux
// kernel"), and the set-once hardening against tag replay (§VII
// "Tag-replay"). The device runs no packet filter: every packet a socket
// call builds leaves the device as built. The gateway's NFQUEUE (§V-C) is
// modelled in virtual time by the netsim package, which calls its stages
// directly.
//
// A kernel builds its packets into blocks it owns (package block): each
// Packet, its option list, its transport segment and each socket's option
// bytes are capacity-capped cuts of a few shared slices, so a send
// allocates nothing of its own. An append by a holder of a packet
// reallocates instead of writing into a neighbour, and holding a packet
// pins the blocks it was cut from.
package kernel

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"borderpatrol/internal/block"
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
	FD       int
	State    SockState
	Local    netip.AddrPort
	Remote   netip.AddrPort
	Protocol byte
	// Options are the IP options every packet of the socket carries:
	// setsockopt's list, an option type given twice kept once, at its
	// first place, with its last value.
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
	// pkts, opts and wire are the blocks packets are cut from (see
	// block.Take): the packets, their option lists and socket option
	// lists, and the transport segments and socket option bytes.
	pkts []ipv4.Packet
	opts []ipv4.Option
	wire []byte
}

// Block sizes, in elements: a block starts at its first size and each
// replacement doubles, up to its cap (both rounded up as block.Take says),
// so a device that sends a handful of packets holds under a kilobyte of
// blocks and a busy one allocates once per a few hundred packets. A segment
// longer than a quarter of wireBlockCap gets its own buffer, so no block
// is mostly one segment.
const (
	pktBlockFirst, pktBlockCap   = 4, 256
	optBlockFirst, optBlockCap   = 4, 256
	wireBlockFirst, wireBlockCap = 256, 32 << 10
)

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
	// Options and their bytes go into the blocks: every packet of the
	// socket shares these bytes, and no caller can reach them to write.
	h := ipv4.Header{Options: block.Take(&k.opts, len(opts), optBlockFirst, optBlockCap)[:0]}
	for _, o := range opts {
		if len(o.Data) > 0 {
			o.Data = append(block.Take(&k.wire, len(o.Data), wireBlockFirst, wireBlockCap)[:0], o.Data...)
		}
		h.SetOption(o)
	}
	s.Options = h.Options
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
	cp.Options = make([]ipv4.Option, len(s.Options))
	for i, o := range s.Options {
		cp.Options[i] = ipv4.Option{Type: o.Type, Data: append([]byte(nil), o.Data...)}
	}
	return cp, nil
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
// enters the network. A payload that would make the packet longer than an
// IPv4 packet can be fails with ErrInvalid, the EMSGSIZE of a real send(2).
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
	n := transport.TCPHeaderLen + len(payload)
	if s.Protocol == ipv4.ProtoUDP {
		n = transport.UDPHeaderLen + len(payload)
	}
	// SetIPOptions kept the options within MaxOptionsLen, so HeaderLen
	// cannot fail.
	h := ipv4.Header{Options: s.Options}
	if hlen, _ := h.HeaderLen(); hlen+n > ipv4.MaxPacketLen {
		return nil, fmt.Errorf("%w: %d-byte packet exceeds %d bytes",
			ErrInvalid, hlen+n, ipv4.MaxPacketLen)
	}
	if s.Protocol == ipv4.ProtoUDP {
		dg := transport.UDPDatagram{
			SrcPort: s.Local.Port(),
			DstPort: s.Remote.Port(),
			Payload: payload,
		}
		return k.buildPacketLocked(s, dg.AppendTo(k.segmentLocked(n))), nil
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
	return k.buildPacketLocked(s, seg.AppendTo(k.segmentLocked(n))), nil
}

// segmentLocked returns an empty buffer with room for exactly an n-byte
// transport segment: a cut of the wire block, or a buffer of its own when
// n is over a quarter of the block cap. Caller holds k.mu.
func (k *Kernel) segmentLocked(n int) []byte {
	if n > wireBlockCap/4 {
		return make([]byte, 0, n)
	}
	return block.Take(&k.wire, n, wireBlockFirst, wireBlockCap)[:0]
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
// packet and its option list are cut from the kernel's blocks; the option
// bytes are the socket's, which nothing writes after SetIPOptions (the
// invariant on ipv4.Packet). Caller holds k.mu.
func (k *Kernel) buildPacketLocked(s *Socket, wire []byte) *ipv4.Packet {
	k.ipidCounter++
	pkt := &block.Take(&k.pkts, 1, pktBlockFirst, pktBlockCap)[0]
	pkt.Header = ipv4.Header{
		ID:       k.ipidCounter,
		TTL:      64,
		Protocol: s.Protocol,
		Src:      s.Local.Addr(),
		Dst:      s.Remote.Addr(),
	}
	pkt.Payload = wire
	if len(s.Options) > 0 {
		pkt.Header.Options = block.Take(&k.opts, len(s.Options), optBlockFirst, optBlockCap)
		copy(pkt.Header.Options, s.Options)
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
	return k.buildPacketLocked(s, seg.AppendTo(k.segmentLocked(transport.TCPHeaderLen))), nil
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
	return k.buildPacketLocked(s, seg.AppendTo(k.segmentLocked(transport.TCPHeaderLen))), nil
}
