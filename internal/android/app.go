package android

import (
	"errors"
	"fmt"
	"net/netip"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
)

// NetOp describes the network side effect of one app functionality: where
// it connects and what it transfers.
type NetOp struct {
	// Endpoint is the server the functionality talks to.
	Endpoint netip.AddrPort
	// Host is the HTTP Host header / DNS name (several endpoints can share
	// one IP, several names can resolve to one endpoint).
	Host string
	// Method is the HTTP method (GET for downloads, PUT/POST for uploads).
	Method string
	// Path is the request path.
	Path string
	// PayloadBytes is the request body size (upload volume).
	PayloadBytes int
	// Requests is how many requests ride the same socket (keep-alive); at
	// least 1.
	Requests int
	// Chunks splits the transfer across this many sockets (apps evading
	// flow-size thresholds fragment uploads; paper §VII); at least 1.
	Chunks int
	// UseNativeSocket bypasses the Java socket API entirely (libc/syscall
	// path the Xposed-based Context Manager cannot hook; paper §VII
	// "Native functions"). These packets leave the device untagged.
	UseNativeSocket bool
	// Proto selects the transport protocol: ipv4.ProtoTCP (the zero-value
	// default) sends HTTP requests over a TCP connection; ipv4.ProtoUDP
	// sends Datagram payloads (e.g. DNS queries) with no handshake.
	Proto byte
	// Datagram is the raw application payload sent per request on UDP
	// functionality (ignored for TCP, where the HTTP request is built
	// from Method/Path/Host/PayloadBytes).
	Datagram []byte
}

func (op *NetOp) normalize() NetOp {
	n := *op
	if n.Requests < 1 {
		n.Requests = 1
	}
	if n.Chunks < 1 {
		n.Chunks = 1
	}
	if n.Method == "" {
		n.Method = "GET"
	}
	if n.Path == "" {
		n.Path = "/"
	}
	if n.Proto == 0 {
		n.Proto = ipv4.ProtoTCP
	}
	return n
}

// Functionality is one user-reachable behaviour of an app: a call path
// through developer and/or library code that ends in network traffic.
type Functionality struct {
	// Name identifies the functionality ("login", "upload", "analytics").
	Name string
	// Desirable records the corporate view of the functionality, used by
	// experiments to score enforcement precision (not visible to the
	// enforcement path).
	Desirable bool
	// CallPath is the app-code portion of the stack, outermost first; each
	// frame must reference a method defined in the app's dex files.
	CallPath []dex.Frame
	// Op is the network side effect.
	Op NetOp
	// Weight biases the monkey exerciser's choice of events toward common
	// functionality (>= 0; 0 means never triggered randomly).
	Weight float64
}

// Profile separates work and personal apps on a provisioned device.
type Profile int

// Profiles.
const (
	// ProfileWork apps are subject to BYOD provisioning and tagging.
	ProfileWork Profile = iota + 1
	// ProfilePersonal apps run outside the work container: the Context
	// Manager does not interact with them (paper §VII "Compatibility").
	ProfilePersonal
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileWork:
		return "work"
	case ProfilePersonal:
		return "personal"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// App is an installed application: the apk, its behaviour graph, and its
// single emulated UI thread.
type App struct {
	APK     *dex.APK
	UID     int
	Profile Profile
	device  *Device
	thread  *Thread
	// funcs maps functionality name to definition.
	funcs map[string]*Functionality
	// order preserves registration order for deterministic iteration.
	order []string
}

// Thread returns the app's emulated main thread.
func (a *App) Thread() *Thread { return a.thread }

// Functionalities returns functionality names in registration order.
func (a *App) Functionalities() []string {
	return append([]string(nil), a.order...)
}

// Functionality returns a functionality by name.
func (a *App) Functionality(name string) (*Functionality, bool) {
	f, ok := a.funcs[name]
	return f, ok
}

// ErrUnknownFunctionality reports an Invoke of an undefined behaviour.
var ErrUnknownFunctionality = errors.New("android: unknown functionality")

// baseFrames is the framework prologue under every Android app stack.
// None of these classes exist in app dex files, so the Context Manager's
// frame resolution filters them out — mirroring real stack traces where
// framework frames carry no app context.
var baseFrames = []dex.Frame{
	{Class: "com/android/internal/os/ZygoteInit", Method: "main", File: "ZygoteInit.java", Line: 801},
	{Class: "android/app/ActivityThread", Method: "main", File: "ActivityThread.java", Line: 6119},
	{Class: "android/os/Looper", Method: "loop", File: "Looper.java", Line: 154},
	{Class: "android/os/Handler", Method: "dispatchMessage", File: "Handler.java", Line: 102},
}

// socketFrames is the java.net epilogue between app code and the socket
// syscall.
var socketFrames = []dex.Frame{
	{Class: "java/net/Socket", Method: "connect", File: "Socket.java", Line: 586},
	{Class: "java/net/AbstractPlainSocketImpl", Method: "connect", File: "AbstractPlainSocketImpl.java", Line: 334},
}

// InvokeResult reports what one functionality execution emitted.
type InvokeResult struct {
	// Packets are the wire packets that left the device, in order.
	Packets []*ipv4.Packet
	// Tagged reports whether the first packet carried a BorderPatrol tag.
	Tagged bool
	// SocketFDs are the kernel fds used, one per chunk.
	SocketFDs []int
}

// Invoke executes a functionality end to end: builds the Java call stack,
// connects (firing Xposed hooks), sends the HTTP request(s), and closes the
// socket. It returns every packet the device emitted.
func (a *App) Invoke(name string) (*InvokeResult, error) {
	f, ok := a.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s in %s", ErrUnknownFunctionality, name, a.APK.PackageName)
	}
	op := f.Op.normalize()
	// SYN, the requests and FIN per chunk: the most a TCP op emits.
	res := &InvokeResult{Packets: make([]*ipv4.Packet, 0, op.Chunks*(op.Requests+2))}

	a.thread.PushAll(baseFrames)
	a.thread.PushAll(f.CallPath)
	defer a.thread.PopN(len(baseFrames) + len(f.CallPath))

	perChunk := op.PayloadBytes / op.Chunks
	for chunk := 0; chunk < op.Chunks; chunk++ {
		var payload []byte
		if op.Proto == ipv4.ProtoUDP {
			// Datagram functionality sends its raw payload (a DNS query,
			// typically) — no HTTP framing, no keep-alive semantics.
			payload = op.Datagram
			if payload == nil {
				payload = make([]byte, perChunk)
				for i := range payload {
					payload[i] = byte('A' + (i+chunk)%26)
				}
			}
		} else {
			body := make([]byte, perChunk)
			for i := range body {
				body[i] = byte('A' + (i+chunk)%26)
			}
			req := &httpsim.Request{
				Method:    op.Method,
				Path:      op.Path,
				Host:      op.Host,
				KeepAlive: op.Requests > 1,
				Body:      body,
			}
			payload = req.Marshal()
		}

		if op.UseNativeSocket {
			// Native path: direct syscalls, no Java socket, no hooks.
			pkts, fd, err := a.invokeNative(op, payload)
			if err != nil {
				return res, err
			}
			res.Packets = append(res.Packets, pkts...)
			res.SocketFDs = append(res.SocketFDs, fd)
			continue
		}

		a.thread.PushAll(socketFrames)
		sock := a.device.stack.NewJavaSocket(a.UID)
		if op.Proto == ipv4.ProtoUDP {
			sock = a.device.stack.NewDatagramSocket(a.UID)
		}
		err := sock.Connect(op.Endpoint)
		a.thread.PopN(len(socketFrames))
		if err != nil {
			return res, fmt.Errorf("android: %s/%s connect: %w", a.APK.PackageName, name, err)
		}
		res.SocketFDs = append(res.SocketFDs, sock.FD())
		// One TCP connection per socket: the SYN opens it (carrying the
		// tag the post-connect hook just set), the requests ride it — a
		// keep-alive train when Requests > 1 — and the FIN closes it,
		// driving the gateway's conntrack teardown. UDP sockets emit no
		// lifecycle segments (nil packets).
		syn, err := sock.Handshake()
		if err != nil {
			_ = sock.Close()
			return res, fmt.Errorf("android: %s/%s handshake: %w", a.APK.PackageName, name, err)
		}
		if syn != nil {
			res.Packets = append(res.Packets, syn)
		}
		for r := 0; r < op.Requests; r++ {
			pkt, err := sock.Send(payload)
			if err != nil {
				_ = sock.Close()
				return res, fmt.Errorf("android: %s/%s send: %w", a.APK.PackageName, name, err)
			}
			res.Packets = append(res.Packets, pkt)
		}
		fin, err := sock.Finish()
		if err != nil {
			_ = sock.Close()
			return res, fmt.Errorf("android: %s/%s shutdown: %w", a.APK.PackageName, name, err)
		}
		if fin != nil {
			res.Packets = append(res.Packets, fin)
		}
		if err := sock.Close(); err != nil {
			return res, fmt.Errorf("android: %s/%s close: %w", a.APK.PackageName, name, err)
		}
	}
	if len(res.Packets) > 0 {
		_, res.Tagged = res.Packets[0].Header.FindOption(ipv4.OptSecurity)
	}
	return res, nil
}

// invokeNative models an app component that calls socket(2)/connect(2)
// through libc, bypassing the hookable Java API. The kernel still builds
// real transport segments for it — the SYN/data/FIN just leave untagged,
// which is exactly what the enforcer's untagged-drop posture catches.
func (a *App) invokeNative(op NetOp, payload []byte) (pkts []*ipv4.Packet, fd int, err error) {
	k := a.device.stack.Kernel()
	fd = k.Socket(a.UID, op.Proto)
	defer func() {
		// Like the Java path, a failed call still frees its socket; the
		// call's own error is the one reported.
		if err != nil {
			_ = k.Close(fd)
		}
	}()
	local := netip.AddrPortFrom(a.device.stack.LocalAddr(), 39000+uint16(fd%1000))
	if err := k.Connect(fd, local, op.Endpoint); err != nil {
		return nil, fd, fmt.Errorf("android: native connect: %w", err)
	}
	// UDP sockets emit no lifecycle segments (nil packets).
	syn, err := k.Handshake(fd)
	if err != nil {
		return nil, fd, fmt.Errorf("android: native handshake: %w", err)
	}
	if syn != nil {
		pkts = append(pkts, syn)
	}
	for r := 0; r < op.Requests; r++ {
		pkt, err := k.Send(fd, payload)
		if err != nil {
			return pkts, fd, fmt.Errorf("android: native send: %w", err)
		}
		pkts = append(pkts, pkt)
	}
	fin, err := k.Shutdown(fd)
	if err != nil {
		return pkts, fd, fmt.Errorf("android: native shutdown: %w", err)
	}
	if fin != nil {
		pkts = append(pkts, fin)
	}
	return pkts, fd, k.Close(fd)
}
