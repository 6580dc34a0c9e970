// Package ipv4 models IPv4 packets with full header-option support: the
// substrate BorderPatrol tags (IP_OPTIONS, RFC 791 §3.1) ride on, plus the
// RFC 7126 border-filtering behaviour that motivates the Packet Sanitizer
// (paper §II-B2, §IV-A4).
package ipv4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol numbers used by the simulator.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Option type octets follow RFC 791: copied flag (bit 7), class (bits
// 6..5), number (bits 4..0).
const (
	// OptEnd terminates the option list.
	OptEnd = 0
	// OptNOP pads between options.
	OptNOP = 1
	// OptSecurity is the security option (copied, class 0, number 2 =
	// 0x82 = 130). BorderPatrol reuses this "security type" slot for its
	// context tag, matching the paper's kernel patch (§VII "Tag-replay").
	OptSecurity = 130
	// OptTimestamp is the well-known timestamp option used by ping.
	OptTimestamp = 68
)

// MaxOptionsLen is the RFC 791 limit for the whole options field.
const MaxOptionsLen = 40

// MinHeaderLen is the length of an option-free IPv4 header.
const MinHeaderLen = 20

// MaxPacketLen is the largest IPv4 packet: the 16-bit total length field
// covers the header, its options and the payload.
const MaxPacketLen = 0xffff

// Option is one IPv4 header option (type, then data; length byte covers
// type+len+data per RFC 791).
type Option struct {
	Type byte
	Data []byte
}

// Copied reports whether the option's copied flag is set, meaning it must
// be replicated into every fragment.
func (o Option) Copied() bool { return o.Type&0x80 != 0 }

// wireLen is the option's on-wire size including type and length octets.
func (o Option) wireLen() int {
	if o.Type == OptEnd || o.Type == OptNOP {
		return 1
	}
	return 2 + len(o.Data)
}

// Header is a parsed IPv4 header.
type Header struct {
	TOS      byte
	ID       uint16
	Flags    byte // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      byte
	Protocol byte
	Src      netip.Addr
	Dst      netip.Addr
	Options  []Option
}

// Packet is an IPv4 packet: header plus transport payload.
//
// A packet's payload and option data are immutable once emitted: the
// kernel builds every packet of a socket on the socket's one copy of its
// option bytes, the gateway's sanitizer copy shares them and the payload,
// the server parses the payload in place. A stage that needs to change
// either works on a Clone, which copies both.
//
// A packet the device kernel builds is a capacity-capped view into blocks
// the kernel owns: the Packet itself, its option list, its payload and its
// option bytes are cuts of a few shared slices. Appending to Payload or
// Header.Options reallocates and leaves the neighbouring packets alone, and
// holding the packet pins the blocks it was cut from.
type Packet struct {
	Header  Header
	Payload []byte
}

// Errors produced by marshalling and parsing.
var (
	ErrOptionsTooLong = errors.New("ipv4: options exceed 40 bytes")
	ErrShortPacket    = errors.New("ipv4: short packet")
	ErrBadChecksum    = errors.New("ipv4: header checksum mismatch")
	ErrBadVersion     = errors.New("ipv4: not an IPv4 packet")
	ErrBadOption      = errors.New("ipv4: malformed option")
	ErrNotIPv4Addr    = errors.New("ipv4: address is not IPv4")
)

// OptionsWireLen returns the padded on-wire size of the options list.
func (h *Header) OptionsWireLen() (int, error) {
	n := 0
	for _, o := range h.Options {
		n += o.wireLen()
	}
	if n%4 != 0 {
		n += 4 - n%4
	}
	if n > MaxOptionsLen {
		return 0, fmt.Errorf("%w: %d", ErrOptionsTooLong, n)
	}
	return n, nil
}

// HeaderLen returns the full header length including padded options.
func (h *Header) HeaderLen() (int, error) {
	opts, err := h.OptionsWireLen()
	if err != nil {
		return 0, err
	}
	return MinHeaderLen + opts, nil
}

// FindOption returns the first option with the given type.
func (h *Header) FindOption(typ byte) (Option, bool) {
	for _, o := range h.Options {
		if o.Type == typ {
			return o, true
		}
	}
	return Option{}, false
}

// SetOption replaces any existing option of the same type or appends.
func (h *Header) SetOption(opt Option) {
	for i := range h.Options {
		if h.Options[i].Type == opt.Type {
			h.Options[i] = opt
			return
		}
	}
	h.Options = append(h.Options, opt)
}

// RemoveOption deletes every option with the given type and reports whether
// anything was removed.
func (h *Header) RemoveOption(typ byte) bool {
	kept := h.Options[:0]
	removed := false
	for _, o := range h.Options {
		if o.Type == typ {
			removed = true
			continue
		}
		kept = append(kept, o)
	}
	h.Options = kept
	if len(h.Options) == 0 {
		h.Options = nil
	}
	return removed
}

// HasOptions reports whether any header options are present.
func (h *Header) HasOptions() bool { return len(h.Options) > 0 }

// Marshal serializes the packet to wire format with a correct checksum.
func (p *Packet) Marshal() ([]byte, error) {
	hlen, err := p.Header.HeaderLen()
	if err != nil {
		return nil, err
	}
	if !p.Header.Src.Is4() || !p.Header.Dst.Is4() {
		return nil, fmt.Errorf("%w: src=%v dst=%v", ErrNotIPv4Addr, p.Header.Src, p.Header.Dst)
	}
	total := hlen + len(p.Payload)
	if total > MaxPacketLen {
		return nil, fmt.Errorf("ipv4: packet length %d exceeds %d", total, MaxPacketLen)
	}
	buf := make([]byte, total)
	buf[0] = 4<<4 | byte(hlen/4)
	buf[1] = p.Header.TOS
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint16(buf[4:6], p.Header.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(p.Header.Flags)<<13|p.Header.FragOff&0x1fff)
	buf[8] = p.Header.TTL
	buf[9] = p.Header.Protocol
	src := p.Header.Src.As4()
	dst := p.Header.Dst.As4()
	copy(buf[12:16], src[:])
	copy(buf[16:20], dst[:])
	off := MinHeaderLen
	for _, o := range p.Header.Options {
		buf[off] = o.Type
		if o.Type == OptEnd || o.Type == OptNOP {
			off++
			continue
		}
		buf[off+1] = byte(2 + len(o.Data))
		copy(buf[off+2:], o.Data)
		off += 2 + len(o.Data)
	}
	for off < hlen {
		buf[off] = OptEnd
		off++
	}
	binary.BigEndian.PutUint16(buf[10:12], Checksum(buf[:hlen]))
	copy(buf[hlen:], p.Payload)
	return buf, nil
}

// Unmarshal parses a wire-format packet, verifying version, lengths and the
// header checksum. It accepts only what Marshal would write back byte for
// byte: the checksum in its RFC 1071 form (never 0xffff, the negative zero
// a computed checksum cannot take), NOP options kept in place, and zero
// padding after an End of Option List up to the next 32-bit boundary only.
func Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < MinHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(buf))
	}
	if buf[0]>>4 != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, buf[0]>>4)
	}
	hlen := int(buf[0]&0x0f) * 4
	if hlen < MinHeaderLen || hlen > len(buf) {
		return nil, fmt.Errorf("%w: header length %d", ErrShortPacket, hlen)
	}
	total := int(binary.BigEndian.Uint16(buf[2:4]))
	if total < hlen || total > len(buf) {
		return nil, fmt.Errorf("%w: total length %d", ErrShortPacket, total)
	}
	if Checksum(buf[:hlen]) != 0 || buf[10]&buf[11] == 0xff {
		return nil, ErrBadChecksum
	}
	var p Packet
	p.Header.TOS = buf[1]
	p.Header.ID = binary.BigEndian.Uint16(buf[4:6])
	ff := binary.BigEndian.Uint16(buf[6:8])
	p.Header.Flags = byte(ff >> 13)
	p.Header.FragOff = ff & 0x1fff
	p.Header.TTL = buf[8]
	p.Header.Protocol = buf[9]
	p.Header.Src = netip.AddrFrom4([4]byte(buf[12:16]))
	p.Header.Dst = netip.AddrFrom4([4]byte(buf[16:20]))
	opts, err := parseOptions(buf[MinHeaderLen:hlen])
	if err != nil {
		return nil, err
	}
	p.Header.Options = opts
	p.Payload = append([]byte(nil), buf[hlen:total]...)
	return &p, nil
}

func parseOptions(buf []byte) ([]Option, error) {
	var opts []Option
	for i := 0; i < len(buf); {
		typ := buf[i]
		switch typ {
		case OptEnd:
			// The rest is padding: zeros, to the first 32-bit boundary.
			if len(buf) != (i+3)&^3 || len(bytes.TrimLeft(buf[i:], "\x00")) != 0 {
				return nil, fmt.Errorf("%w: padding after end of options", ErrBadOption)
			}
			return opts, nil
		case OptNOP:
			opts = append(opts, Option{Type: OptNOP})
			i++
		default:
			if i+1 >= len(buf) {
				return nil, fmt.Errorf("%w: option %d missing length", ErrBadOption, typ)
			}
			olen := int(buf[i+1])
			if olen < 2 || i+olen > len(buf) {
				return nil, fmt.Errorf("%w: option %d length %d", ErrBadOption, typ, olen)
			}
			opts = append(opts, Option{Type: typ, Data: append([]byte(nil), buf[i+2:i+olen]...)})
			i += olen
		}
	}
	return opts, nil
}

// Checksum computes the Internet checksum (RFC 1071) over buf. A buffer
// containing its own correct checksum sums to zero.
func Checksum(buf []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(buf); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(buf[i : i+2]))
	}
	if len(buf)%2 == 1 {
		sum += uint32(buf[len(buf)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Clone deep-copies the packet so pipeline stages can mutate safely.
func (p *Packet) Clone() *Packet {
	c := &Packet{Header: p.Header}
	if p.Header.Options != nil {
		c.Header.Options = make([]Option, len(p.Header.Options))
		for i, o := range p.Header.Options {
			c.Header.Options[i] = Option{Type: o.Type, Data: append([]byte(nil), o.Data...)}
		}
	}
	if p.Payload != nil {
		c.Payload = append([]byte(nil), p.Payload...)
	}
	return c
}

// WireLen returns the marshalled size of the packet.
func (p *Packet) WireLen() (int, error) {
	hlen, err := p.Header.HeaderLen()
	if err != nil {
		return 0, err
	}
	return hlen + len(p.Payload), nil
}
