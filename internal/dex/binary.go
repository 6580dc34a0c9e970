package dex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary container format for simulated apk files, so the Offline Analyzer
// CLI can operate on files the way the paper's dexlib2 pipeline operates on
// real apks. The format is deterministic (field order fixed, strings
// length-prefixed) — WriteTo followed by ReadAPK reproduces an identical
// package with an identical hash.
//
//	magic   uint32  0xDEXC0DE1
//	version uint16  1
//	package metadata, then per-dex class/method records.

const (
	apkMagic   = 0xDEC0DE1A
	apkVersion = 1
	// maxStringLen bounds any one serialized string.
	maxStringLen = 4096
	// maxCount bounds any serialized collection length.
	maxCount = 1 << 20
)

// Errors for container parsing.
var (
	ErrBadContainer        = errors.New("dex: not an apk container")
	ErrBadContainerVersion = errors.New("dex: unsupported container version")
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the apk to its binary container form.
func (a *APK) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	var scratch [8]byte

	writeU32 := func(v uint32) error {
		binary.BigEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU16 := func(v uint16) error {
		binary.BigEndian.PutUint16(scratch[:2], v)
		_, err := bw.Write(scratch[:2])
		return err
	}
	writeStr := func(s string) error {
		if len(s) > maxStringLen {
			return fmt.Errorf("dex: string %d bytes exceeds container limit", len(s))
		}
		if err := writeU16(uint16(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	writeI64 := func(v int64) error {
		binary.BigEndian.PutUint64(scratch[:], uint64(v))
		_, err := bw.Write(scratch[:])
		return err
	}

	fail := func(err error) (int64, error) {
		return cw.n, fmt.Errorf("dex: write container: %w", err)
	}
	if err := writeU32(apkMagic); err != nil {
		return fail(err)
	}
	if err := writeU16(apkVersion); err != nil {
		return fail(err)
	}
	if err := writeStr(a.PackageName); err != nil {
		return fail(err)
	}
	if err := writeStr(a.Label); err != nil {
		return fail(err)
	}
	if err := writeStr(a.Category); err != nil {
		return fail(err)
	}
	if err := writeI64(int64(a.VersionCode)); err != nil {
		return fail(err)
	}
	if err := writeI64(a.Downloads); err != nil {
		return fail(err)
	}
	if err := writeU32(uint32(len(a.Dexes))); err != nil {
		return fail(err)
	}
	for _, d := range a.Dexes {
		stripped := uint16(0)
		if d.DebugStripped {
			stripped = 1
		}
		if err := writeU16(stripped); err != nil {
			return fail(err)
		}
		if err := writeU32(uint32(len(d.Classes))); err != nil {
			return fail(err)
		}
		for i := range d.Classes {
			c := &d.Classes[i]
			if err := writeStr(c.Package); err != nil {
				return fail(err)
			}
			if err := writeStr(c.Name); err != nil {
				return fail(err)
			}
			if err := writeStr(c.Super); err != nil {
				return fail(err)
			}
			if err := writeU32(uint32(len(c.Methods))); err != nil {
				return fail(err)
			}
			for _, m := range c.Methods {
				if err := writeStr(m.Name); err != nil {
					return fail(err)
				}
				if err := writeStr(m.Proto); err != nil {
					return fail(err)
				}
				if err := writeStr(m.File); err != nil {
					return fail(err)
				}
				if err := writeI64(int64(m.StartLine)); err != nil {
					return fail(err)
				}
				if err := writeI64(int64(m.EndLine)); err != nil {
					return fail(err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return cw.n, nil
}

// ReadAPK parses a binary apk container. Its counts come off the wire, so
// they bound the loops but size nothing: every slice grows by append as
// its records actually arrive, and a short input fails having allocated
// about what it held. What follows the container in r is not read.
func ReadAPK(r io.Reader) (*APK, error) {
	br := bufio.NewReader(r)
	var scratch [8]byte

	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(scratch[:4]), nil
	}
	readU16 := func() (uint16, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint16(scratch[:2]), nil
	}
	readStr := func() (string, error) {
		n, err := readU16()
		if err != nil {
			return "", err
		}
		if n > maxStringLen {
			return "", fmt.Errorf("dex: string length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	readI64 := func() (int64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return int64(binary.BigEndian.Uint64(scratch[:])), nil
	}

	fail := func(err error) (*APK, error) {
		return nil, fmt.Errorf("dex: read container: %w", err)
	}
	magic, err := readU32()
	if err != nil {
		return fail(err)
	}
	if magic != apkMagic {
		return nil, ErrBadContainer
	}
	version, err := readU16()
	if err != nil {
		return fail(err)
	}
	if version != apkVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadContainerVersion, version)
	}
	a := &APK{}
	if a.PackageName, err = readStr(); err != nil {
		return fail(err)
	}
	if a.Label, err = readStr(); err != nil {
		return fail(err)
	}
	if a.Category, err = readStr(); err != nil {
		return fail(err)
	}
	vc, err := readI64()
	if err != nil {
		return fail(err)
	}
	a.VersionCode = int(vc)
	if a.Downloads, err = readI64(); err != nil {
		return fail(err)
	}
	nDex, err := readU32()
	if err != nil {
		return fail(err)
	}
	if nDex > maxCount {
		return nil, fmt.Errorf("dex: dex count %d exceeds limit", nDex)
	}
	for di := uint32(0); di < nDex; di++ {
		stripped, err := readU16()
		if err != nil {
			return fail(err)
		}
		if stripped > 1 {
			return nil, fmt.Errorf("dex: debug-stripped flag %d is neither 0 nor 1", stripped)
		}
		d := &File{DebugStripped: stripped == 1}
		nClasses, err := readU32()
		if err != nil {
			return fail(err)
		}
		if nClasses > maxCount {
			return nil, fmt.Errorf("dex: class count %d exceeds limit", nClasses)
		}
		for ci := uint32(0); ci < nClasses; ci++ {
			var c ClassDef
			if c.Package, err = readStr(); err != nil {
				return fail(err)
			}
			if c.Name, err = readStr(); err != nil {
				return fail(err)
			}
			if c.Super, err = readStr(); err != nil {
				return fail(err)
			}
			nMethods, err := readU32()
			if err != nil {
				return fail(err)
			}
			if nMethods > maxCount {
				return nil, fmt.Errorf("dex: method count %d exceeds limit", nMethods)
			}
			for mi := uint32(0); mi < nMethods; mi++ {
				var m MethodDef
				if m.Name, err = readStr(); err != nil {
					return fail(err)
				}
				if m.Proto, err = readStr(); err != nil {
					return fail(err)
				}
				if m.File, err = readStr(); err != nil {
					return fail(err)
				}
				sl, err := readI64()
				if err != nil {
					return fail(err)
				}
				el, err := readI64()
				if err != nil {
					return fail(err)
				}
				m.StartLine, m.EndLine = int(sl), int(el)
				c.Methods = append(c.Methods, m)
			}
			d.Classes = append(d.Classes, c)
		}
		a.Dexes = append(a.Dexes, d)
	}
	return a, nil
}
