package dex

import (
	"fmt"
	"sort"
)

// Frame is one element of an emulated Java stack trace, mirroring what
// java.lang.StackTraceElement exposes: class path, method name, source
// file, and line number. Java stack traces do not carry parameter types, so
// overloaded methods are only distinguishable via the line number against
// the dex debug tables (paper Fig. 2, §VII "Overloaded methods").
type Frame struct {
	Class  string // fully-qualified class path, e.g. "com/dropbox/android/taskqueue/UploadTask"
	Method string
	File   string
	Line   int
}

// String renders the frame the way a Java stack trace would.
func (f Frame) String() string {
	return fmt.Sprintf("%s.%s(%s:%d)", f.Class, f.Method, f.File, f.Line)
}

// LineTable resolves stack-trace frames back to full method signatures
// using the debug line ranges stored in the dex files. It is built once per
// app by the Context Manager when the app loads (paper §V-B).
type LineTable struct {
	// entries maps "class\x00method" to the overload set sorted by line.
	entries  map[string][]lineEntry
	stripped bool
}

type lineEntry struct {
	start, end int
	sig        Signature
}

// NewLineTable builds the resolution table for an apk.
func NewLineTable(a *APK) *LineTable {
	lt := &LineTable{entries: make(map[string][]lineEntry)}
	for _, d := range a.Dexes {
		if d.DebugStripped {
			lt.stripped = true
		}
		for i := range d.Classes {
			c := &d.Classes[i]
			for _, m := range c.Methods {
				key := c.Path() + "\x00" + m.Name
				lt.entries[key] = append(lt.entries[key], lineEntry{
					start: m.StartLine,
					end:   m.EndLine,
					sig:   Signature{Package: c.Package, Class: c.Name, Name: m.Name, Proto: m.Proto},
				})
			}
		}
	}
	for key := range lt.entries {
		es := lt.entries[key]
		sort.Slice(es, func(i, j int) bool { return es[i].start < es[j].start })
	}
	return lt
}

// Resolve maps a stack frame to its method signature.
//
// With debug info present, the frame's line number selects the exact
// overload. With debug info stripped (or an unknown line), overloaded
// methods merge into a single wildcard-proto signature — the paper's
// documented over-approximation, which reduces precision to the method name
// but never drops the frame. Frames whose class is not in the app's dex at
// all (JDK or Android framework frames) return ok=false.
func (lt *LineTable) Resolve(f Frame) (Signature, bool) {
	es, found := lt.entries[f.Class+"\x00"+f.Method]
	if !found || len(es) == 0 {
		return Signature{}, false
	}
	if len(es) == 1 {
		return es[0].sig, true
	}
	if !lt.stripped && f.Line > 0 {
		for _, e := range es {
			if f.Line >= e.start && f.Line <= e.end {
				return e.sig, true
			}
		}
	}
	// Over-approximate: merge all overloads into one identifier.
	return es[0].sig.MergeOverloads(), true
}
