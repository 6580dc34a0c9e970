package borderpatrol

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// An exported function or method under internal/ is there for a caller.
// One that only tests reach is code the system carries for nobody, so
// TestEveryExportIsCalled fails for it. Exempt by rule, with no row:
//
//   - a method by which its receiver implements an interface declared in
//     the module, or fmt.Stringer, error or io.Writer: its callers call
//     the interface;
//   - a method of a type reachable from this package's exported API (a
//     type alias, or a type reached through exported fields, parameters,
//     results and methods): it is public API.
//
// exportAllowList names the rest that stay with no non-test caller, each
// with its reason, of one of three kinds: (a) one half of a wire codec
// that a fuzz target pins against the other half; (b) a fixture other
// packages' tests build the system's inputs with; (c) test-only
// observation of state that no registry series and no verdict exposes,
// naming the test.
var exportAllowList = map[string]string{
	"ipv4.Unmarshal":                "(a) the parse half of Packet.Marshal: FuzzUnmarshal pins that a packet it accepts re-marshals byte for byte",
	"transport.TCPSegment.Marshal":  "(a) the write half of ParseTCP (the kernel writes its segments in place): FuzzParseTCP pins that an accepted segment re-marshals byte for byte",
	"transport.UDPDatagram.Marshal": "(a) the write half of ParseUDP (the kernel writes its datagrams in place): FuzzParseUDP pins that an accepted datagram re-marshals byte for byte",
	"httpsim.ParseResponse":         "(a) the parse half of Response.Marshal: FuzzParseResponse pins it against the reference parser it replaced",
	"httpsim.Response.Marshal":      "(a) the write half of ParseResponse (servers answer with prebuilt static responses): FuzzParseResponse's seeds are rendered with it",
	"dns.ParseQuery":                "(a) the parse half of Query.Marshal: FuzzParseQuery pins the round trip, and FuzzZoneHandler pins ZoneHandler's in-place parse against it",
	"dns.Answer.Marshal":            "(a) the write half of ParseAnswer: FuzzParseAnswer pins the round trip, and FuzzZoneHandler pins ZoneHandler's answers byte for byte against it",
	"audit.ReadEntries":             "(a) the read half of the trail a Log writes: FuzzReadEntries pins that a written line reads back equal to its entry",
	"analyzer.Load":                 "(a) the read half of Database.Save: FuzzLoad pins that save, load and save again give identical bytes",
	"policy.GroupSet.Format":        "(a) the write half of ParseGroupSet: FuzzParseGroupSet pins that its rendering parses back and is a fixpoint",
	"ipv4.Fragment":                 "(b) enforcer, transport and experiments tests cut the fragments the gateway receives with it",
	"ipv4.Reassemble":               "(b) transport tests rebuild a fragmented segment with it to check the fragments the gateway receives",
	"flowtable.Key.Shard":           "(c) TestBurstWorkersOwnDisjointShards reads each flow's shard with it, to check that burst workers own disjoint shards; the table itself picks shards through shardOf",
}

// exportKey names a function "pkg.Func" and a method "pkg.Type.Method",
// pkg being the package's path inside the module.
func exportKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := strings.TrimPrefix(fn.Pkg().Path(), "borderpatrol/internal/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	return pkg + "." + namedOf(recv.Type()).Obj().Name() + "." + fn.Name()
}

// namedOf is the named type behind t, *T or an instance of a generic T;
// nil for any other type.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// TestEveryExportIsCalled lists the exported functions and methods
// declared under internal/ and fails for one that no non-test file of the
// module uses and that neither a rule nor an allow-list row exempts, and
// for an allow-list row that names no such function, names one with a
// caller, or names one a rule already exempts.
func TestEveryExportIsCalled(t *testing.T) {
	m := loadModule(t)
	declared := map[string]*types.Func{}
	for _, p := range m.pkgs {
		if p.internalName() == "" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					declared[exportKey(obj)] = obj
				}
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := range n.NumMethods() {
						if fn := n.Method(i); fn.Exported() {
							declared[exportKey(fn)] = fn
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions under internal/")
	}

	called := map[string]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				called[exportKey(fn)] = true
			}
		}
	}
	implements := interfaceMethods(m)
	public, _ := publicAPI(m)

	var dead []string
	for key, fn := range declared {
		exempt := implements[key] || public[key]
		reason, allowed := exportAllowList[key]
		switch {
		case called[key] && allowed:
			t.Errorf("allow-list row %s is stale: it has a caller (%s)", key, reason)
		case exempt && allowed:
			t.Errorf("allow-list row %s is stale: a rule exempts it (%s)", key, reason)
		case !called[key] && !exempt && !allowed:
			dead = append(dead, key+" ("+m.fset.Position(fn.Pos()).String()+")")
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or give it an allow-list row", d)
	}
	for key := range exportAllowList {
		if declared[key] == nil {
			t.Errorf("allow-list row %s names no exported function under internal/", key)
		}
	}
}

// interfaceMethods returns the methods declared in the module by which
// their receiver implements an interface declared in the module, or
// fmt.Stringer, error or io.Writer.
func interfaceMethods(m *moduleSource) map[string]bool {
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if it, ok := n.Underlying().(*types.Interface); ok {
				if n.TypeParams().Len() == 0 {
					ifaces = append(ifaces, it)
				}
			} else {
				named = append(named, n)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, dep := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"io", "Writer"}} {
		ifaces = append(ifaces, stdInterface(m, dep.pkg, dep.name))
	}

	out := map[string]bool{}
	for _, n := range named {
		if n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				fn := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name())
				if mfn, ok := obj.(*types.Func); ok {
					out[exportKey(mfn)] = true
				}
			}
		}
	}
	return out
}

// stdInterface finds an interface of a standard package the module
// imports directly.
func stdInterface(m *moduleSource, pkg, name string) *types.Interface {
	for _, p := range m.pkgs {
		for _, imp := range p.types.Imports() {
			if imp.Path() == pkg {
				return imp.Scope().Lookup(name).Type().Underlying().(*types.Interface)
			}
		}
	}
	panic(pkg + " is not imported by the module")
}

// publicAPI returns what this package's exported API reaches: the module
// types reached from an exported object of the root package through
// aliases, exported fields, parameters, results and methods, and every
// method in their method sets, the ones callable through it.
func publicAPI(m *moduleSource) (methods map[string]bool, named map[*types.Named]bool) {
	methods, named = map[string]bool{}, map[*types.Named]bool{}
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if t.Obj().Pkg() == nil || !strings.HasPrefix(t.Obj().Pkg().Path(), "borderpatrol") {
				return
			}
			named[t.Origin()] = true
			for i := range t.TypeArgs().Len() {
				visit(t.TypeArgs().At(i))
			}
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := range ms.Len() {
				fn := ms.At(i).Obj().(*types.Func)
				if fn.Exported() {
					methods[exportKey(fn)] = true
					visit(fn.Type())
				}
			}
			visit(t.Underlying())
		case *types.Struct:
			for i := range t.NumFields() {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for i := range t.NumMethods() {
				visit(t.Method(i).Type())
			}
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tuple.Len() {
					visit(tuple.At(i).Type())
				}
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		}
	}
	scope := m.pkg("borderpatrol").types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			visit(obj.Type())
		}
	}
	return methods, named
}
