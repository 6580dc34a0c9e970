package borderpatrol

import (
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// An option that the program only ever sets to one value is a constant
// with a configuration surface around it: a default, a clamp, a doc line
// and a test of a value nothing runs. TestEveryInternalOptionHasTwoValues
// finds them below the facade. Its scope is every exported field of every
// exported struct type under internal/ whose name ends in Config; a type
// reachable from this package's exported API is exempt by rule, as public
// API (see publicAPI).
//
// A field's values are read from the module's non-test files (cmd/,
// examples/ and benchmark/ included):
//
//   - each keyed or positional element of a composite literal, and the zero
//     value of every field the literal leaves out;
//   - the zero value of every field of a `var x T` with no initializer;
//   - each assignment `x.F = v`.
//
// A constant, nil or an all-constant literal counts as its printed value.
// Any other expression, an `x.F op= v` or an `x.F++` counts as a second
// value: a field written from a variable can take any.
//
// optionAllowList names the fields that stay with one value, each with its
// reason.
var optionAllowList = map[string]string{}

// optionKey names a field "pkg.Type.Field", pkg being its package's path
// inside the module.
func optionKey(typ *types.TypeName, field string) string {
	return strings.TrimPrefix(typ.Pkg().Path(), "borderpatrol/internal/") + "." + typ.Name() + "." + field
}

// optionFields maps every in-scope field to its key.
func optionFields(m *moduleSource) map[*types.Var]string {
	_, public := publicAPI(m)
	out := map[*types.Var]string{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			n := tn.Type().(*types.Named)
			st, ok := n.Underlying().(*types.Struct)
			if !ok || public[n] {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					out[f] = optionKey(tn, f.Name())
				}
			}
		}
	}
	return out
}

// varies stands for a value that is not a constant (see
// optionAllowList): a field given one has two values.
const varies = "<varies>"

// optionValues collects the values the module's non-test files give each
// in-scope field, as printed values.
func optionValues(m *moduleSource, fields map[*types.Var]string) map[string]map[string]bool {
	values := map[string]map[string]bool{}
	add := func(f *types.Var, v string) {
		key, ok := fields[f]
		if !ok {
			return
		}
		if values[key] == nil {
			values[key] = map[string]bool{}
		}
		values[key][v] = true
	}
	// zeros adds the zero value of every field of st not in set.
	zeros := func(st *types.Struct, set map[*types.Var]bool) {
		for i := range st.NumFields() {
			if f := st.Field(i); !set[f] {
				add(f, zeroValue(f.Type()))
			}
		}
	}
	for _, p := range m.pkgs {
		info := p.info
		value := func(e ast.Expr) string {
			if v, ok := constantValue(m.fset, info, e); ok {
				return v
			}
			return varies
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					set := map[*types.Var]bool{}
					for i, elt := range n.Elts {
						f := st.Field(i)
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							f, elt = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
						}
						set[f] = true
						add(f, value(elt))
					}
					zeros(st, set)
				case *ast.ValueSpec:
					if n.Type == nil || len(n.Values) > 0 {
						return true
					}
					if st, ok := info.Types[n.Type].Type.Underlying().(*types.Struct); ok {
						for range n.Names {
							zeros(st, nil)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						f, _ := info.Uses[sel.Sel].(*types.Var)
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							add(f, value(n.Rhs[i]))
						} else {
							add(f, varies)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						f, _ := info.Uses[sel.Sel].(*types.Var)
						add(f, varies)
					}
				}
				return true
			})
		}
	}
	return values
}

// constantValue prints e when it is a constant, nil or a composite
// literal of such values.
func constantValue(fset *token.FileSet, info *types.Info, e ast.Expr) (string, bool) {
	tv := info.Types[e]
	switch {
	case tv.Value != nil && tv.Value.Kind() == constant.Float:
		f, _ := constant.Float64Val(tv.Value)
		return strconv.FormatFloat(f, 'g', -1, 64), true
	case tv.Value != nil:
		return tv.Value.ExactString(), true
	case tv.IsNil():
		return "nil", true
	}
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return "", false
	}
	if len(lit.Elts) == 0 {
		return zeroValue(tv.Type), true
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		if _, ok := constantValue(fset, info, elt); !ok {
			return "", false
		}
	}
	var b strings.Builder
	printer.Fprint(&b, fset, lit)
	return b.String(), true
}

// zeroValue prints the zero value of t as constantValue prints it.
func zeroValue(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		case u.Info()&types.IsNumeric != 0:
			return "0"
		}
	case *types.Struct, *types.Array:
		return types.TypeString(t, nil) + "{}"
	}
	return "nil"
}

// TestEveryInternalOptionHasTwoValues fails for an in-scope field that the
// module sets to fewer than two values and no allow-list row names, and
// for an allow-list row that names no in-scope field or names one with two
// values.
func TestEveryInternalOptionHasTwoValues(t *testing.T) {
	m := loadModule(t)
	fields := optionFields(m)
	if len(fields) == 0 {
		t.Fatal("found no Config fields under internal/")
	}
	values := optionValues(m, fields)
	declared := map[string]bool{}
	var fixed []string
	for f, key := range fields {
		declared[key] = true
		var vals []string
		for v := range values[key] {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		two := len(vals) >= 2 || slices.Contains(vals, varies)
		reason, allowed := optionAllowList[key]
		switch {
		case two && allowed:
			t.Errorf("allow-list row %s is stale: the module sets it to %s (%s)", key, strings.Join(vals, ", "), reason)
		case !two && !allowed:
			what := "is never set"
			if len(vals) > 0 {
				what = "is only ever " + vals[0]
			}
			fixed = append(fixed, key+" ("+m.fset.Position(f.Pos()).String()+") "+what)
		}
	}
	slices.Sort(fixed)
	for _, f := range fixed {
		t.Errorf("%s: make it a constant, or give it an allow-list row", f)
	}
	for key := range optionAllowList {
		if !declared[key] {
			t.Errorf("allow-list row %s names no exported field of an internal Config type", key)
		}
	}
}
