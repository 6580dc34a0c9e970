package borderpatrol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// moduleSource is the whole module read once for the inventory tests:
// every non-test package (cmd/, examples/ and benchmark/ included)
// type-checked from source in one go/types universe, the standard library
// read from the compiler's export data, and each package's test files
// parsed beside it.
type moduleSource struct {
	fset *token.FileSet
	pkgs []*sourcePkg // dependencies before their importers
}

// sourcePkg is one package of the module.
type sourcePkg struct {
	path  string // import path
	dir   string // directory relative to the module root, slash-separated
	types *types.Package
	info  *types.Info
	files []*ast.File // non-test files, type-checked
	tests []*ast.File // _test.go files, parsed only
}

// internalName is the short name the inventories give a package under
// internal/ ("dns" for borderpatrol/internal/dns), "" for any other.
func (p *sourcePkg) internalName() string {
	name, ok := strings.CutPrefix(p.dir, "internal/")
	if !ok || strings.Contains(name, "/") {
		return ""
	}
	return name
}

var (
	moduleOnce sync.Once
	module     *moduleSource
	moduleErr  error
)

// loadModule returns the module, loading it on first use.
func loadModule(t *testing.T) *moduleSource {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func typeCheckModule() (*moduleSource, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export            string
		Standard                           bool
		GoFiles, TestGoFiles, XTestGoFiles []string
	}
	exports := map[string]string{} // standard library: import path → export data
	var own []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			own = append(own, p)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	m := &moduleSource{fset: token.NewFileSet()}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	// go list -deps lists every package after the packages it imports.
	for _, l := range own {
		rel, err := filepath.Rel(root, l.Dir)
		if err != nil {
			return nil, err
		}
		p := &sourcePkg{path: l.ImportPath, dir: filepath.ToSlash(rel)}
		if p.files, err = parse(rel, l.GoFiles); err != nil {
			return nil, err
		}
		if p.tests, err = parse(rel, append(l.TestGoFiles, l.XTestGoFiles...)); err != nil {
			return nil, err
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		if p.types, err = conf.Check(l.ImportPath, m.fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", l.ImportPath, err)
		}
		checked[l.ImportPath] = p.types
		m.pkgs = append(m.pkgs, p)
	}
	return m, nil
}

// pkg returns the module's package at an import path, nil if none.
func (m *moduleSource) pkg(path string) *sourcePkg {
	for _, p := range m.pkgs {
		if p.path == path {
			return p
		}
	}
	return nil
}

// fuzzTarget is one native fuzz target: a FuzzX(f *testing.F) function of
// a package's test files.
type fuzzTarget struct {
	pkg  *sourcePkg
	decl *ast.FuncDecl
}

// fuzzTargets lists the module's fuzz targets.
func (m *moduleSource) fuzzTargets() []fuzzTarget {
	var out []fuzzTarget
	for _, p := range m.pkgs {
		for _, f := range p.tests {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
					out = append(out, fuzzTarget{p, fn})
				}
			}
		}
	}
	return out
}
