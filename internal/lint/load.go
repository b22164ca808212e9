package lint

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
)

// Program is the fully type-checked set of module packages plus the
// machinery the analyzers share. Stdlib (and any other out-of-module)
// dependencies are imported from compiler export data; only module
// packages carry syntax and full type info.
type Program struct {
	Fset   *token.FileSet
	Pkgs   []*Pkg // dependency order: imports before importers
	ByPath map[string]*Pkg

	directives        []*directive
	directiveFindings []Finding
}

// Pkg is one module package under analysis.
type Pkg struct {
	prog  *Program
	Path  string
	Dir   string
	Files []*ast.File // parsed with comments, non-test sources only
	Types *types.Package
	Info  *types.Info
}

// Position resolves a token.Pos against the shared FileSet.
func (p *Program) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

func (p *Program) allowed(rule string, pos token.Position) bool {
	for _, d := range p.directives {
		if d.covers(rule, pos) {
			return true
		}
	}
	return false
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
}

// Load builds the package graph for patterns (relative to dir) with
// `go list -deps -export -json`, parses every in-module package, and
// type-checks them in dependency order. Out-of-module imports resolve
// through the build cache's export data, so the loader needs nothing
// beyond the go toolchain and the standard library.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,GoFiles,Imports"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []*listedPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		listed = append(listed, &lp)
	}

	prog := &Program{Fset: token.NewFileSet(), ByPath: map[string]*Pkg{}}

	// Module packages (everything go list did not mark Standard) get
	// parsed; stdlib resolves from export data via the gc importer.
	local := map[string]*listedPkg{}
	for _, lp := range listed {
		if !lp.Standard && lp.Name != "" {
			local[lp.ImportPath] = lp
		}
	}

	checked := map[string]*types.Package{}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	gc := importer.ForCompiler(prog.Fset, "gc", lookup)
	imp := &progImporter{checked: checked, fallback: gc}

	// Dependency-order walk: type-check a package only after its
	// in-module imports.
	var visit func(lp *listedPkg) error
	visiting := map[string]bool{}
	for _, lp := range listed {
		if local[lp.ImportPath] == nil {
			continue
		}
		if err := func() error {
			visit = func(lp *listedPkg) error {
				if checked[lp.ImportPath] != nil {
					return nil
				}
				if visiting[lp.ImportPath] {
					return fmt.Errorf("lint: import cycle through %s", lp.ImportPath)
				}
				visiting[lp.ImportPath] = true
				defer func() { visiting[lp.ImportPath] = false }()
				for _, dep := range lp.Imports {
					if d := local[dep]; d != nil {
						if err := visit(d); err != nil {
							return err
						}
					}
				}
				return prog.check(lp, imp)
			}
			return visit(lp)
		}(); err != nil {
			return nil, err
		}
	}

	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ds, bad := pkg.parseDirectives(f)
			prog.directives = append(prog.directives, ds...)
			prog.directiveFindings = append(prog.directiveFindings, bad...)
		}
	}
	return prog, nil
}

// check parses and type-checks one module package, registering it for
// later importers.
func (p *Program) check(lp *listedPkg, imp types.Importer) error {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(p.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: imp}
	tpkg, err := cfg.Check(lp.ImportPath, p.Fset, files, info)
	if err != nil {
		return fmt.Errorf("lint: type-check %s: %v", lp.ImportPath, err)
	}
	pkg := &Pkg{prog: p, Path: lp.ImportPath, Dir: lp.Dir,
		Files: files, Types: tpkg, Info: info}
	p.Pkgs = append(p.Pkgs, pkg)
	p.ByPath[lp.ImportPath] = pkg
	if ci, ok := imp.(*progImporter); ok {
		ci.checked[lp.ImportPath] = tpkg
	}
	return nil
}

// progImporter serves already-checked module packages from memory and
// everything else (the standard library) from export data.
type progImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := i.checked[path]; pkg != nil {
		return pkg, nil
	}
	return i.fallback.Import(path)
}

func (i *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return i.Import(path)
}
