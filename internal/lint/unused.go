package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Unused reports package-level declarations, and whole packages, that
// no main package reaches. The loader type-checks non-test sources
// only, so a declaration only tests reference is dead in production:
// it belongs in a _test.go file, or nowhere.
//
// Reachability is computed to a fixed point, so a dead cycle and a
// callee orphaned only by a dead caller are both reported.
//
//   - Roots: func main of every main package, and the init funcs and
//     blank `var _ … = …` declarations of every package some main
//     package imports, directly or not.
//   - Edges: every identifier use (types.Info.Uses) inside a live
//     declaration; a generic instance counts as a use of its origin.
//   - Methods: a method of a live type is also live when its name is a
//     method of some interface — the predeclared error, one declared at
//     package scope in any package of the import graph, the standard
//     library included (fmt.Stringer, http.RoundTripper, …), or any
//     interface type written in the module — or is Unwrap, Is or As,
//     which the errors package asserts through interfaces local to its
//     function bodies. A dynamic call cannot be resolved statically, so
//     the rule is conservative: it keeps every method an interface
//     could dispatch to, and some that none does.
//   - Packages: a non-main package that no main package imports is
//     reported once, at its package clause, rather than once per
//     declaration. A package with no declarations (a doc.go alone) is
//     not reported.
//
// Main packages are roots, not subjects: their own unreached
// declarations are not reported. The one such declaration today is
// bench's inputDigest, and bench/ is the benchmark's own directory,
// edited only together with the benchmark. Files excluded by build
// constraints (//go:build ignore generators) are not loaded, so what
// only a generator uses needs an allow directive naming the generator.
// A suppressed finding keeps what it uses alive: an allowed
// declaration, or every declaration of an allowed package, is a root.
func Unused() *Analyzer {
	return &Analyzer{
		Name: "unused",
		Doc:  "every package and package-level declaration is reachable from some main package",
		Run:  runUnused,
	}
}

// unusedDecl is one package-level object and the syntax whose uses
// become live with it.
type unusedDecl struct {
	pkg  *Pkg
	node ast.Node
}

func runUnused(prog *Program) []Finding {
	reached := reachedPackages(prog)
	decls := map[types.Object]unusedDecl{}
	methods := map[*types.TypeName][]*types.Func{}
	declare := func(obj types.Object, pkg *Pkg, node ast.Node) {
		if obj != nil {
			decls[obj] = unusedDecl{pkg, node}
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					declare(fn, pkg, d)
					if recv := fn.Signature().Recv(); recv != nil {
						if tn := recvTypeName(recv.Type()); tn != nil {
							methods[tn] = append(methods[tn], fn)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(pkg.Info.Defs[s.Name], pkg, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								declare(pkg.Info.Defs[name], pkg, s)
							}
						}
					}
				}
			}
		}
	}

	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decls[obj]; ok && !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	for obj, d := range decls {
		if d.root(prog, obj, reached) {
			mark(obj)
		}
	}
	ifaceMethods := interfaceMethodNames(prog)
	scanned := map[ast.Node]bool{} // one ValueSpec can declare several names
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceMethods[m.Name()] {
					mark(m)
				}
			}
		}
		d := decls[obj]
		if scanned[d.node] {
			continue
		}
		scanned[d.node] = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && d.pkg.Info.Uses[id] != nil {
				mark(d.pkg.Info.Uses[id])
			}
			return true
		})
	}

	var out []Finding
	for _, pkg := range prog.Pkgs {
		if !reached[pkg.Path] && pkg.Types.Scope().Len() > 0 {
			out = append(out, Finding{Pos: packageClause(prog, pkg), Rule: "unused",
				Message: fmt.Sprintf("package %s is imported by no main package; delete it, or move what tests need into their _test.go files", pkg.Path)})
		}
	}
	for obj, d := range decls {
		if !live[obj] && reached[d.pkg.Path] && d.pkg.Types.Name() != "main" {
			out = append(out, Finding{Pos: prog.Position(obj.Pos()), Rule: "unused",
				Message: describeObject(obj) + " is reachable from no main package; delete it, or move it into the _test.go file that uses it"})
		}
	}
	return out
}

// reachedPackages is the set of packages some main package imports,
// directly or not, the main packages included.
func reachedPackages(prog *Program) map[string]bool {
	reached := map[string]bool{}
	var reach func(p *types.Package)
	reach = func(p *types.Package) {
		if !reached[p.Path()] {
			reached[p.Path()] = true
			for _, imp := range p.Imports() {
				reach(imp)
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			reach(pkg.Types)
		}
	}
	return reached
}

// root reports whether obj starts the reachability walk. In a reached
// package the roots are func main of a main package, init funcs, blank
// vars, and what an allow directive covers; in any other package,
// every declaration once the package's own finding is allowed.
func (d unusedDecl) root(prog *Program, obj types.Object, reached map[string]bool) bool {
	if !reached[d.pkg.Path] {
		return prog.allowed("unused", packageClause(prog, d.pkg))
	}
	if fd, ok := d.node.(*ast.FuncDecl); ok && fd.Recv == nil &&
		(obj.Name() == "init" || obj.Name() == "main" && d.pkg.Types.Name() == "main") {
		return true
	}
	return obj.Name() == "_" || prog.allowed("unused", prog.Position(obj.Pos()))
}

// interfaceMethodNames collects the method names of the predeclared
// error interface, of every interface declared at package scope in the
// import graph (standard library included) and of every interface type
// written in the module.
func interfaceMethodNames(prog *Program) map[string]bool {
	// The errors package asserts Unwrap, Is and As through interface
	// types local to its function bodies, which export data omits.
	names := map[string]bool{"Unwrap": true, "Is": true, "As": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(pkg.Info.Types[it].Type)
				}
				return true
			})
		}
	}
	return names
}

// recvTypeName resolves a method receiver (T, *T, T[P]) to its named
// type's declaration.
func recvTypeName(t types.Type) *types.TypeName {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// packageClause is where a package-level finding is reported: the
// package clause of the file carrying the package doc comment, else of
// the first file. Only called for packages with declarations, so with
// files.
func packageClause(prog *Program, pkg *Pkg) token.Position {
	f := pkg.Files[0]
	for _, g := range pkg.Files {
		if g.Doc != nil {
			f = g
			break
		}
	}
	return prog.Position(f.Name.Pos())
}

// describeObject names a declaration for a finding: its kind and its
// package-qualified name, a method's with its receiver type.
func describeObject(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Signature().Recv(); recv != nil {
			return "method " + obj.Pkg().Name() + "." + recvTypeName(recv.Type()).Name() + "." + obj.Name()
		}
		return "func " + name
	case *types.TypeName:
		return "type " + name
	case *types.Const:
		return "const " + name
	default:
		return "var " + name
	}
}
