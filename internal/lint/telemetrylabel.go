package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// TelemetryLabel flags telemetry label values that may be unbounded.
// Every distinct label value materializes a series in the registry
// for the life of the process, so a label fed from client-supplied
// input is a memory leak an attacker controls — exactly the class of
// bug behind the admission-state leak PR 9 had to fix at runtime.
//
// A label value passed to Registry.Counter/Gauge/Histogram is
// accepted when it provably derives from a finite source:
//
//   - string literals and named constants;
//   - strconv formatting of numeric/bool values (worker and process
//     indices are bounded by configuration);
//   - fmt.Sprintf over a literal format whose string arguments are
//     themselves finite;
//   - concatenations of the above;
//   - a local variable assigned exactly once from a finite source;
//   - a string parameter that every call site in the program feeds a
//     finite value (traced through up to three call layers).
//
// Anything else — struct fields, map lookups, request data, function
// results — is flagged. Sites that bound their label space some other
// way (the admission layer's idle eviction, the engine registry's
// fixed algorithm list) document that with //lint:allow(telemetrylabel).
func TelemetryLabel() *Analyzer {
	return &Analyzer{
		Name: "telemetrylabel",
		Doc:  "telemetry label values must derive from finite sources",
		Run:  runTelemetryLabel,
	}
}

const telemetryPathSuffix = "internal/telemetry"

// registryMethods create labeled series: (name, help string, kvs ...string).
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func runTelemetryLabel(prog *Program) []Finding {
	calls := buildCallIndex(prog)
	var out []Finding
	for _, pkg := range prog.Pkgs {
		p := pkg
		if pathHasSuffix(p.Path, telemetryPathSuffix) {
			continue // the registry implementation handles raw kvs by design
		}
		p.walkStack(func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !registryMethods[sel.Sel.Name] {
				return true
			}
			f, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := f.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if !namedType(sig.Recv().Type(), mustPath(f), "Registry") || !pathHasSuffix(mustPath(f), telemetryPathSuffix) {
				return true
			}
			if call.Ellipsis.IsValid() {
				out = append(out, Finding{
					Pos:  p.prog.Position(call.Pos()),
					Rule: "telemetrylabel",
					Message: fmt.Sprintf("Registry.%s called with spread labels (kvs...): the label values cannot be proven finite",
						sel.Sel.Name),
				})
				return true
			}
			// Args: name, help, k1, v1, k2, v2, ... — values are the
			// odd positions of the kvs tail.
			fn := funcFor(stack)
			for i := 3; i < len(call.Args); i += 2 {
				cl := classifier{p: p, calls: calls, enclosing: fn}
				if reason := cl.finite(call.Args[i], 0); reason != "" {
					key := "?"
					if kv, ok := p.Info.Types[call.Args[i-1]]; ok && kv.Value != nil {
						key = kv.Value.String()
					}
					out = append(out, Finding{
						Pos:  p.prog.Position(call.Args[i].Pos()),
						Rule: "telemetrylabel",
						Message: fmt.Sprintf("label %s value may be unbounded (%s): every distinct value is a series kept for the process lifetime — derive labels from a finite set or bound them and //lint:allow(telemetrylabel) with the mechanism",
							key, reason),
					})
				}
			}
			return true
		})
	}
	return out
}

func mustPath(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// classifier decides whether a string expression provably comes from
// a finite value space.
type classifier struct {
	p         *Pkg
	calls     *callIndex
	enclosing ast.Node
	visiting  map[*types.Var]bool
}

const maxTraceDepth = 3

// finite returns "" when e is provably finite, else a short reason.
func (c *classifier) finite(e ast.Expr, depth int) string {
	if depth > maxTraceDepth {
		return "value flows through too many call layers to trace"
	}
	e = ast.Unparen(e)
	if tv, ok := c.p.Info.Types[e]; ok {
		if tv.Value != nil {
			return "" // any constant
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString == 0 {
			return "" // numeric/bool operands of Sprintf etc. are finite enough
		}
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if r := c.finite(e.X, depth); r != "" {
			return r
		}
		return c.finite(e.Y, depth)
	case *ast.CallExpr:
		return c.finiteCall(e, depth)
	case *ast.Ident:
		obj := c.p.Info.Uses[e]
		if obj == nil {
			obj = c.p.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return fmt.Sprintf("%s is not a traceable variable", e.Name)
		}
		return c.finiteVar(v, e, depth)
	case *ast.SelectorExpr:
		return "struct fields and package variables are not provably finite"
	case *ast.IndexExpr:
		return "indexed values (maps, slices) are not provably finite"
	default:
		return fmt.Sprintf("expression kind %T is not provably finite", e)
	}
}

// finiteCall accepts the sanctioned formatting helpers.
func (c *classifier) finiteCall(call *ast.CallExpr, depth int) string {
	fn := c.p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "call result is not provably finite"
	}
	switch fn.Pkg().Path() {
	case "strconv":
		switch fn.Name() {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "FormatBool", "Quote":
			return ""
		}
	case "fmt":
		if fn.Name() == "Sprintf" && len(call.Args) > 0 {
			if tv, ok := c.p.Info.Types[call.Args[0]]; !ok || tv.Value == nil {
				return "Sprintf format is not a constant"
			}
			for _, a := range call.Args[1:] {
				if r := c.finite(a, depth); r != "" {
					return r
				}
			}
			return ""
		}
	}
	return fmt.Sprintf("result of %s.%s is not provably finite", fn.Pkg().Name(), fn.Name())
}

// finiteVar traces a variable: single-assigned locals chase their
// right-hand side; parameters chase every call site of the enclosing
// function.
func (c *classifier) finiteVar(v *types.Var, use *ast.Ident, depth int) string {
	if c.visiting == nil {
		c.visiting = map[*types.Var]bool{}
	}
	if c.visiting[v] {
		return fmt.Sprintf("%s is assigned from itself", v.Name())
	}
	c.visiting[v] = true
	defer delete(c.visiting, v)

	// A parameter of the enclosing function?
	if fobj, param := c.paramOf(v); fobj != nil {
		sites := c.calls.calls[fobj]
		if len(sites) == 0 {
			return fmt.Sprintf("parameter %s has no visible call sites to prove finite", v.Name())
		}
		for _, site := range sites {
			if param >= len(site.call.Args) || site.call.Ellipsis.IsValid() {
				return fmt.Sprintf("a call to %s spreads or omits the %s argument", fobj.Name(), v.Name())
			}
			sub := classifier{p: site.pkg, calls: c.calls, enclosing: nil, visiting: c.visiting}
			sub.enclosing = enclosingFuncOf(site.pkg, site.call)
			if r := sub.finite(site.call.Args[param], depth+1); r != "" {
				return fmt.Sprintf("parameter %s: call at %s passes a value that %s", v.Name(),
					trimPos(c.p.prog.Position(site.call.Pos())), r)
			}
		}
		return ""
	}

	// A local: find its assignments inside the enclosing function.
	rhs, n := c.assignments(v)
	switch {
	case n == 0:
		return fmt.Sprintf("%s has no visible initializer", v.Name())
	case n > 1:
		return fmt.Sprintf("%s is assigned more than once", v.Name())
	case rhs == nil:
		return fmt.Sprintf("%s is not assigned a traceable expression", v.Name())
	}
	return c.finite(rhs, depth)
}

// paramOf reports whether v is a parameter of a program function,
// returning the function object and the parameter index.
func (c *classifier) paramOf(v *types.Var) (*types.Func, int) {
	for _, pkg := range c.p.prog.Pkgs {
		for ident, obj := range pkg.Info.Defs {
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			sig := f.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i) == v {
					_ = ident
					return f, i
				}
			}
		}
	}
	return nil, 0
}

// assignments finds v's initializer/assignments inside the enclosing
// function, returning the single RHS when there is exactly one.
func (c *classifier) assignments(v *types.Var) (ast.Expr, int) {
	if c.enclosing == nil {
		return nil, 0
	}
	var rhs ast.Expr
	n := 0
	ast.Inspect(c.enclosing, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.p.Info.Defs[id]
				if obj == nil {
					obj = c.p.Info.Uses[id]
				}
				if obj != v {
					continue
				}
				n++
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				} else {
					rhs = nil // multi-value unpacking: untraceable
				}
			}
		case *ast.ValueSpec:
			for i, id := range node.Names {
				if c.p.Info.Defs[id] != v {
					continue
				}
				n++
				if i < len(node.Values) {
					rhs = node.Values[i]
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{node.Key, node.Value} {
				if id, ok := lhs.(*ast.Ident); ok && (c.p.Info.Defs[id] == v || c.p.Info.Uses[id] == v) {
					n += 2 // range vars take many values: untraceable
				}
			}
		}
		return true
	})
	if n != 1 {
		return nil, n
	}
	return rhs, 1
}

// enclosingFuncOf finds the function declaration containing a node by
// position.
func enclosingFuncOf(p *Pkg, n ast.Node) ast.Node {
	for _, f := range p.Files {
		if n.Pos() < f.Pos() || n.Pos() > f.End() {
			continue
		}
		var found ast.Node
		ast.Inspect(f, func(m ast.Node) bool {
			if m == nil || found != nil {
				return false
			}
			if fd, ok := m.(*ast.FuncDecl); ok {
				if n.Pos() >= fd.Pos() && n.Pos() <= fd.End() {
					found = fd
				}
				return found == nil
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return nil
}
