package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// LockOrder proves a pairing discipline about sync.Mutex /
// sync.RWMutex usage, per function body: every Lock()/RLock() must be
// matched — by a deferred Unlock()/RUnlock() on the same receiver, or
// by an explicit unlock on every path that leaves the function. A
// return reachable while a lock is held (and not deferred) is flagged,
// as is a function that locks a receiver it never unlocks.
//
// The analysis is function-local and syntactic on purpose: a helper
// that intentionally returns with a lock held needs an explicit
// //lint:allow(lockorder) directive stating the protocol it is part
// of.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "every Lock paired with an Unlock on all paths",
		Run:  runLockOrder,
	}
}

// lockCall is one (R)Lock/(R)Unlock call on a sync mutex.
type lockCall struct {
	key     string // normalized receiver ("s.stripes[#]", "mu")
	read    bool   // RLock/RUnlock
	acquire bool   // Lock/RLock
	defered bool
	pos     token.Pos
}

func runLockOrder(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range prog.Pkgs {
		p := pkg
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, p.lockCheckFunc(fd)...)
			}
		}
	}
	return out
}

// mutexCall classifies a call as a sync mutex (un)lock.
func (p *Pkg) mutexCall(call *ast.CallExpr, defered bool) (lockCall, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	var lc lockCall
	switch sel.Sel.Name {
	case "Lock":
		lc.acquire = true
	case "RLock":
		lc.acquire, lc.read = true, true
	case "Unlock":
	case "RUnlock":
		lc.read = true
	default:
		return lockCall{}, false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return lockCall{}, false
	}
	if !namedType(tv.Type, "sync", "Mutex") && !namedType(tv.Type, "sync", "RWMutex") {
		return lockCall{}, false
	}
	lc.key = exprKey(sel.X)
	lc.defered = defered
	lc.pos = call.Pos()
	return lc, true
}

// lockCheckFunc checks pairing over one function body.
func (p *Pkg) lockCheckFunc(fd *ast.FuncDecl) []Finding {
	var out []Finding
	var calls []lockCall

	// Collect every mutex call in source order, noting defers.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if lc, ok := p.mutexCall(n.Call, true); ok {
				calls = append(calls, lc)
			}
			return false
		case *ast.CallExpr:
			if lc, ok := p.mutexCall(n, false); ok {
				calls = append(calls, lc)
			}
		}
		return true
	})
	if len(calls) == 0 {
		return nil
	}

	// Pairing, part 1: a locked receiver must have some unlock of the
	// same kind in the function.
	released := map[pair]bool{}
	deferred := map[pair]bool{}
	for _, lc := range calls {
		if !lc.acquire {
			released[pair{lc.key, lc.read}] = true
			if lc.defered {
				deferred[pair{lc.key, lc.read}] = true
			}
		}
	}
	reported := map[pair]bool{}
	for _, lc := range calls {
		k := pair{lc.key, lc.read}
		if lc.acquire && !released[k] && !reported[k] {
			reported[k] = true
			verb := "Lock"
			if lc.read {
				verb = "RLock"
			}
			out = append(out, Finding{
				Pos:  p.prog.Position(lc.pos),
				Rule: "lockorder",
				Message: fmt.Sprintf("%s.%s() has no matching unlock in this function; unlock on every path or document the handoff with //lint:allow(lockorder)",
					lc.key, verb),
			})
		}
	}

	// Pairing, part 2: no return while a non-deferred lock is held.
	held := map[pair]token.Pos{}
	var scan func(stmts []ast.Stmt)
	classify := func(s ast.Stmt) {
		// Locks/unlocks anywhere inside this statement update the
		// held-set conservatively (a branch that unlocks counts as
		// released — pairing part 1 already demands unlocks exist).
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if lc, ok := p.mutexCall(n.Call, true); ok && !lc.acquire {
					delete(held, pair{lc.key, lc.read})
				}
				return false
			case *ast.FuncLit:
				return false // its body is its own scope
			case *ast.CallExpr:
				if lc, ok := p.mutexCall(n, false); ok {
					k := pair{lc.key, lc.read}
					if lc.acquire {
						if !deferred[k] {
							held[k] = lc.pos
						}
					} else {
						delete(held, k)
					}
				}
			}
			return true
		})
	}
	scan = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.ReturnStmt:
				for k, lockPos := range held {
					verb := "Lock"
					if k.read {
						verb = "RLock"
					}
					out = append(out, Finding{
						Pos:  p.prog.Position(s.Pos()),
						Rule: "lockorder",
						Message: fmt.Sprintf("return while %s.%s() (at %s) is held with no deferred unlock on this path",
							k.key, verb, trimPos(p.prog.Position(lockPos))),
					})
				}
			case *ast.BlockStmt:
				scan(s.List)
			case *ast.IfStmt:
				save := copyHeld(held)
				scan(s.Body.List)
				held = save
				if s.Else != nil {
					switch e := s.Else.(type) {
					case *ast.BlockStmt:
						scan(e.List)
					case *ast.IfStmt:
						scan([]ast.Stmt{e})
					}
					held = save
				}
				classify(s) // then fold the whole statement's effect
			case *ast.ForStmt:
				save := copyHeld(held)
				scan(s.Body.List)
				held = save
				classify(s)
			case *ast.RangeStmt:
				save := copyHeld(held)
				scan(s.Body.List)
				held = save
				classify(s)
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				save := copyHeld(held)
				ast.Inspect(s, func(n ast.Node) bool {
					switch cc := n.(type) {
					case *ast.CaseClause:
						held = copyHeld(save)
						scan(cc.Body)
						return false
					case *ast.CommClause:
						held = copyHeld(save)
						scan(cc.Body)
						return false
					}
					return true
				})
				held = save
				classify(s)
			default:
				classify(s)
			}
		}
	}
	scan(fd.Body.List)

	return out
}

// pair identifies one held lock: receiver key plus read/write kind.
type pair struct {
	key  string
	read bool
}

func copyHeld(m map[pair]token.Pos) map[pair]token.Pos {
	out := make(map[pair]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
