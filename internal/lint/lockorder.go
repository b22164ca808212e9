package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
)

// LockOrder proves two locking disciplines about sync.Mutex /
// sync.RWMutex usage, per function body:
//
//  1. Pairing: every Lock()/RLock() must be matched — by a deferred
//     Unlock()/RUnlock() on the same receiver, or by an explicit
//     unlock on every path that leaves the function. A return
//     reachable while a lock is held (and not deferred) is flagged,
//     as is a function that locks a receiver it never unlocks.
//  2. Ordering: elements of an indexed lock slice (a striped lock
//     table, say, swept to take every stripe) must be acquired in
//     ascending index order — an ascending sweep is the repo-wide
//     deadlock-avoidance protocol for taking several elements at
//     once. Locking constant indices out of order, or sweeping a
//     lock slice with a descending loop, is flagged.
//
// The analysis is function-local and syntactic on purpose: a helper
// that intentionally returns with a lock held needs an explicit
// //lint:allow(lockorder) directive stating the protocol it is part
// of.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "lock slices acquired in ascending order; every Lock paired with an Unlock on all paths",
		Run:  runLockOrder,
	}
}

// lockCall is one (R)Lock/(R)Unlock call on a sync mutex.
type lockCall struct {
	key     string // normalized receiver ("s.stripes[#]", "mu")
	base    string // slice base for indexed receivers ("s.stripes"), "" otherwise
	index   ast.Expr
	read    bool // RLock/RUnlock
	acquire bool // Lock/RLock
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
	if ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok {
		lc.base = exprKey(ix.X)
		lc.index = ix.Index
	}
	return lc, true
}

// lockCheckFunc runs both disciplines over one function body.
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

	// Ordering: constant-index acquisitions of one base must ascend
	// unless the earlier lock was released in between, and sweeps of a
	// lock slice must not run descending.
	heldIdx := map[string][]struct {
		idx int64
		pos token.Pos
	}{}
	for _, lc := range calls {
		if lc.base == "" {
			continue
		}
		v, ok := constIndex(p, lc.index)
		if !ok {
			continue
		}
		if !lc.acquire {
			hs := heldIdx[lc.base]
			for i := range hs {
				if hs[i].idx == v {
					heldIdx[lc.base] = append(hs[:i], hs[i+1:]...)
					break
				}
			}
			continue
		}
		for _, h := range heldIdx[lc.base] {
			if v < h.idx {
				out = append(out, Finding{
					Pos:  p.prog.Position(lc.pos),
					Rule: "lockorder",
					Message: fmt.Sprintf("%s[%d] locked while %s[%d] (at %s) is held: indexed locks must be acquired in ascending order",
						lc.base, v, lc.base, h.idx, trimPos(p.prog.Position(h.pos))),
				})
			}
		}
		heldIdx[lc.base] = append(heldIdx[lc.base], struct {
			idx int64
			pos token.Pos
		}{v, lc.pos})
	}

	// Descending sweeps: for i := hi; ...; i-- { base[i].Lock() }.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Post == nil {
			return true
		}
		dec, ok := fs.Post.(*ast.IncDecStmt)
		if !ok || dec.Tok != token.DEC {
			return true
		}
		loopVar, ok := dec.X.(*ast.Ident)
		if !ok {
			return true
		}
		ast.Inspect(fs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			lc, ok := p.mutexCall(call, false)
			if !ok || !lc.acquire || lc.base == "" {
				return true
			}
			if ix, ok := ast.Unparen(lc.index).(*ast.Ident); ok && ix.Name == loopVar.Name {
				out = append(out, Finding{
					Pos:  p.prog.Position(call.Pos()),
					Rule: "lockorder",
					Message: fmt.Sprintf("%s[%s] locked inside a descending loop: sweep lock slices in ascending index order",
						lc.base, loopVar.Name),
				})
			}
			return true
		})
		return true
	})
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

// constIndex evaluates a constant integer index expression.
func constIndex(p *Pkg, e ast.Expr) (int64, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
