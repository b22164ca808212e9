// Package core ties the reproduction together: it provides the
// paper's figures as executable artifacts, the registry of TM
// implementations, the liveness-matrix experiment (E20, pinned by
// TestLivenessMatrix), and the theorem-evidence runners (E17–E19).
package core

import (
	"livetm/internal/liveness"
	"livetm/internal/model"
)

// Fig1 is Figure 1: T1 reads 0 and stalls; T2 reads 0, writes 1 and
// commits; T1's write is acknowledged and its commit aborted. The
// history is opaque and strictly serializable — and repeating it
// forever starves T1.
func Fig1() model.History {
	return model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Read(2, 0), model.ValueResp(2, 0),
		model.Write(2, 0, 1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
		model.Write(1, 0, 1), model.OK(1),
		model.TryCommit(1), model.Abort(1),
	}
}

// Fig3 is Figure 3: both transactions read 0, write 1, and commit — a
// lost update; neither opaque nor strictly serializable.
func Fig3() model.History {
	return model.NewBuilder().
		Read(1, 0, 0).
		Read(2, 0, 0).Write(2, 0, 1).Commit(2).
		Write(1, 0, 1).Commit(1).
		History()
}

// Fig4 is Figure 4: T2 commits x:=1 while T1 is live; T1 reads 0 then
// 1 and aborts. Strictly serializable but not opaque.
func Fig4() model.History {
	return model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Write(2, 0, 1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
		model.Read(1, 0), model.ValueResp(1, 1),
		model.TryCommit(1), model.Abort(1),
	}
}

// Fig5 is an infinite history in the spirit of Figure 5 (local
// progress): both processes run infinitely many read-v/write-(1-v)
// transactions and both commit infinitely often; each also has
// infinitely many aborted attempts.
func Fig5() *liveness.Lasso {
	cycle := model.NewBuilder().
		Read(1, 0, 0).Write(1, 0, 1).Commit(1).
		ReadAbort(2, 0).
		Read(2, 0, 1).Write(2, 0, 0).Commit(2).
		ReadAbort(1, 0).
		History()
	return mustLasso(nil, cycle, nil)
}

// Fig6 is Figure 6 (global but not local progress): p1 commits
// infinitely often, p2 aborts infinitely often and never commits.
func Fig6() *liveness.Lasso {
	cycle := model.NewBuilder().
		Read(1, 0, 0).Write(1, 0, 1).Commit(1).
		Read(2, 0, 1).Write(2, 0, 0).CommitAbort(2).
		Read(1, 0, 1).Write(1, 0, 0).Commit(1).
		Read(2, 0, 0).Write(2, 0, 1).CommitAbort(2).
		History()
	return mustLasso(nil, cycle, nil)
}

// Fig7 is Figure 7 (solo progress): p1 crashes after a read, p2
// commits once and then turns parasitic, p3 runs alone and commits
// forever.
func Fig7() *liveness.Lasso {
	prefix := model.NewBuilder().
		Read(1, 0, 0).
		Write(2, 0, 1).Commit(2).
		History()
	cycle := model.NewBuilder().
		Read(3, 0, 1).Write(3, 0, 0).Commit(3).
		Read(2, 0, 0).Write(2, 0, 1).
		Read(3, 0, 0).Write(3, 0, 1).Commit(3).
		Read(2, 0, 1).Write(2, 0, 0).
		History()
	return mustLasso(prefix, cycle, nil)
}

// Fig8 is the would-be terminating suffix of Algorithm 1 (Figure 8;
// Figure 11 is the same shape for Algorithm 2): both processes read
// v, write v+1, and commit. The proof of Theorem 1 shows it is not
// opaque.
func Fig8(v model.Value) model.History {
	return model.History{
		model.Read(1, 0), model.ValueResp(1, v),
		model.Read(2, 0), model.ValueResp(2, v),
		model.Write(2, 0, v+1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
		model.Write(1, 0, v+1), model.OK(1),
		model.TryCommit(1), model.Commit(1),
	}
}

// Fig14 is Figure 14 (violates every nonblocking property): like
// Figure 7, but the solo runner p3 aborts forever.
func Fig14() *liveness.Lasso {
	prefix := model.NewBuilder().
		Read(1, 0, 0).
		Write(2, 0, 1).Commit(2).
		History()
	cycle := model.NewBuilder().
		Read(3, 0, 1).Write(3, 0, 0).CommitAbort(3).
		Read(2, 0, 1).Write(2, 0, 0).
		History()
	return mustLasso(prefix, cycle, nil)
}

// Fig16Hex is the history Hex of Figure 16: three processes, two
// binary t-variables x (=x0) and y (=x1), a history of the automaton
// Fgp.
func Fig16Hex() model.History {
	const (
		x = model.TVar(0)
		y = model.TVar(1)
	)
	return model.History{
		model.Read(1, x), model.ValueResp(1, 0),
		model.Write(2, y, 1),
		model.Write(1, x, 1), model.OK(1),
		model.TryCommit(1), model.Commit(1),
		model.Abort(2),
		model.Read(3, y), model.ValueResp(3, 0),
		model.Write(3, y, 1), model.OK(3),
		model.Read(1, y), model.ValueResp(1, 0),
		model.TryCommit(3), model.Commit(3),
		model.TryCommit(1), model.Abort(1),
		model.Read(2, y), model.ValueResp(2, 1),
		model.Read(2, x), model.ValueResp(2, 1),
		model.TryCommit(2), model.Commit(2),
	}
}

func mustLasso(prefix, cycle model.History, procs []model.Proc) *liveness.Lasso {
	l, err := liveness.NewLassoWithProcs(prefix, cycle, procs)
	if err != nil {
		// The figure constructors are package constants in spirit;
		// a construction failure is a programming error caught by the
		// package tests.
		panic(err)
	}
	return l
}
