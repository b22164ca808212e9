// Package liveness implements the paper's liveness formalism (§2.3,
// §3): process fault classes on infinite histories and TM-liveness
// properties (local, global, and solo progress).
//
// Infinite histories are represented as lassos — eventually-periodic
// histories Prefix · Cycle^ω. Every infinite history the paper
// exhibits (Figures 5–14, and every history produced by the
// impossibility adversary against a deterministic TM) is eventually
// periodic, and on lassos all of the paper's predicates ("infinitely
// many commit events", "finitely many tryC invocations", …) are
// decidable exactly: an event occurs infinitely often iff it occurs in
// the cycle.
package liveness

import (
	"errors"
	"fmt"

	"livetm/internal/model"
)

// ErrEmptyCycle is returned by NewLasso when the cycle is empty: a
// lasso with an empty cycle is a finite history, not an infinite one.
var ErrEmptyCycle = errors.New("liveness: lasso cycle must be non-empty")

// Lasso is the infinite history Prefix · Cycle^ω.
//
// Procs is the process set P of the system. The paper fixes P
// up front; processes in P with no events at all are permitted (the
// scheduler may simply never pick them). If Procs is nil, the set
// defaults to the processes appearing in the lasso.
type Lasso struct {
	Prefix model.History
	Cycle  model.History
	Procs  []model.Proc
}

// NewLasso builds a lasso over the processes appearing in it.
func NewLasso(prefix, cycle model.History) (*Lasso, error) {
	return NewLassoWithProcs(prefix, cycle, nil)
}

// NewLassoWithProcs builds a lasso with an explicit process set; every
// process appearing in the lasso must be in the set.
func NewLassoWithProcs(prefix, cycle model.History, procs []model.Proc) (*Lasso, error) {
	if len(cycle) == 0 {
		return nil, ErrEmptyCycle
	}
	l := &Lasso{Prefix: prefix.Clone(), Cycle: cycle.Clone(), Procs: procs}
	if l.Procs == nil {
		seen := make(map[model.Proc]bool)
		for _, e := range prefix {
			seen[e.Proc] = true
		}
		for _, e := range cycle {
			seen[e.Proc] = true
		}
		for p := range seen {
			l.Procs = append(l.Procs, p)
		}
		sortProcs(l.Procs)
	} else {
		in := make(map[model.Proc]bool, len(procs))
		for _, p := range procs {
			in[p] = true
		}
		for _, part := range []model.History{prefix, cycle} {
			for _, e := range part {
				if !in[e.Proc] {
					return nil, fmt.Errorf("liveness: process %d appears in lasso but not in process set", e.Proc)
				}
			}
		}
	}
	return l, nil
}

// Unroll returns the finite prefix of the infinite history consisting
// of the lasso prefix followed by n copies of the cycle. Useful for
// checking safety of ever longer prefixes of an infinite history.
func (l *Lasso) Unroll(n int) model.History {
	out := l.Prefix.Clone()
	for i := 0; i < n; i++ {
		out = append(out, l.Cycle...)
	}
	return out
}

// String renders the lasso as "prefix . (cycle)^ω".
func (l *Lasso) String() string {
	return fmt.Sprintf("%s . (%s)^ω", l.Prefix, l.Cycle)
}

// cycleHas reports whether the cycle contains an event of p satisfying
// the predicate; such events occur infinitely often in the history.
func (l *Lasso) cycleHas(p model.Proc, pred func(model.Event) bool) bool {
	for _, e := range l.Cycle {
		if e.Proc == p && pred(e) {
			return true
		}
	}
	return false
}

func (l *Lasso) prefixHas(p model.Proc, pred func(model.Event) bool) bool {
	for _, e := range l.Prefix {
		if e.Proc == p && pred(e) {
			return true
		}
	}
	return false
}

func anyEvent(model.Event) bool { return true }

// Crashes reports whether p crashes in the infinite history: H|p is a
// finite non-empty sequence, i.e. p has events in the prefix but none
// in the cycle.
func (l *Lasso) Crashes(p model.Proc) bool {
	return l.prefixHas(p, anyEvent) && !l.cycleHas(p, anyEvent)
}

// Parasitic reports whether p is parasitic: H|p is infinite but
// contains only finitely many tryC invocations and abort events —
// i.e. p keeps executing operations in the cycle yet the cycle has no
// tryC_p and no A_p.
func (l *Lasso) Parasitic(p model.Proc) bool {
	if !l.cycleHas(p, anyEvent) {
		return false
	}
	return !l.cycleHas(p, func(e model.Event) bool {
		return e.Kind == model.InvTryCommit || e.Kind == model.RespAbort
	})
}

// Pending reports whether p is pending: only finitely many commit
// events C_p, i.e. none in the cycle.
func (l *Lasso) Pending(p model.Proc) bool {
	return !l.cycleHas(p, func(e model.Event) bool { return e.Kind == model.RespCommit })
}

// Correct reports whether p is correct: neither parasitic nor crashed.
func (l *Lasso) Correct(p model.Proc) bool {
	return !l.Crashes(p) && !l.Parasitic(p)
}

// Faulty reports whether p is faulty: crashed or parasitic.
func (l *Lasso) Faulty(p model.Proc) bool { return !l.Correct(p) }

// Starving reports whether p is starving: correct yet pending.
func (l *Lasso) Starving(p model.Proc) bool {
	return l.Correct(p) && l.Pending(p)
}

// MakesProgress reports whether the correct process p makes progress:
// it is not pending. Progress is only defined for correct processes;
// for faulty ones it returns false.
func (l *Lasso) MakesProgress(p model.Proc) bool {
	return l.Correct(p) && !l.Pending(p)
}

// CorrectProcs returns the correct processes of the lasso, sorted.
func (l *Lasso) CorrectProcs() []model.Proc {
	var out []model.Proc
	for _, p := range l.Procs {
		if l.Correct(p) {
			out = append(out, p)
		}
	}
	return out
}

// ProgressingProcs returns the correct processes that make progress.
func (l *Lasso) ProgressingProcs() []model.Proc {
	var out []model.Proc
	for _, p := range l.Procs {
		if l.MakesProgress(p) {
			out = append(out, p)
		}
	}
	return out
}

// RunsAlone returns the process that runs alone, if any: the unique
// correct process of the history (all others are faulty).
func (l *Lasso) RunsAlone() (model.Proc, bool) {
	var alone model.Proc
	correct := 0
	for _, p := range l.Procs {
		if l.Correct(p) {
			alone = p
			correct++
		}
	}
	if correct == 1 {
		return alone, true
	}
	return 0, false
}

func sortProcs(ps []model.Proc) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
