package liveness

import (
	"fmt"

	"livetm/internal/model"
)

// This file implements the extensions the paper sketches as future
// work in §7: TM-liveness properties that guarantee progress for a
// bounded number of processes (k-progress) and for processes with
// higher priority (priority progress). Both slot into the paper's
// class machinery: k-progress for k ≥ 2 is nonblocking and
// biprogressing, so by Theorem 2 it is impossible to ensure together
// with any strictly serializable safety property in a fault-prone
// system — an executable corollary, checked in the package tests.

// KProgress is the TM-liveness property L_k: in every infinite
// history, at least min(k, number-of-correct-processes) correct
// processes make progress. KProgress(1) coincides with global
// progress; KProgress(n) over n processes with local progress.
func KProgress(k int) Property {
	return Property{
		Name: fmt.Sprintf("%d-progress", k),
		Contains: func(l *Lasso) bool {
			correct, progressing := 0, 0
			for _, p := range l.Procs {
				if l.Correct(p) {
					correct++
					if !l.Pending(p) {
						progressing++
					}
				}
			}
			return progressing >= min(k, correct)
		},
	}
}

// PriorityProgress is the TM-liveness property parameterized by a
// priority assignment: in every infinite history, every correct
// process with maximal priority among the correct processes makes
// progress. Processes missing from the map have priority 0.
//
// With all priorities equal it degenerates to local progress (every
// correct process is maximal); with distinct priorities it guarantees
// exactly one process's progress, like global progress but naming the
// winner.
func PriorityProgress(prio map[model.Proc]int) Property {
	return Property{
		Name: "priority progress",
		Contains: func(l *Lasso) bool {
			correct := l.CorrectProcs()
			if len(correct) == 0 {
				return true
			}
			max := prio[correct[0]]
			for _, p := range correct[1:] {
				if prio[p] > max {
					max = prio[p]
				}
			}
			for _, p := range correct {
				if prio[p] == max && !l.MakesProgress(p) {
					return false
				}
			}
			return true
		},
	}
}

// IsNonblockingOn reports whether the property's membership predicate
// is consistent with being nonblocking on the given sample histories:
// no member history has a starving solo runner. It cannot prove a
// property nonblocking (that quantifies over all histories) but
// refutes it with a witness.
func IsNonblockingOn(p Property, sample []*Lasso) (witness *Lasso, ok bool) {
	for _, l := range sample {
		if p.Contains(l) && ViolatesNonblocking(l) {
			return l, false
		}
	}
	return nil, true
}

// IsBiprogressingOn is the sampled analogue for the biprogressing
// class.
func IsBiprogressingOn(p Property, sample []*Lasso) (witness *Lasso, ok bool) {
	for _, l := range sample {
		if p.Contains(l) && ViolatesBiprogressing(l) {
			return l, false
		}
	}
	return nil, true
}

// ClassifyRun builds a lasso from a finite run so the formal
// predicates can be applied to empirical histories: the first split
// events form the prefix and the remainder the cycle, read as "the
// observed tail repeats forever".
//
// This is sound for the process-class and progress predicates, which
// depend only on the *kinds* of events each process keeps performing
// (commits, aborts, tryC invocations, any events) — not on values —
// so any tail that faithfully samples the steady state yields the
// classification of the true infinite history. Callers choose split
// so that start-up transients fall into the prefix; SplitHalf is the
// usual choice.
func ClassifyRun(h model.History, split int, procs []model.Proc) (*Lasso, error) {
	if split < 0 || split >= len(h) {
		return nil, fmt.Errorf("liveness: split %d out of range for %d events", split, len(h))
	}
	return NewLassoWithProcs(h[:split].Clone(), h[split:].Clone(), procs)
}

// SplitHalf is the conventional split point for ClassifyRun.
func SplitHalf(h model.History) int { return len(h) / 2 }
