// Package irrevoc implements the paper's *second* circumvention of the
// impossibility (§1.3): assume the TM controls the application's
// re-execution [12]. The wrapper turns a transaction irrevocable after
// it has been aborted too often — it hands the starving process a
// FIFO token and silences every other process's operations (immediate
// aborts) until the token holder commits. Because the holder then runs
// without interference, its next attempt succeeds on any inner TM.
//
// What this buys, and what it cannot: with cooperative applications
// (retry loops) in a crash-free, parasitic-free system, every process
// commits — starvation freedom even under metronome schedules where
// the raw inner TM starves one writer forever. But Theorem 1 is not
// breached, in three instructive ways the package tests pin down:
//
//   - the impossibility adversary controls the *application*, not just
//     the schedule, and never re-invokes the victim when the token
//     would help it;
//   - a *parasitic* process accumulates aborts like anyone else,
//     captures the token, and — never committing — never releases it,
//     silencing the entire system (the token mechanism presumes the TM
//     controls the application's commit behavior, which is precisely
//     what a parasite denies);
//   - a token holder that crashes silences everyone forever.
//
// Under faults the wrapper therefore behaves like the global lock,
// which is why it is not in the liveness-matrix registry: its verdict
// is the claim "local progress iff the TM controls the application",
// not a schedule-measurable row. Nothing imports the wrapper either,
// so it lives in test files: the package is test-only.
package irrevoc

import (
	"fmt"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// TM wraps an inner TM with abort-triggered irrevocability.
type TM struct {
	inner     stm.TM
	threshold int

	aborts map[model.Proc]int // consecutive aborts per process
	queue  []model.Proc       // FIFO of processes waiting for the token
	holder model.Proc         // current token holder; 0 when none
}

var _ stm.TM = (*TM)(nil)

// Wrap returns inner with irrevocability after threshold consecutive
// aborts.
func Wrap(inner stm.TM, threshold int) (*TM, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("irrevoc: threshold %d must be positive", threshold)
	}
	return &TM{
		inner:     inner,
		threshold: threshold,
		aborts:    make(map[model.Proc]int),
	}, nil
}

// Name implements stm.TM.
func (t *TM) Name() string { return "irrevocable(" + t.inner.Name() + ")" }

// silenced reports whether p must be aborted immediately because some
// other process holds (or is owed) the token.
func (t *TM) silenced(p model.Proc) bool {
	if t.holder == p {
		return false
	}
	if t.holder != 0 {
		return true
	}
	// No holder: promote the queue head lazily.
	if len(t.queue) > 0 {
		t.holder = t.queue[0]
		t.queue = t.queue[1:]
		return t.holder != p
	}
	return false
}

// noteAbort counts a consecutive abort and enqueues p for the token at
// the threshold.
func (t *TM) noteAbort(p model.Proc) {
	t.aborts[p]++
	if t.aborts[p] == t.threshold {
		for _, q := range t.queue {
			if q == p {
				return
			}
		}
		t.queue = append(t.queue, p)
	}
}

// noteCommit resets p's abort streak and releases its token.
func (t *TM) noteCommit(p model.Proc) {
	t.aborts[p] = 0
	if t.holder == p {
		t.holder = 0
	}
}

// Read implements stm.TM.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	p := env.Proc()
	env.Yield()
	if t.silenced(p) {
		return 0, stm.Aborted // the TM delays p's re-execution
	}
	v, st := t.inner.Read(env, x)
	if st == stm.Aborted {
		t.noteAbort(p)
	}
	return v, st
}

// Write implements stm.TM.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	env.Yield()
	if t.silenced(p) {
		return stm.Aborted
	}
	st := t.inner.Write(env, x, v)
	if st == stm.Aborted {
		t.noteAbort(p)
	}
	return st
}

// TryCommit implements stm.TM.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	env.Yield()
	if t.silenced(p) {
		return stm.Aborted
	}
	st := t.inner.TryCommit(env)
	if st == stm.OK {
		t.noteCommit(p)
	} else {
		t.noteAbort(p)
	}
	return st
}
