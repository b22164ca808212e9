// Package fgptm adapts the paper's Fgp automaton (§6, package fgp) to
// the operational TM interface so it can run in the liveness matrix
// and adversary experiments beside the classical STM designs.
//
// Fgp is a centralized automaton: every operation is answered
// immediately from the current state, so operations never block and a
// crash can never leave anything "held" — the state machine simply
// stops hearing from the crashed process. This is why it ensures
// global progress in any fault-prone system (Theorem 3); the corrected
// variant also ensures opacity.
package fgptm

import (
	"livetm/internal/fgp"
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// TM wraps an fgp.Engine.
type TM struct {
	eng *fgp.Engine
	err error // first engine invariant violation, if any (never expected)
}

var _ stm.TM = (*TM)(nil)

// New returns an Fgp-backed TM (corrected variant) for the given
// system size.
func New(nProcs, nVars int) (*TM, error) {
	eng, err := fgp.NewEngine(nProcs, nVars, fgp.Corrected)
	if err != nil {
		return nil, err
	}
	return &TM{eng: eng}, nil
}

// Name implements stm.TM.
func (t *TM) Name() string { return "fgp" }

// Err returns the first engine invariant violation observed, if any.
// A non-nil value indicates a bug in the harness, not a TM abort.
func (t *TM) Err() error { return t.err }

// Read implements stm.TM.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	env.Yield()
	v, ok, err := t.eng.Read(env.Proc(), x)
	if err != nil {
		t.fail(err)
		return 0, stm.Aborted
	}
	if !ok {
		return 0, stm.Aborted
	}
	return v, stm.OK
}

// Write implements stm.TM.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	env.Yield()
	ok, err := t.eng.Write(env.Proc(), x, v)
	if err != nil {
		t.fail(err)
		return stm.Aborted
	}
	if !ok {
		return stm.Aborted
	}
	return stm.OK
}

// TryCommit implements stm.TM.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	env.Yield()
	ok, err := t.eng.TryCommit(env.Proc())
	if err != nil {
		t.fail(err)
		return stm.Aborted
	}
	if !ok {
		return stm.Aborted
	}
	return stm.OK
}

func (t *TM) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}
