package fgp

import (
	"fmt"

	"livetm/internal/model"
)

// Engine drives an Fgp instance as a runtime TM: every invocation is
// answered synchronously with the response the automaton enables
// (values and oks while the status is 'c', aborts while it is 'a',
// commits on tryC). The engine is single-threaded; concurrent callers
// must serialize access (the stm adapter does).
type Engine struct {
	a *Automaton
	s *State
	h model.History
}

// NewEngine returns an engine over a fresh instance.
func NewEngine(nProcs, nVars int, variant Variant) (*Engine, error) {
	a, err := New(nProcs, nVars, variant)
	if err != nil {
		return nil, err
	}
	return &Engine{a: a, s: a.Initial()}, nil
}

// History returns the history recorded so far (a copy).
func (e *Engine) History() model.History { return e.h.Clone() }

// step applies an event, which must be enabled, and records it.
func (e *Engine) step(ev model.Event) error {
	next, ok := e.a.Step(e.s, ev)
	if !ok {
		return fmt.Errorf("fgp: event %s not enabled in state %s", ev, e.s)
	}
	e.s = next
	e.h = append(e.h, ev)
	return nil
}

// invoke performs inv and answers it with the enabled response,
// returning that response.
func (e *Engine) invoke(inv model.Event) (model.Event, error) {
	if err := e.step(inv); err != nil {
		return model.Event{}, err
	}
	k := int(inv.Proc) - 1
	var resp model.Event
	if e.s.status[k] == 'a' {
		resp = model.Abort(inv.Proc)
	} else {
		switch inv.Kind {
		case model.InvRead:
			resp = model.ValueResp(inv.Proc, e.s.val[k][inv.Var])
		case model.InvWrite:
			resp = model.OK(inv.Proc)
		case model.InvTryCommit:
			resp = model.Commit(inv.Proc)
		}
	}
	if err := e.step(resp); err != nil {
		return model.Event{}, err
	}
	return resp, nil
}

// Read performs x.read_p. ok is false when the transaction was
// aborted.
func (e *Engine) Read(p model.Proc, x model.TVar) (model.Value, bool, error) {
	resp, err := e.invoke(model.Read(p, x))
	if err != nil {
		return 0, false, err
	}
	if resp.Kind == model.RespAbort {
		return 0, false, nil
	}
	return resp.Val, true, nil
}

// Write performs x.write_p(v). ok is false when the transaction was
// aborted.
func (e *Engine) Write(p model.Proc, x model.TVar, v model.Value) (bool, error) {
	resp, err := e.invoke(model.Write(p, x, v))
	if err != nil {
		return false, err
	}
	return resp.Kind == model.RespOK, nil
}

// TryCommit performs tryC_p. ok is true on commit, false on abort.
func (e *Engine) TryCommit(p model.Proc) (bool, error) {
	resp, err := e.invoke(model.TryCommit(p))
	if err != nil {
		return false, err
	}
	return resp.Kind == model.RespCommit, nil
}
