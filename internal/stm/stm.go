// Package stm defines the operational interface that every TM
// implementation in the repository exposes, mirroring the paper's
// request/response model (§2.2): processes issue read, write, and
// commit requests and receive value/ok/commit responses or aborts.
//
// Implementations run under the cooperative scheduler of package sim:
// they call Env.Yield at every base-object access, which makes every
// lock-hold window preemptible and crash-visible. Blocking TMs (the
// global-lock TM) block by yielding in a loop inside the operation, so
// a blocked operation simply never returns — exactly the paper's
// notion of a transaction waiting forever.
package stm

import (
	"sync"

	"livetm/internal/model"
	"livetm/internal/sim"
)

// Status is the outcome of a TM operation.
type Status int

// Operation outcomes. OK means the value/ok/commit response; Aborted
// means the abort event A_k, which also ends the current transaction.
const (
	OK Status = iota + 1
	Aborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Aborted:
		return "aborted"
	default:
		return "status(?)"
	}
}

// TM is a transactional memory implementation. Transactions are
// implicit: a process's transaction starts at its first operation
// after a commit or abort and ends with the next commit or abort.
// The process identity is carried by the environment.
//
// Implementations are driven by the cooperative scheduler and must not
// be called from concurrently running goroutines outside it.
type TM interface {
	// Name identifies the implementation in reports.
	Name() string
	// Read performs x.read_p for p = env.Proc().
	Read(env *sim.Env, x model.TVar) (model.Value, Status)
	// Write performs x.write_p(v).
	Write(env *sim.Env, x model.TVar, v model.Value) Status
	// TryCommit performs tryC_p. OK means the transaction committed.
	TryCommit(env *sim.Env) Status
}

// Recorder wraps a TM and records the resulting history in the
// paper's event vocabulary. Invocations are recorded before the inner
// operation runs, so an operation that blocks forever leaves a pending
// invocation — a live transaction — in the history.
type Recorder struct {
	mu    sync.Mutex
	inner TM
	h     model.History
}

// NewRecorder wraps tm.
func NewRecorder(tm TM) *Recorder { return &Recorder{inner: tm} }

var _ TM = (*Recorder)(nil)

// Name implements TM.
func (r *Recorder) Name() string { return r.inner.Name() }

// History returns a copy of the recorded history.
func (r *Recorder) History() model.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h.Clone()
}

func (r *Recorder) record(e model.Event) {
	r.mu.Lock()
	r.h = append(r.h, e)
	r.mu.Unlock()
}

// Read implements TM.
func (r *Recorder) Read(env *sim.Env, x model.TVar) (model.Value, Status) {
	p := env.Proc()
	r.record(model.Read(p, x))
	v, st := r.inner.Read(env, x)
	if st == OK {
		r.record(model.ValueResp(p, v))
	} else {
		r.record(model.Abort(p))
	}
	return v, st
}

// Write implements TM.
func (r *Recorder) Write(env *sim.Env, x model.TVar, v model.Value) Status {
	p := env.Proc()
	r.record(model.Write(p, x, v))
	st := r.inner.Write(env, x, v)
	if st == OK {
		r.record(model.OK(p))
	} else {
		r.record(model.Abort(p))
	}
	return st
}

// TryCommit implements TM.
func (r *Recorder) TryCommit(env *sim.Env) Status {
	p := env.Proc()
	r.record(model.TryCommit(p))
	st := r.inner.TryCommit(env)
	if st == OK {
		r.record(model.Commit(p))
	} else {
		r.record(model.Abort(p))
	}
	return st
}

// Stats summarizes a history per process.
type Stats struct {
	Commits    map[model.Proc]int
	Aborts     map[model.Proc]int
	Operations map[model.Proc]int // completed operations (responses)
	PendingInv map[model.Proc]bool
}

// Summarize computes per-process statistics of a history.
func Summarize(h model.History) Stats {
	s := Stats{
		Commits:    make(map[model.Proc]int),
		Aborts:     make(map[model.Proc]int),
		Operations: make(map[model.Proc]int),
		PendingInv: make(map[model.Proc]bool),
	}
	for _, e := range h {
		switch {
		case e.Kind.IsInvocation():
			s.PendingInv[e.Proc] = true
		case e.Kind.IsResponse():
			s.PendingInv[e.Proc] = false
			s.Operations[e.Proc]++
			switch e.Kind {
			case model.RespCommit:
				s.Commits[e.Proc]++
			case model.RespAbort:
				s.Aborts[e.Proc]++
			}
		}
	}
	return s
}

// Factory creates a fresh TM instance for a system of the given size.
// Implementations that do not need the sizes may ignore them.
type Factory func(nProcs, nVars int) TM
