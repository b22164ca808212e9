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
//
// Every simulated TM keeps its state in one way, so that an operation
// neither hashes nor allocates once its tables cover the ids in use,
// and nothing depends on map iteration order: per-variable state in a
// Table, whose entries start as zero values (model.InitialValue is 0);
// per-process state in a model.ProcTable of pointers, since a process's
// state must not move while the process is suspended at a yield; and a
// transaction's read and write sets in Logs, which a new transaction
// resets instead of reallocating. No TM keys a map by model.Proc or
// model.TVar; Table's own map for ids past its pages is the one.
package stm

import (
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
//
// A Recorder has one writer at a time and no lock: it is driven under
// the cooperative scheduler of package sim, which runs one process at a
// time and orders every switch (or from one goroutine, through
// sim.Background). Events go into chunks that are filled in place and
// never copied or regrown, as internal/record's logs keep theirs; their
// sizes double from firstChunkEvents, so a short run (schedule
// exploration replays thousands) allocates little, up to a fixed
// chunkEvents. History copies them once, into one slice.
type Recorder struct {
	inner TM
	done  []model.History // filled chunks, in order
	cur   model.History   // the chunk being filled
}

// Chunk capacities in events.
const (
	firstChunkEvents = 16
	chunkEvents      = 4096
)

// NewRecorder wraps tm.
func NewRecorder(tm TM) *Recorder { return &Recorder{inner: tm} }

var _ TM = (*Recorder)(nil)

// Name implements TM.
func (r *Recorder) Name() string { return r.inner.Name() }

// History returns a copy of the recorded history.
func (r *Recorder) History() model.History {
	n := len(r.cur)
	for _, c := range r.done {
		n += len(c)
	}
	h := make(model.History, 0, n)
	for _, c := range r.done {
		h = append(h, c...)
	}
	return append(h, r.cur...)
}

func (r *Recorder) record(e model.Event) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.done = append(r.done, r.cur)
		}
		r.cur = make(model.History, 0, min(max(2*cap(r.cur), firstChunkEvents), chunkEvents))
	}
	r.cur = append(r.cur, e)
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
