// Package glock implements the paper's strawman TM (§1.1, §3.2.1): a
// single global lock protecting all transactions. The TM never aborts
// anything, executes transactions strictly sequentially, and therefore
// ensures opacity and — in a system that is both crash-free and
// parasitic-free — local progress. Any crashed or parasitic lock
// holder blocks every other process forever, which is exactly the
// behavior the impossibility discussion turns on.
//
// Two fairness modes exist: FIFO (the fair lock the paper mentions)
// and barging, kept for the fairness ablation — with barging, an
// unlucky process can starve even in a fault-free system.
package glock

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// TM is the global-lock TM. Create instances with New.
type TM struct {
	fair   bool
	holder model.Proc // 0 when free
	queue  []model.Proc
	store  stm.Table[model.Value]
	inTxn  model.ProcTable[bool]
}

var _ stm.TM = (*TM)(nil)

// New returns a FIFO-fair global-lock TM.
func New() *TM { return newTM(true) }

// NewBarging returns the barging (unfair) variant: whoever observes
// the lock free first takes it, regardless of arrival order.
func NewBarging() *TM { return newTM(false) }

func newTM(fair bool) *TM { return &TM{fair: fair} }

// Name implements stm.TM.
func (t *TM) Name() string {
	if t.fair {
		return "glock"
	}
	return "glock-barging"
}

// acquire blocks (by yielding) until p holds the global lock. The
// first operation of each transaction acquires; the commit releases.
func (t *TM) acquire(env *sim.Env, p model.Proc) {
	if t.holder == p {
		return
	}
	if t.fair {
		enqueued := false
		for _, q := range t.queue {
			if q == p {
				enqueued = true
				break
			}
		}
		if !enqueued {
			t.queue = append(t.queue, p)
		}
		for {
			env.Yield()
			if t.holder == 0 && len(t.queue) > 0 && t.queue[0] == p {
				t.queue = t.queue[:copy(t.queue, t.queue[1:])]
				t.holder = p
				return
			}
		}
	}
	for {
		env.Yield()
		if t.holder == 0 {
			t.holder = p
			return
		}
	}
}

func (t *TM) release(p model.Proc) {
	if t.holder == p {
		t.holder = 0
	}
}

// Read implements stm.TM. It blocks until the lock is held; it never
// aborts.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	p := env.Proc()
	if !*t.inTxn.At(p) {
		t.acquire(env, p)
		*t.inTxn.At(p) = true
	}
	env.Yield()
	return *t.store.At(x), stm.OK
}

// Write implements stm.TM. Writes apply in place: the transaction runs
// exclusively and never aborts, so no undo is needed.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	if !*t.inTxn.At(p) {
		t.acquire(env, p)
		*t.inTxn.At(p) = true
	}
	env.Yield()
	*t.store.At(x) = v
	return stm.OK
}

// TryCommit implements stm.TM. It always commits.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	if !*t.inTxn.At(p) {
		// An empty transaction: nothing was read or written.
		env.Yield()
		return stm.OK
	}
	env.Yield()
	*t.inTxn.At(p) = false
	t.release(p)
	return stm.OK
}
