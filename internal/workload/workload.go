// Package workload declares the workload matrix that `livetm
// workloads` and the benchmarks run on every engine (matrix.go), and
// keeps the simulated-TM helpers the tests build on (workload.go): a
// retrying transaction runner (Atomically) over the TM operational
// interface, and two synthetic workloads, a shared counter and a
// transactional bank.
//
//lint:allow(unused) the simulated-TM helpers (Tx, Atomically, Increment, Bank) are test support: workload's own tests and Examples and the tests of internal/tstruct and internal/linear use them
package workload

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// Tx is the per-attempt transaction handle passed to Atomically's
// body. After any operation aborts, the handle is dead: further
// operations are no-ops and the attempt is retried.
type Tx struct {
	tm      stm.TM
	env     *sim.Env
	aborted bool
}

// Read returns the value of x, or 0 after the transaction aborted.
func (t *Tx) Read(x model.TVar) model.Value {
	if t.aborted {
		return 0
	}
	v, st := t.tm.Read(t.env, x)
	if st != stm.OK {
		t.aborted = true
		return 0
	}
	return v
}

// Write writes v to x.
func (t *Tx) Write(x model.TVar, v model.Value) {
	if t.aborted {
		return
	}
	if t.tm.Write(t.env, x, v) != stm.OK {
		t.aborted = true
	}
}

// Atomically runs body as a transaction, retrying until it commits,
// and returns the number of attempts (≥ 1). The body must be
// idempotent across retries (it re-reads everything through the
// handle).
func Atomically(tm stm.TM, env *sim.Env, body func(*Tx)) int {
	for attempts := 1; ; attempts++ {
		tx := &Tx{tm: tm, env: env}
		body(tx)
		if tx.aborted {
			continue
		}
		if tm.TryCommit(env) == stm.OK {
			return attempts
		}
	}
}

// Increment atomically increments x and returns the attempts used.
func Increment(tm stm.TM, env *sim.Env, x model.TVar) int {
	return Atomically(tm, env, func(tx *Tx) {
		tx.Write(x, tx.Read(x)+1)
	})
}

// Bank is a transactional bank: account i lives in t-variable i.
type Bank struct {
	tm       stm.TM
	accounts int
}

// NewBank creates a bank with n accounts holding initial each,
// funding them in one transaction by process setup's environment.
func NewBank(tm stm.TM, env *sim.Env, n int, initial model.Value) *Bank {
	b := &Bank{tm: tm, accounts: n}
	Atomically(tm, env, func(tx *Tx) {
		for i := 0; i < n; i++ {
			tx.Write(model.TVar(i), initial)
		}
	})
	return b
}

// Transfer moves amount from one account to another (overdrafts are
// permitted: the workload exercises the TM, not banking rules).
// It returns the attempts used.
func (b *Bank) Transfer(env *sim.Env, from, to int, amount model.Value) int {
	return Atomically(b.tm, env, func(tx *Tx) {
		tx.Write(model.TVar(from), tx.Read(model.TVar(from))-amount)
		tx.Write(model.TVar(to), tx.Read(model.TVar(to))+amount)
	})
}

// Total reads all accounts in one transaction and returns their sum —
// by opacity it must always equal accounts × initial.
func (b *Bank) Total(env *sim.Env) model.Value {
	var total model.Value
	Atomically(b.tm, env, func(tx *Tx) {
		total = 0
		for i := 0; i < b.accounts; i++ {
			total += tx.Read(model.TVar(i))
		}
	})
	return total
}
