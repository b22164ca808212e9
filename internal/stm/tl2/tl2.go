// Package tl2 implements a TL2-style TM [15]: deferred updates
// (writes are buffered until commit), a global version clock, and
// commit-time locking. Reads validate against the transaction's read
// version, so every transaction sees a consistent snapshot (opacity).
//
// Liveness class (§3.2.3): solo progress in crash-free systems. A
// parasitic process holds no locks — updates are deferred — so it
// cannot block anyone; but a process that crashes inside its commit,
// between lock acquisition and release, leaves those commit-time locks
// held forever and conflicting transactions abort indefinitely.
package tl2

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// varRecord is one t-variable. Its zero value holds model.InitialValue.
type varRecord struct {
	value   model.Value
	version uint64
	owner   model.Proc // commit-time lock; 0 when unlocked
}

// txn is one process's transaction, reused for each of the process's
// transactions.
type txn struct {
	active bool
	rv     uint64 // read version: global clock at transaction start
	reads  stm.Log[struct{}]
	writes stm.Log[model.Value] // sorted by variable at commit, which ends the transaction
}

// TM is the TL2-style TM.
type TM struct {
	clock uint64
	vars  stm.Table[varRecord]
	txns  model.ProcTable[*txn]
}

var _ stm.TM = (*TM)(nil)

// New returns an empty instance.
func New() *TM { return &TM{} }

// Name implements stm.TM.
func (t *TM) Name() string { return "tl2" }

// txn returns p's transaction, starting one if none is active. Every
// operation asks, so the common case, an active transaction, is kept
// apart from begin.
func (t *TM) txn(p model.Proc) *txn {
	if tx := *t.txns.At(p); tx != nil && tx.active {
		return tx
	}
	return t.begin(p)
}

func (t *TM) begin(p model.Proc) *txn {
	e := t.txns.At(p)
	if *e == nil {
		*e = new(txn)
	}
	tx := *e
	tx.active = true
	tx.rv = t.clock
	tx.reads.Reset()
	tx.writes.Reset()
	return tx
}

func (t *TM) abort(tx *txn) stm.Status {
	tx.active = false
	return stm.Aborted
}

// release unlocks the first n variables of tx's sorted write set and
// aborts tx.
func (t *TM) release(tx *txn, n int) stm.Status {
	for _, w := range tx.writes.Entries()[:n] {
		t.vars.At(w.X).owner = 0
	}
	return t.abort(tx)
}

// Read implements stm.TM: return the write-buffer entry if present,
// else the shared value, valid only if unlocked and not newer than the
// transaction's read version.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	tx := t.txn(env.Proc())
	if v, ok := tx.writes.Get(x); ok {
		env.Yield()
		return *v, stm.OK
	}
	env.Yield()
	r := t.vars.At(x)
	if r.owner != 0 || r.version > tx.rv {
		return 0, t.abort(tx)
	}
	tx.reads.Add(x)
	return r.value, stm.OK
}

// Write implements stm.TM: buffer the write; no shared state is
// touched before commit.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	tx := t.txn(env.Proc())
	env.Yield()
	tx.writes.Put(x, v)
	return stm.OK
}

// TryCommit implements stm.TM: read-only transactions commit
// immediately (their reads were validated against rv); update
// transactions lock their write set in variable order, validate the
// read set, publish, and release. A crash between acquisition and
// release leaves the locks held.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	if len(tx.writes.Entries()) == 0 {
		tx.active = false
		return stm.OK
	}

	tx.writes.Sort()
	for i, w := range tx.writes.Entries() {
		env.Yield() // crash point: locks acquired so far stay held
		r := t.vars.At(w.X)
		if r.owner != 0 {
			return t.release(tx, i)
		}
		if r.version > tx.rv {
			if _, read := tx.reads.Get(w.X); read {
				return t.release(tx, i)
			}
		}
		r.owner = p
	}

	env.Yield()
	// Validate the read set against rv.
	for _, e := range tx.reads.Entries() {
		r := t.vars.At(e.X)
		if (r.owner != 0 && r.owner != p) || r.version > tx.rv {
			return t.release(tx, len(tx.writes.Entries()))
		}
	}

	// Final crash point: every lock is held, nothing is published. A
	// crash here is the scenario of §3.2.3 — commit-time locks held
	// forever. Publication and release then happen in one atomic
	// slice: a half-published commit would make the recorded history
	// unaccountable (the transaction would be neither committed nor
	// cleanly absent), which models the write-back being protected by
	// the very locks being released.
	env.Yield()
	t.clock++
	for _, w := range tx.writes.Entries() {
		r := t.vars.At(w.X)
		r.value = w.V
		r.version = t.clock
		r.owner = 0
	}
	tx.active = false
	return stm.OK
}
