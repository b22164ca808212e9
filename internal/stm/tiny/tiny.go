// Package tiny implements an encounter-time-locking, write-through TM
// in the style of TinySTM/SwissTM [16, 17]: writers lock t-variables
// when they first write them and hold the lock until commit or abort,
// applying writes in place with an undo log; readers validate their
// read set incrementally so every transaction observes a consistent
// snapshot (opacity).
//
// Liveness class (§3.2.3): solo progress in systems that are both
// parasitic-free and crash-free. A parasitic writer holds its
// encounter-time locks forever, and a process that crashes while
// holding locks leaves them locked forever; in both cases conflicting
// transactions abort indefinitely.
package tiny

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

type varRecord struct {
	value   model.Value
	version uint64
	owner   model.Proc // 0 when unlocked
}

type txn struct {
	active bool
	reads  stm.Log[uint64]      // var -> version observed
	undo   stm.Log[model.Value] // locked var -> pre-image, in acquisition order
}

// TM is the encounter-time-locking TM.
type TM struct {
	vars stm.Table[varRecord]
	txns model.ProcTable[*txn]
}

var _ stm.TM = (*TM)(nil)

// New returns an empty instance.
func New() *TM { return &TM{} }

// Name implements stm.TM.
func (t *TM) Name() string { return "tinystm" }

func (t *TM) txn(p model.Proc) *txn {
	e := t.txns.At(p)
	if *e == nil {
		*e = new(txn)
	}
	tx := *e
	if !tx.active {
		tx.active = true
		tx.reads.Reset()
		tx.undo.Reset()
	}
	return tx
}

// validate re-checks every read: its version must be unchanged and the
// variable unlocked or owned by p.
func (t *TM) validate(p model.Proc, tx *txn) bool {
	for _, e := range tx.reads.Entries() {
		r := t.vars.At(e.X)
		if r.owner != 0 && r.owner != p {
			return false
		}
		if r.version != e.V {
			return false
		}
	}
	return true
}

// rollback restores pre-images, bumps versions of written variables
// (readers that saw intermediate dirty state must fail validation),
// and releases locks.
func (t *TM) rollback(p model.Proc, tx *txn) {
	for _, u := range tx.undo.Entries() {
		r := t.vars.At(u.X)
		if r.owner == p {
			r.value = u.V
			r.version++
			r.owner = 0
		}
	}
	tx.active = false
}

// Read implements stm.TM.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	r := t.vars.At(x)
	if r.owner == p {
		// Reading our own encounter-time write: the in-place value.
		return r.value, stm.OK
	}
	if r.owner != 0 {
		t.rollback(p, tx)
		return 0, stm.Aborted
	}
	if ver, added := tx.reads.Add(x); added {
		*ver = r.version
	} else if *ver != r.version {
		t.rollback(p, tx)
		return 0, stm.Aborted
	}
	// Incremental validation keeps the whole snapshot consistent.
	if !t.validate(p, tx) {
		t.rollback(p, tx)
		return 0, stm.Aborted
	}
	return r.value, stm.OK
}

// Write implements stm.TM. The first write to a variable locks it
// (encounter time) and records the undo image; the write then applies
// in place.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	r := t.vars.At(x)
	if r.owner != 0 && r.owner != p {
		t.rollback(p, tx)
		return stm.Aborted
	}
	if r.owner != p {
		// Acquire: but first make sure our own earlier read of x (if
		// any) is still valid, and the snapshot still holds.
		if ver, seen := tx.reads.Get(x); seen && *ver != r.version {
			t.rollback(p, tx)
			return stm.Aborted
		}
		r.owner = p
		tx.undo.Put(x, r.value)
	}
	env.Yield()
	r.value = v
	return stm.OK
}

// TryCommit implements stm.TM: validate the read set, then release
// locks with fresh versions.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	if !t.validate(p, tx) {
		t.rollback(p, tx)
		return stm.Aborted
	}
	// Crash point: validated but nothing released. A crash here (or
	// anywhere earlier in the transaction) leaves the encounter-time
	// locks held forever. The release itself is one atomic slice so
	// the recorded history never shows a half-committed transaction.
	env.Yield()
	for _, u := range tx.undo.Entries() {
		r := t.vars.At(u.X)
		r.version++
		r.owner = 0
	}
	tx.active = false
	return stm.OK
}
