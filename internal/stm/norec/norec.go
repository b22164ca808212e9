// Package norec implements a NOrec-style TM (Dalessandro, Spear,
// Scott; PPoPP 2010 — cited here as a post-paper design the liveness
// framework classifies cleanly): no per-variable metadata at all, one
// global sequence lock, deferred updates, and value-based validation.
//
// Reads snapshot the global sequence number and validate by re-reading
// values whenever it changes; commits take the sequence lock, validate,
// publish, and release.
//
// Liveness class in the paper's terms: solo progress in crash-free
// systems, like TL2 — a parasitic process holds nothing (deferred
// updates), but a crash inside the commit window leaves the *global*
// lock held and every update transaction in the system blocks, not
// just conflicting ones. The liveness matrix shows this coarser
// failure mode with the same verdict row as TL2.
package norec

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

type txn struct {
	active   bool
	snapshot uint64
	reads    []readEntry // every read, repeats included
	writes   stm.Log[model.Value]
}

type readEntry struct {
	x model.TVar
	v model.Value
}

// TM is the NOrec-style TM.
type TM struct {
	seq    uint64 // odd while the writer holds the sequence lock
	owner  model.Proc
	values stm.Table[model.Value]
	txns   model.ProcTable[*txn]
}

var _ stm.TM = (*TM)(nil)

// New returns an empty instance.
func New() *TM { return &TM{} }

// Name implements stm.TM.
func (t *TM) Name() string { return "norec" }

func (t *TM) txn(p model.Proc) *txn {
	e := t.txns.At(p)
	if *e == nil {
		*e = new(txn)
	}
	tx := *e
	if !tx.active {
		tx.active = true
		tx.snapshot = t.seq
		tx.reads = tx.reads[:0]
		tx.writes.Reset()
	}
	return tx
}

// revalidate re-reads the whole read set by value. It succeeds only
// when the sequence number is stable and even (no writer) and every
// previously read value is unchanged; on success it moves the
// transaction's snapshot forward.
func (t *TM) revalidate(tx *txn) bool {
	if t.seq%2 == 1 {
		return false // a writer holds the sequence lock
	}
	for _, r := range tx.reads {
		if *t.values.At(r.x) != r.v {
			return false
		}
	}
	tx.snapshot = t.seq
	return true
}

// Read implements stm.TM.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	p := env.Proc()
	tx := t.txn(p)
	if v, buffered := tx.writes.Get(x); buffered {
		env.Yield()
		return *v, stm.OK
	}
	env.Yield()
	if t.seq != tx.snapshot {
		// The world moved: value-based revalidation (NOrec's
		// signature move — false conflicts on silent re-writes only).
		if !t.revalidate(tx) {
			tx.active = false
			return 0, stm.Aborted
		}
	}
	v := *t.values.At(x)
	tx.reads = append(tx.reads, readEntry{x: x, v: v})
	return v, stm.OK
}

// Write implements stm.TM: buffered until commit.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	tx.writes.Put(x, v)
	return stm.OK
}

// TryCommit implements stm.TM: read-only transactions commit after a
// final value validation; update transactions take the global
// sequence lock (seq becomes odd), validate, publish, and release. A
// crash while the lock is held blocks every update transaction in the
// system.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	if len(tx.writes.Entries()) == 0 {
		ok := t.seq == tx.snapshot || t.revalidate(tx)
		tx.active = false
		if ok {
			return stm.OK
		}
		return stm.Aborted
	}

	// Acquire the sequence lock; NOrec spins here, which under a
	// crashed lock holder means blocking forever. We follow NOrec and
	// block (yield-spin) rather than abort: this is what makes its
	// crash column match TL2's for a different reason.
	for t.seq%2 == 1 {
		env.Yield()
	}
	t.seq++ // odd: locked
	t.owner = p

	env.Yield() // crash point: the global sequence lock is held

	if !t.revalidateLocked(tx) {
		t.seq++ // even again: released
		t.owner = 0
		tx.active = false
		return stm.Aborted
	}
	// Publish and release in one atomic slice (the lock protects the
	// write-back; a half-published commit would be unaccountable).
	for _, w := range tx.writes.Entries() {
		*t.values.At(w.X) = w.V
	}
	t.seq++ // even: released, new version
	t.owner = 0
	tx.active = false
	return stm.OK
}

// revalidateLocked validates the read set while holding the sequence
// lock (seq is odd and owned by the caller).
func (t *TM) revalidateLocked(tx *txn) bool {
	for _, r := range tx.reads {
		if *t.values.At(r.x) != r.v {
			return false
		}
	}
	return true
}
