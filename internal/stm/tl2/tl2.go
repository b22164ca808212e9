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
//
// State is kept in slices indexed by process and by t-variable id and
// reused across transactions, so an operation neither hashes nor
// allocates once the tables cover the ids in use.
package tl2

import (
	"cmp"
	"slices"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// denseVars bounds the t-variable ids a table keeps in its slice.
const denseVars = 1 << 12

// table holds one T per t-variable id: in a slice, grown on demand, for
// ids below denseVars, and in a map for the rest (any id up to
// model.MaxTVar is valid), so a sparse id never sizes the slice. A *T
// into the slice is valid only until the table next grows.
type table[T any] struct {
	dense []T
	far   map[model.TVar]*T
}

func (tb *table[T]) at(x model.TVar) *T {
	if x < denseVars {
		if int(x) >= len(tb.dense) {
			n := min(max(int(x)+1, 2*len(tb.dense)), denseVars)
			tb.dense = append(tb.dense, make([]T, n-len(tb.dense))...)
		}
		return &tb.dense[x]
	}
	e := tb.far[x]
	if e == nil {
		if tb.far == nil {
			tb.far = make(map[model.TVar]*T)
		}
		e = new(T)
		tb.far[x] = e
	}
	return e
}

// varRecord is one t-variable. Its zero value holds model.InitialValue.
type varRecord struct {
	value   model.Value
	version uint64
	owner   model.Proc // commit-time lock; 0 when unlocked
}

// mark is a t-variable's membership of one process's current
// transaction: it is in the read set when read equals the transaction's
// epoch, and in the write set, at writes[slot], when write does.
type mark struct {
	read, write uint64
	slot        int
}

type write struct {
	x model.TVar
	v model.Value
}

// txn is one process's transaction. It is reused for each of the
// process's transactions: a new epoch empties both sets at once.
type txn struct {
	active bool
	rv     uint64 // read version: global clock at transaction start
	epoch  uint64 // starts at 1, so a zero mark belongs to no transaction
	reads  []model.TVar
	writes []write // sorted by variable at commit, which ends the transaction
	marks  table[mark]
}

// TM is the TL2-style TM.
type TM struct {
	clock uint64
	// vars grows when any process first touches an id, so a *varRecord
	// taken from it is valid only until the next yield.
	vars table[varRecord]
	// txns is indexed by process id. It holds pointers because a
	// process's transaction must not move while the process is
	// suspended mid-operation and another one's first operation grows
	// the slice.
	txns []*txn
}

var _ stm.TM = (*TM)(nil)

// New returns an empty instance.
func New() *TM { return &TM{} }

// Name implements stm.TM.
func (t *TM) Name() string { return "tl2" }

// txn returns p's transaction, starting one if none is active.
func (t *TM) txn(p model.Proc) *txn {
	if int(p) >= len(t.txns) {
		t.txns = append(t.txns, make([]*txn, int(p)+1-len(t.txns))...)
	}
	tx := t.txns[p]
	if tx == nil {
		tx = &txn{}
		t.txns[p] = tx
	}
	if !tx.active {
		tx.active = true
		tx.rv = t.clock
		tx.epoch++
		tx.reads = tx.reads[:0]
		tx.writes = tx.writes[:0]
	}
	return tx
}

func (t *TM) abort(tx *txn) stm.Status {
	tx.active = false
	return stm.Aborted
}

// release unlocks the first n variables of tx's sorted write set and
// aborts tx.
func (t *TM) release(tx *txn, n int) stm.Status {
	for _, w := range tx.writes[:n] {
		t.vars.at(w.x).owner = 0
	}
	return t.abort(tx)
}

// Read implements stm.TM: return the write-buffer entry if present,
// else the shared value, valid only if unlocked and not newer than the
// transaction's read version.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	tx := t.txn(env.Proc())
	if m := tx.marks.at(x); m.write == tx.epoch {
		v := tx.writes[m.slot].v
		env.Yield()
		return v, stm.OK
	}
	env.Yield()
	r := t.vars.at(x)
	if r.owner != 0 || r.version > tx.rv {
		return 0, t.abort(tx)
	}
	if m := tx.marks.at(x); m.read != tx.epoch {
		m.read = tx.epoch
		tx.reads = append(tx.reads, x)
	}
	return r.value, stm.OK
}

// Write implements stm.TM: buffer the write; no shared state is
// touched before commit.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	tx := t.txn(env.Proc())
	env.Yield()
	if m := tx.marks.at(x); m.write == tx.epoch {
		tx.writes[m.slot].v = v
	} else {
		m.write, m.slot = tx.epoch, len(tx.writes)
		tx.writes = append(tx.writes, write{x, v})
	}
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
	if len(tx.writes) == 0 {
		tx.active = false
		return stm.OK
	}

	// The marks' write slots are stale from here on; nothing reads them
	// before the transaction ends.
	slices.SortFunc(tx.writes, func(a, b write) int { return cmp.Compare(a.x, b.x) })
	for i, w := range tx.writes {
		env.Yield() // crash point: locks acquired so far stay held
		r := t.vars.at(w.x)
		if r.owner != 0 || (tx.marks.at(w.x).read == tx.epoch && r.version > tx.rv) {
			return t.release(tx, i)
		}
		r.owner = p
	}

	env.Yield()
	// Validate the read set against rv.
	for _, x := range tx.reads {
		r := t.vars.at(x)
		if (r.owner != 0 && r.owner != p) || r.version > tx.rv {
			return t.release(tx, len(tx.writes))
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
	for _, w := range tx.writes {
		r := t.vars.at(w.x)
		r.value = w.v
		r.version = t.clock
		r.owner = 0
	}
	tx.active = false
	return stm.OK
}
