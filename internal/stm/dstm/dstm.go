// Package dstm implements an obstruction-free TM in the style of DSTM
// [14]: writers acquire t-variables by installing locators that point
// to their transaction descriptor and hold both the old and the new
// value; the descriptor's status decides which value is current.
// Aborting a competitor is a single status change, so no process ever
// waits on another — the hallmark of obstruction freedom.
//
// Reads are invisible and validated incrementally, giving opacity.
//
// Liveness class (§3.2.3): solo progress in parasitic-free systems. A
// crashed transaction is simply aborted by the next competitor, but a
// parasitic writer can keep re-acquiring a variable and, under the
// aggressive contention manager, abort a correct process forever.
//
// The contention manager is pluggable (the paper treats the CM as part
// of the TM, §2.2): AbortOther (aggressive) or AbortSelf (polite).
// The choice is observable in the liveness matrix — with AbortSelf a
// crashed writer's descriptor is never cleaned up and conflicting
// processes abort forever, losing solo progress even in parasitic-free
// systems. This is the CM ablation: an Ablation variant of
// core.Registry, listed by `livetm tms`.
package dstm

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// CM is a contention-management policy.
type CM int

// Contention-manager choices.
const (
	// AbortOther aborts the competing active transaction (aggressive).
	AbortOther CM = iota + 1
	// AbortSelf aborts the requesting transaction (polite).
	AbortSelf
	// Greedy resolves write conflicts by age: a transaction keeps its
	// timestamp across retries, and the older transaction wins (the
	// younger is aborted). Every write-conflicting transaction
	// eventually becomes oldest and wins — starvation freedom for
	// write-write contention — yet Theorem 1 still applies: the
	// impossibility adversary starves its victim through *invisible
	// reads*, which no contention manager can protect (see the
	// package tests).
	Greedy
)

type status int

const (
	active status = iota + 1
	committed
	aborted
)

type desc struct {
	st status
	// stamp is the Greedy priority: assigned when a process first
	// starts a transaction and retained across its retries, so the
	// process's priority only grows with failed attempts. Lower is
	// older and wins conflicts.
	stamp uint64
}

type locator struct {
	owner  *desc
	oldVal model.Value
	newVal model.Value
}

// varRecord is one t-variable. A nil locator means the variable was
// never acquired and holds model.InitialValue.
type varRecord struct {
	loc *locator
	// readers holds the descriptors of active visible readers (visible
	// variant only); dead entries are pruned on access.
	readers []*desc
}

type txn struct {
	d     *desc
	reads stm.Log[model.Value]
	activ bool
	// stamp is the process's Greedy timestamp, 0 until it starts a
	// transaction; a commit retires it.
	stamp uint64
}

// TM is the DSTM-style TM.
type TM struct {
	cm      CM
	visible bool // visible reads: readers register, writers abort them
	vars    stm.Table[varRecord]
	txns    model.ProcTable[*txn]
	clock   uint64 // Greedy timestamp source
}

var _ stm.TM = (*TM)(nil)

// New returns an instance with the aggressive contention manager.
func New() *TM { return NewWithCM(AbortOther) }

// NewWithCM returns an instance with the given contention manager.
func NewWithCM(cm CM) *TM { return &TM{cm: cm} }

// NewVisible returns the visible-reads variant with the aggressive
// contention manager: readers register on the variables they read and
// writers abort them at acquire time, trading read-set validation for
// reader-writer contention (the DSTM design axis).
func NewVisible() *TM {
	tm := NewWithCM(AbortOther)
	tm.visible = true
	return tm
}

// Name implements stm.TM.
func (t *TM) Name() string {
	if t.visible {
		return "dstm-visible"
	}
	switch t.cm {
	case AbortSelf:
		return "dstm-abortself"
	case Greedy:
		return "dstm-greedy"
	default:
		return "dstm"
	}
}

func (t *TM) txn(p model.Proc) *txn {
	e := t.txns.At(p)
	if *e == nil {
		*e = new(txn)
	}
	tx := *e
	if !tx.activ {
		if tx.stamp == 0 {
			t.clock++
			tx.stamp = t.clock
		}
		tx.d = &desc{st: active, stamp: tx.stamp}
		tx.reads.Reset()
		tx.activ = true
	}
	return tx
}

// current resolves the committed value of a variable through its
// locator: the new value if the owner committed, the old one if the
// owner is active or aborted.
func current(r *varRecord) model.Value {
	if r.loc == nil {
		return model.InitialValue
	}
	if r.loc.owner.st == committed {
		return r.loc.newVal
	}
	return r.loc.oldVal
}

// validate re-resolves every read; the snapshot must be unchanged and
// the transaction still active.
func (t *TM) validate(tx *txn) bool {
	if tx.d.st != active {
		return false
	}
	for _, e := range tx.reads.Entries() {
		if current(t.vars.At(e.X)) != e.V {
			return false
		}
	}
	return true
}

func (t *TM) selfAbort(tx *txn) {
	if tx.d.st == active {
		tx.d.st = aborted
	}
	tx.activ = false
}

// registerReader adds tx's descriptor to the variable's visible-reader
// list, pruning dead entries.
func registerReader(r *varRecord, d *desc) {
	live := r.readers[:0]
	present := false
	for _, rd := range r.readers {
		if rd.st != active {
			continue
		}
		if rd == d {
			present = true
		}
		live = append(live, rd)
	}
	if !present {
		live = append(live, d)
	}
	r.readers = live
}

// abortReaders aborts every active visible reader except keep.
func abortReaders(r *varRecord, keep *desc) {
	for _, rd := range r.readers {
		if rd != keep && rd.st == active {
			rd.st = aborted
		}
	}
	r.readers = r.readers[:0]
}

// Read implements stm.TM.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	if tx.d.st != active {
		t.selfAbort(tx)
		return 0, stm.Aborted
	}
	r := t.vars.At(x)
	if r.loc != nil && r.loc.owner == tx.d {
		return r.loc.newVal, stm.OK // our own write
	}
	if t.visible {
		// A visible reader conflicts with an active writer like a
		// writer would: the contention manager resolves it.
		if r.loc != nil && r.loc.owner.st == active && r.loc.owner != tx.d {
			r.loc.owner.st = aborted // AbortOther; NewVisible pins the aggressive CM
		}
		registerReader(r, tx.d)
		// No validation needed: any conflicting acquire would have
		// aborted this descriptor atomically.
		return current(r), stm.OK
	}
	v := current(r)
	if prev, added := tx.reads.Add(x); added {
		*prev = v
	} else if *prev != v {
		t.selfAbort(tx)
		return 0, stm.Aborted
	}
	if !t.validate(tx) {
		t.selfAbort(tx)
		return 0, stm.Aborted
	}
	return v, stm.OK
}

// Write implements stm.TM: acquire the variable by installing a fresh
// locator; a conflicting active owner is handled by the contention
// manager.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	if tx.d.st != active {
		t.selfAbort(tx)
		return stm.Aborted
	}
	r := t.vars.At(x)
	if r.loc != nil && r.loc.owner == tx.d {
		r.loc.newVal = v // x is already ours
		return stm.OK
	}
	if r.loc != nil && r.loc.owner.st == active && r.loc.owner != tx.d {
		switch t.cm {
		case AbortOther:
			r.loc.owner.st = aborted
		case Greedy:
			if tx.d.stamp < r.loc.owner.stamp {
				r.loc.owner.st = aborted // we are older: the younger yields
			} else {
				t.selfAbort(tx)
				return stm.Aborted
			}
		default: // AbortSelf
			t.selfAbort(tx)
			return stm.Aborted
		}
	}
	old := current(r)
	if t.visible {
		// Acquiring a variable aborts its visible readers; our own
		// registered reads stay protected the same way. A visible
		// reader logs no reads, so validation below is its status.
		abortReaders(r, tx.d)
	}
	if prev, seen := tx.reads.Get(x); (seen && *prev != old) || !t.validate(tx) {
		t.selfAbort(tx)
		return stm.Aborted
	}
	r.loc = &locator{owner: tx.d, oldVal: old, newVal: v}
	return stm.OK
}

// TryCommit implements stm.TM: validate the read set and flip the
// descriptor to committed in one atomic slice (the descriptor status
// change is DSTM's linearization point). A commit retires the
// process's Greedy timestamp; aborts retain it, so priority only
// grows with failed attempts.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	tx := t.txn(env.Proc())
	env.Yield()
	if !t.validate(tx) {
		t.selfAbort(tx)
		return stm.Aborted
	}
	tx.d.st = committed
	tx.activ = false
	tx.stamp = 0
	return stm.OK
}
