// Package twopl implements strict two-phase locking with deadlock
// detection — the classic blocking concurrency control, included
// because the paper's model deliberately covers blocking TMs (the
// global lock of §1.1 is its degenerate form). Transactions take
// per-variable read/write locks as they go and hold them to the end;
// a lock conflict blocks (yield-spins) unless it would close a cycle
// in the wait-for graph, in which case the requester aborts.
//
// Liveness class: like TinySTM's row — solo progress only in systems
// that are both crash-free and parasitic-free — but for blocking
// reasons: a crashed or parasitic lock holder blocks conflicting
// transactions *without* aborting them (their operations simply never
// return), whereas encounter-time TMs abort them forever. Deadlock
// detection keeps the fault-free case live where naive 2PL would hang.
package twopl

import (
	"slices"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

type lockMode int

const (
	unlocked lockMode = iota
	shared
	exclusive
)

type varLock struct {
	mode    lockMode
	holders []model.Proc // readers under shared, one writer under exclusive
	value   model.Value
	undo    model.Value // pre-image for the exclusive holder
}

type txn struct {
	active  bool
	locked  []model.TVar // variables this transaction holds (in order)
	waits   bool         // the process waits for waitFor
	waitFor model.TVar
	visit   uint64 // the last wait-for search that reached the process
}

// TM is the strict-2PL TM.
type TM struct {
	vars  stm.Table[varLock]
	txns  model.ProcTable[*txn]
	visit uint64       // the current wait-for search
	stack []model.Proc // the wait-for search's work list
}

var _ stm.TM = (*TM)(nil)

// New returns an empty instance.
func New() *TM { return &TM{} }

// Name implements stm.TM.
func (t *TM) Name() string { return "2pl" }

func (t *TM) txn(p model.Proc) *txn {
	e := t.txns.At(p)
	if *e == nil {
		*e = new(txn)
	}
	tx := *e
	if !tx.active {
		tx.active = true
		tx.locked = tx.locked[:0]
	}
	return tx
}

// wouldDeadlock reports whether p waiting for x closes a cycle in the
// wait-for graph: following holders of x through their own waits
// reaches p.
func (t *TM) wouldDeadlock(p model.Proc, x model.TVar) bool {
	t.visit++
	t.stack = t.stack[:0]
	for _, q := range t.vars.At(x).holders {
		if q != p {
			t.stack = append(t.stack, q)
		}
	}
	for len(t.stack) > 0 {
		q := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if q == p {
			return true
		}
		qt := *t.txns.At(q)
		if qt.visit == t.visit {
			continue
		}
		qt.visit = t.visit
		if qt.waits {
			for _, r := range t.vars.At(qt.waitFor).holders {
				if r != q {
					t.stack = append(t.stack, r)
				}
			}
		}
	}
	return false
}

// grantable reports whether p can take x in the given mode now.
func (t *TM) grantable(p model.Proc, x model.TVar, mode lockMode) bool {
	l := t.vars.At(x)
	switch l.mode {
	case unlocked:
		return true
	case shared:
		if mode == shared {
			return true
		}
		// Upgrade allowed only when p is the sole reader.
		return len(l.holders) == 1 && l.holders[0] == p
	default: // exclusive
		return l.holders[0] == p
	}
}

// acquire blocks (yield-spinning) until p holds x in the requested
// mode, or returns false when waiting would deadlock (the requester is
// chosen as the victim).
func (t *TM) acquire(env *sim.Env, p model.Proc, x model.TVar, mode lockMode) bool {
	tx := t.txn(p)
	for {
		env.Yield()
		if t.grantable(p, x, mode) {
			l := t.vars.At(x)
			if !slices.Contains(l.holders, p) {
				l.holders = append(l.holders, p)
				tx.locked = append(tx.locked, x)
			}
			if mode == exclusive && l.mode != exclusive {
				l.mode = exclusive
				l.undo = l.value
			} else if l.mode == unlocked {
				l.mode = shared
			}
			tx.waits = false
			return true
		}
		if t.wouldDeadlock(p, x) {
			tx.waits = false
			t.rollback(p)
			return false
		}
		tx.waits, tx.waitFor = true, x
	}
}

// rollback restores pre-images of exclusively held variables and
// releases all of p's locks.
func (t *TM) rollback(p model.Proc) {
	for _, x := range (*t.txns.At(p)).locked {
		if l := t.vars.At(x); l.mode == exclusive && l.holders[0] == p {
			l.value = l.undo
		}
	}
	t.release(p)
}

// release frees all of p's locks, keeping the written values.
func (t *TM) release(p model.Proc) {
	tx := *t.txns.At(p)
	for _, x := range tx.locked {
		l := t.vars.At(x)
		if i := slices.Index(l.holders, p); i >= 0 {
			l.holders = slices.Delete(l.holders, i, i+1)
		}
		if len(l.holders) == 0 {
			l.mode = unlocked
		}
	}
	tx.active = false
}

// Read implements stm.TM: take a shared lock and read in place.
func (t *TM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	p := env.Proc()
	if !t.acquire(env, p, x, shared) {
		return 0, stm.Aborted
	}
	env.Yield()
	return t.vars.At(x).value, stm.OK
}

// Write implements stm.TM: take an exclusive lock (possibly an
// upgrade) and write in place with an undo image.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	if !t.acquire(env, p, x, exclusive) {
		return stm.Aborted
	}
	env.Yield()
	t.vars.At(x).value = v
	return stm.OK
}

// TryCommit implements stm.TM: strict 2PL commits by releasing.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	t.txn(p)
	env.Yield()
	t.release(p)
	return stm.OK
}
