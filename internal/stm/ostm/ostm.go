// Package ostm implements a lock-free TM in the style of OSTM/FSTM
// [13]: deferred updates, per-variable versions, and a helping commit
// protocol. A committing transaction publishes a commit descriptor on
// each variable of its write set (in ascending variable order); any
// process that encounters an in-flight descriptor *helps* it to
// completion instead of waiting. A process that crashes in the middle
// of its commit therefore cannot block anyone — the next process to
// touch an acquired variable finishes the commit on its behalf.
//
// This is the mechanism behind the paper's remark (§1.3, §6) that
// OSTM ensures opacity and global progress in any fault-prone system:
// individual transactions can starve (validation can keep failing),
// but some transaction always completes.
//
// The helping ablation (core.Registry's ostm-nohelp, an Ablation
// variant): NewWithoutHelping returns a
// variant that aborts instead of helping; with it a crashed committer
// leaves its descriptor in place forever and every conflicting
// transaction aborts indefinitely — global progress degrades to solo
// progress in crash-free systems.
package ostm

import (
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

type status int

const (
	active status = iota + 1
	successful
	failed
)

// desc is a commit descriptor. Its read and write sets are its owner's
// logs, not copies: the owner resets them only when its next
// transaction starts, and by then no variable points at the descriptor
// any more (the owner's TryCommit cleans it up before returning, and a
// crashed owner starts no transaction).
type desc struct {
	st     status
	reads  []stm.Entry[uint64]      // var -> version observed
	writes []stm.Entry[model.Value] // ascending by variable
}

type varRecord struct {
	value   model.Value
	version uint64
	d       *desc // in-flight commit descriptor, nil when none
}

type txn struct {
	activ  bool
	reads  stm.Log[uint64] // var -> version observed
	writes stm.Log[model.Value]
}

// TM is the OSTM-style TM.
type TM struct {
	helping bool
	vars    stm.Table[varRecord]
	txns    model.ProcTable[*txn]
}

var _ stm.TM = (*TM)(nil)

// New returns an instance with helping enabled.
func New() *TM { return &TM{helping: true} }

// NewWithoutHelping returns the ablation variant that aborts on
// encountering a foreign in-flight descriptor instead of helping it.
func NewWithoutHelping() *TM { return &TM{} }

// Name implements stm.TM.
func (t *TM) Name() string {
	if !t.helping {
		return "ostm-nohelp"
	}
	return "ostm"
}

func (t *TM) txn(p model.Proc) *txn {
	e := t.txns.At(p)
	if *e == nil {
		*e = new(txn)
	}
	tx := *e
	if !tx.activ {
		tx.activ = true
		tx.reads.Reset()
		tx.writes.Reset()
	}
	return tx
}

// help drives a foreign descriptor to completion. It runs within one
// scheduler slice (no yields), so its read-modify-write sequence is
// atomic. Recursion terminates because descriptors acquire variables
// in ascending order: a cycle of descriptors each waiting on a
// variable held by the next would need some descriptor to acquire
// descending.
func (t *TM) help(d *desc) {
	if d.st == active {
		for _, w := range d.writes {
			if d.st != active {
				break
			}
			r := t.vars.At(w.X)
			if r.d == d {
				continue
			}
			if r.d != nil {
				t.help(r.d)
			}
			if d.st != active {
				break
			}
			r.d = d
		}
		if d.st == active {
			t.decide(d)
		}
	}
	t.cleanup(d)
}

// decide validates the descriptor's read set and fixes the outcome.
func (t *TM) decide(d *desc) {
	for _, e := range d.reads {
		r := t.vars.At(e.X)
		if r.version != e.V || (r.d != nil && r.d != d) {
			d.st = failed
			return
		}
	}
	d.st = successful
}

// cleanup applies a decided descriptor's writes and clears its
// variable pointers. A write applies only where the descriptor is still
// installed and uninstalls it there, so it applies once: cleanup is
// idempotent and safe to run by the owner and any number of helpers.
func (t *TM) cleanup(d *desc) {
	for _, w := range d.writes {
		r := t.vars.At(w.X)
		if r.d != d {
			continue
		}
		if d.st == successful {
			r.value = w.V
			r.version++
		}
		r.d = nil
	}
}

// validate checks the transaction's reads against current versions.
func (t *TM) validate(tx *txn) bool {
	for _, e := range tx.reads.Entries() {
		if t.vars.At(e.X).version != e.V {
			return false
		}
	}
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
	r := t.vars.At(x)
	if r.d != nil {
		if !t.helping {
			tx.activ = false
			return 0, stm.Aborted
		}
		t.help(r.d)
	}
	if ver, added := tx.reads.Add(x); added {
		*ver = r.version
	} else if *ver != r.version {
		tx.activ = false
		return 0, stm.Aborted
	}
	if !t.validate(tx) {
		tx.activ = false
		return 0, stm.Aborted
	}
	return r.value, stm.OK
}

// Write implements stm.TM: buffered until commit.
func (t *TM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	tx.writes.Put(x, v)
	return stm.OK
}

// TryCommit implements stm.TM.
func (t *TM) TryCommit(env *sim.Env) stm.Status {
	p := env.Proc()
	tx := t.txn(p)
	env.Yield()
	if len(tx.writes.Entries()) == 0 {
		ok := t.validate(tx)
		tx.activ = false
		if ok {
			return stm.OK
		}
		return stm.Aborted
	}

	tx.writes.Sort()
	d := &desc{st: active, reads: tx.reads.Entries(), writes: tx.writes.Entries()}

	// Acquisition phase, with a crash point before each variable. A
	// crash here leaves d active and partially installed; the next
	// process to touch an installed variable helps d to completion.
	for _, w := range d.writes {
		env.Yield()
		if d.st != active {
			break // a helper already finished the commit
		}
		r := t.vars.At(w.X)
		if r.d == d {
			continue
		}
		if r.d != nil {
			if !t.helping {
				// Ablation variant: abort instead of helping. Undo our
				// own partial acquisition so we do not become a blocker
				// ourselves.
				d.st = failed
				t.cleanup(d)
				tx.activ = false
				return stm.Aborted
			}
			t.help(r.d)
		}
		if d.st != active {
			break
		}
		r.d = d
	}
	// Crash point between acquisition and decision: the descriptor is
	// fully installed but undecided. This is the window in which a
	// crashed committer depends on helpers; without helping (the
	// ablation variant) the descriptor blocks conflicting transactions
	// forever. The decision and cleanup then form one atomic slice.
	env.Yield()
	if d.st == active {
		t.decide(d)
	}
	t.cleanup(d)
	tx.activ = false
	if d.st == successful {
		return stm.OK
	}
	return stm.Aborted
}
