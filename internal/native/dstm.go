package native

import (
	"sync"
	"sync/atomic"
)

// DSTM is a DSTM-style obstruction-free STM: every variable points at
// an ownership record (locator) naming the writing transaction and
// carrying the pre- and post-images, so the committed value is always
// reachable regardless of where the owner stalls or crashes — no
// transaction ever waits on a peer. Conflicts are resolved by the
// aggressive contention manager of the simulated counterpart
// (internal/stm/dstm): on encountering an active owner, abort it with
// one CAS on its status word and move on.
type DSTM struct {
	loop
	vars []atomic.Pointer[locator]
	pool sync.Pool // recycled *dstmTxn scratch
}

var _ TM = (*DSTM)(nil)

const (
	dstmActive int32 = iota
	dstmCommitted
	dstmAborted
)

// dstmDesc is a transaction descriptor; its status word is the single
// linearization point for commit and for being aborted by others.
type dstmDesc struct {
	status atomic.Int32
}

// locator binds a variable to its owning transaction. oldVal is the
// committed value when the owner started; newVal is the tentative
// value, visible only once the owner's status is committed. Fields
// are immutable after publication except newVal, which only the
// active owner writes and others read only after observing the
// committed status (the status CAS orders the accesses).
type locator struct {
	owner  *dstmDesc
	oldVal int64
	newVal int64
}

// current resolves the committed value of a locator whose owner has
// the given status.
func (l *locator) current(status int32) int64 {
	if status == dstmCommitted {
		return l.newVal
	}
	return l.oldVal
}

// NewDSTM returns an instance with n t-variables initialized to 0.
func NewDSTM(n int) (*DSTM, error) {
	if err := checkVars(n); err != nil {
		return nil, err
	}
	t := &DSTM{vars: make([]atomic.Pointer[locator], n)}
	t.loop = loop{name: "native-dstm", vars: n, begin: t.begin}
	seed := &dstmDesc{}
	seed.status.Store(dstmCommitted)
	for i := range t.vars {
		t.vars[i].Store(&locator{owner: seed})
	}
	return t, nil
}

func (t *DSTM) begin() attempt {
	tx, _ := t.pool.Get().(*dstmTxn)
	if tx == nil {
		tx = &dstmTxn{tm: t}
	}
	// The descriptor cannot be recycled: settled locators keep pointing
	// at it forever, so reusing one would rewrite their resolution.
	tx.desc = &dstmDesc{}
	return tx
}

type dstmRead struct {
	i   int
	loc *locator
}

type dstmTxn struct {
	observedSlot
	tm    *DSTM
	desc  *dstmDesc
	reads []dstmRead
	owned writeLog[*locator] // variable -> this transaction's locator
	dead  bool
}

// recycle implements attempt: clear the logs, keep the capacity
// (the descriptor and locators stay behind — see begin).
func (tx *dstmTxn) recycle() {
	tx.reads = tx.reads[:0]
	tx.owned.reset()
	tx.dead = false
	tx.tm.pool.Put(tx)
}

// settle returns the variable's locator with its owner in a settled
// (non-active) state, aborting any other active owner on the way —
// the aggressive contention manager.
func (tx *dstmTxn) settle(i int) (*locator, int32) {
	for {
		loc := tx.tm.vars[i].Load()
		st := loc.owner.status.Load()
		if st == dstmActive && loc.owner != tx.desc {
			loc.owner.status.CompareAndSwap(dstmActive, dstmAborted)
			continue
		}
		return loc, st
	}
}

// validate checks that every recorded read still sees the locator it
// resolved (settled owners never change their resolution) and that
// this transaction has not been aborted by a peer. A variable this
// transaction re-acquired for writing is valid too: Write verified at
// acquisition that its locator displaced exactly the one read.
func (tx *dstmTxn) validate() bool {
	for _, r := range tx.reads {
		cur := tx.tm.vars[r.i].Load()
		if cur == r.loc {
			continue
		}
		if mine, ok := tx.owned.get(r.i); !ok || mine != cur {
			return false
		}
	}
	return tx.desc.status.Load() == dstmActive
}

func (tx *dstmTxn) Read(i int) (int64, error) {
	if tx.dead {
		return 0, ErrAborted
	}
	if i < 0 || i >= len(tx.tm.vars) {
		return 0, rangeErr(i)
	}
	if loc, mine := tx.owned.get(i); mine {
		return loc.newVal, nil
	}
	loc, st := tx.settle(i)
	if loc.owner == tx.desc {
		return loc.newVal, nil
	}
	v := loc.current(st)
	tx.reads = append(tx.reads, dstmRead{i: i, loc: loc})
	if !tx.validate() {
		tx.dead = true
		return 0, ErrAborted
	}
	return v, nil
}

func (tx *dstmTxn) Write(i int, v int64) error {
	if tx.dead {
		return ErrAborted
	}
	if i < 0 || i >= len(tx.tm.vars) {
		return rangeErr(i)
	}
	if loc, mine := tx.owned.get(i); mine {
		loc.newVal = v
		return nil
	}
	for {
		cur, st := tx.settle(i)
		nl := &locator{owner: tx.desc, oldVal: cur.current(st), newVal: v}
		if tx.tm.vars[i].CompareAndSwap(cur, nl) {
			tx.owned.put(i, nl)
			// A prior read of i must have seen exactly the locator we
			// displaced, or the read is stale.
			for _, r := range tx.reads {
				if r.i == i && r.loc != cur {
					tx.dead = true
					return ErrAborted
				}
			}
			if tx.desc.status.Load() != dstmActive {
				tx.dead = true
				return ErrAborted
			}
			return nil
		}
	}
}

func (tx *dstmTxn) abandon() {
	// Settle as aborted so retained locators resolve to their
	// pre-images forever.
	tx.desc.status.CompareAndSwap(dstmActive, dstmAborted)
}

func (tx *dstmTxn) commit() bool {
	if tx.dead {
		tx.abandon()
		return false
	}
	if !tx.validate() {
		tx.abandon()
		return false
	}
	return tx.desc.status.CompareAndSwap(dstmActive, dstmCommitted)
}
