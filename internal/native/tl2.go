package native

import (
	"slices"
	"sync"
)

// TL2 is a TL2-style STM: global version clock, invisible
// reads validated against a read version, commit-time locking in
// stripe order over the shared striped lock table.
type TL2 struct {
	loop
	clock *versionClock
	table *stripeTable
	pool  sync.Pool // recycled *tl2Txn scratch
}

var _ TM = (*TL2)(nil)

// NewTL2 returns an instance with n t-variables initialized to 0.
func NewTL2(n int) (*TL2, error) {
	if err := checkVars(n); err != nil {
		return nil, err
	}
	t := &TL2{clock: &versionClock{}, table: newStripeTable(n)}
	t.loop = loop{name: "native-tl2", vars: n, begin: t.begin}
	return t, nil
}

func (t *TL2) begin() attempt {
	tx, _ := t.pool.Get().(*tl2Txn)
	if tx == nil {
		tx = &tl2Txn{tm: t}
	}
	tx.rv = t.clock.Sample()
	return tx
}

type tl2Txn struct {
	observedSlot
	tm     *TL2
	rv     uint64
	reads  []int // stripes read
	writes writeLog[int64]
	dead   bool
	// commit scratch, recycled with the rest: the distinct write
	// stripes in lock order, and pre[k], the word stripes[k] held
	// before this commit locked it.
	stripes []int
	pre     []uint64
}

// recycle implements attempt: clear the logs, keep the capacity.
func (tx *tl2Txn) recycle() {
	tx.reads = tx.reads[:0]
	tx.writes.reset()
	tx.stripes = tx.stripes[:0]
	tx.pre = tx.pre[:0]
	tx.dead = false
	tx.tm.pool.Put(tx)
}

func (tx *tl2Txn) Read(i int) (int64, error) {
	if tx.dead {
		return 0, ErrAborted
	}
	if v, ok := tx.writes.get(i); ok {
		return v, nil
	}
	tab := tx.tm.table
	if i < 0 || i >= len(tab.vals) {
		return 0, rangeErr(i)
	}
	l := tab.lock(i)
	w1 := l.load()
	if locked(w1) || version(w1) > tx.rv {
		tx.dead = true
		return 0, ErrAborted
	}
	v := tab.vals[i].v.Load()
	if l.load() != w1 {
		tx.dead = true
		return 0, ErrAborted
	}
	tx.reads = append(tx.reads, tab.stripe(i))
	return v, nil
}

func (tx *tl2Txn) Write(i int, v int64) error {
	if tx.dead {
		return ErrAborted
	}
	if i < 0 || i >= len(tx.tm.table.vals) {
		return rangeErr(i)
	}
	tx.writes.put(i, v)
	return nil
}

func (tx *tl2Txn) abandon() {}

// release restores the pre-lock word of every stripe locked so far.
func (tx *tl2Txn) release() {
	for k, w := range tx.pre {
		tx.tm.table.locks[tx.stripes[k]].unlock(w)
	}
}

func (tx *tl2Txn) commit() bool {
	if tx.dead {
		return false
	}
	if tx.writes.len() == 0 {
		return true // reads already validated against rv
	}
	tab := tx.tm.table

	// Distinct write stripes in ascending order (deadlock-free), built
	// in the transaction's pooled scratch.
	stripes := tx.stripes[:0]
	for _, e := range tx.writes.entries {
		stripes = append(stripes, tab.stripe(e.key))
	}
	slices.Sort(stripes)
	stripes = slices.Compact(stripes)
	tx.stripes = stripes

	for _, s := range stripes {
		w := tab.locks[s].load()
		if locked(w) || version(w) > tx.rv || !tab.locks[s].tryLock(w) {
			tx.release()
			return false
		}
		tx.pre = append(tx.pre, w)
	}
	for _, s := range tx.reads {
		if _, mine := slices.BinarySearch(stripes, s); mine {
			continue // validated at acquisition
		}
		w := tab.locks[s].load()
		if locked(w) || version(w) > tx.rv {
			tx.release()
			return false
		}
	}
	wv := tx.tm.clock.Tick()
	for _, e := range tx.writes.entries {
		tab.vals[e.key].v.Store(e.val)
	}
	for _, s := range stripes {
		tab.locks[s].unlock(versionWord(wv))
	}
	return true
}
