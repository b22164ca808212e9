package native

import "sync"

// TinySTM is a TinySTM-style STM: encounter-time locking on the
// shared stripe table (a writer owns its stripes from first write to
// commit), write-back buffering, and timestamp extension — a read
// that sees a version newer than the read timestamp revalidates the
// read set and slides the timestamp forward instead of aborting.
type TinySTM struct {
	loop
	clock *versionClock
	table *stripeTable
	pool  sync.Pool // recycled *tinyTxn scratch
}

var _ TM = (*TinySTM)(nil)

// NewTinySTM returns an instance with n t-variables initialized to 0.
func NewTinySTM(n int) (*TinySTM, error) {
	if err := checkVars(n); err != nil {
		return nil, err
	}
	t := &TinySTM{clock: &versionClock{}, table: newStripeTable(n)}
	t.loop = loop{name: "native-tinystm", vars: n, begin: t.begin}
	return t, nil
}

func (t *TinySTM) begin() attempt {
	tx, _ := t.pool.Get().(*tinyTxn)
	if tx == nil {
		tx = &tinyTxn{tm: t}
	}
	tx.rv = t.clock.Sample()
	return tx
}

type tinyRead struct {
	stripe int
	ver    uint64
}

type tinyTxn struct {
	observedSlot
	tm     *TinySTM
	rv     uint64
	reads  []tinyRead
	writes writeLog[int64]
	owned  writeLog[uint64] // stripe -> pre-lock word
	dead   bool
}

// recycle implements attempt: clear the logs, keep the capacity.
func (tx *tinyTxn) recycle() {
	tx.reads = tx.reads[:0]
	tx.writes.reset()
	tx.owned.reset()
	tx.dead = false
	tx.tm.pool.Put(tx)
}

// validateReads checks that every read's observed stripe version is
// still current (exact match: a newer version means the read is
// stale even if it fits under a fresher timestamp).
func (tx *tinyTxn) validateReads() bool {
	for _, r := range tx.reads {
		if pre, mine := tx.owned.get(r.stripe); mine {
			if version(pre) != r.ver {
				return false
			}
			continue
		}
		w := tx.tm.table.locks[r.stripe].load()
		if locked(w) || version(w) != r.ver {
			return false
		}
	}
	return true
}

// extend tries to slide the read timestamp forward past a version
// that postdates rv: sample a fresh timestamp, then prove every prior
// read is still current under it.
func (tx *tinyTxn) extend() bool {
	rv := tx.tm.clock.Sample()
	if !tx.validateReads() {
		return false
	}
	tx.rv = rv
	return true
}

func (tx *tinyTxn) abort() error {
	tx.dead = true
	tx.releaseOwned()
	return ErrAborted
}

func (tx *tinyTxn) releaseOwned() {
	for _, e := range tx.owned.entries {
		tx.tm.table.locks[e.key].unlock(e.val)
	}
	tx.owned.reset()
}

func (tx *tinyTxn) Read(i int) (int64, error) {
	if tx.dead {
		return 0, ErrAborted
	}
	tab := tx.tm.table
	if i < 0 || i >= len(tab.vals) {
		return 0, rangeErr(i)
	}
	s := tab.stripe(i)
	if pre, mine := tx.owned.get(s); mine {
		// Every write owns its stripe first, so only an owned stripe
		// can hold a buffered value.
		if v, ok := tx.writes.get(i); ok {
			return v, nil
		}
		// The stripe is locked by this transaction: the cell holds
		// the committed value (write-back) and cannot move.
		v := tab.vals[i].v.Load()
		tx.reads = append(tx.reads, tinyRead{stripe: s, ver: version(pre)})
		return v, nil
	}
	for tries := 0; ; tries++ {
		w1 := tab.locks[s].load()
		if locked(w1) {
			return 0, tx.abort() // encounter conflict: abort self
		}
		if version(w1) > tx.rv {
			if tries >= 2 || !tx.extend() {
				return 0, tx.abort()
			}
			continue
		}
		v := tab.vals[i].v.Load()
		if tab.locks[s].load() != w1 {
			return 0, tx.abort()
		}
		tx.reads = append(tx.reads, tinyRead{stripe: s, ver: version(w1)})
		return v, nil
	}
}

func (tx *tinyTxn) Write(i int, v int64) error {
	if tx.dead {
		return ErrAborted
	}
	tab := tx.tm.table
	if i < 0 || i >= len(tab.vals) {
		return rangeErr(i)
	}
	s := tab.stripe(i)
	if _, mine := tx.owned.get(s); mine {
		tx.writes.put(i, v)
		return nil
	}
	for tries := 0; ; tries++ {
		w := tab.locks[s].load()
		if locked(w) {
			return tx.abort() // encounter conflict: abort self
		}
		if version(w) > tx.rv {
			if tries >= 2 || !tx.extend() {
				return tx.abort()
			}
			continue
		}
		if !tab.locks[s].tryLock(w) {
			return tx.abort()
		}
		tx.owned.put(s, w)
		tx.writes.put(i, v)
		return nil
	}
}

func (tx *tinyTxn) abandon() {
	if !tx.dead {
		tx.releaseOwned()
	}
}

func (tx *tinyTxn) commit() bool {
	if tx.dead {
		return false
	}
	if tx.writes.len() == 0 {
		return true // reads were validated incrementally
	}
	if !tx.validateReads() {
		tx.releaseOwned()
		return false
	}
	tab := tx.tm.table
	wv := tx.tm.clock.Tick()
	for _, e := range tx.writes.entries {
		tab.vals[e.key].v.Store(e.val)
	}
	for _, e := range tx.owned.entries {
		tab.locks[e.key].unlock(versionWord(wv))
	}
	tx.owned.reset()
	return true
}
