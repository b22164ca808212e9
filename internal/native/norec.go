package native

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// NOrec is a NOrec-style STM: no per-variable metadata at all, one
// global sequence lock (even = stable, odd = a committer is writing
// back), and value-based validation — a reader revalidates its read
// log by value whenever the sequence number moves. Single-writer
// commit makes it the simplest of the scalable designs and the best
// fit for read-dominated workloads.
type NOrec struct {
	loop
	seq  atomic.Uint64
	_    [7]uint64
	vals []vcell
	pool sync.Pool // recycled *norecTxn scratch
}

var _ TM = (*NOrec)(nil)

// NewNOrec returns an instance with n t-variables initialized to 0.
func NewNOrec(n int) (*NOrec, error) {
	if err := checkVars(n); err != nil {
		return nil, err
	}
	t := &NOrec{vals: make([]vcell, n)}
	t.loop = loop{name: "native-norec", vars: n, begin: t.begin}
	return t, nil
}

func (t *NOrec) begin() attempt {
	tx, _ := t.pool.Get().(*norecTxn)
	if tx == nil {
		tx = &norecTxn{tm: t}
	}
	tx.snapshot = t.waitStable()
	return tx
}

// waitStable spins until the sequence lock is even and returns it.
func (t *NOrec) waitStable() uint64 {
	for {
		s := t.seq.Load()
		if s&1 == 0 {
			return s
		}
		runtime.Gosched()
	}
}

type norecRead struct {
	i int
	v int64
}

type norecTxn struct {
	observedSlot
	tm       *NOrec
	snapshot uint64
	reads    []norecRead
	writes   writeLog[int64]
	dead     bool
}

// recycle implements attempt: clear the logs, keep the capacity.
func (tx *norecTxn) recycle() {
	tx.reads = tx.reads[:0]
	tx.writes.reset()
	tx.dead = false
	tx.tm.pool.Put(tx)
}

// validate re-reads the log by value against a stable snapshot; it
// returns the snapshot under which the log was last consistent.
func (tx *norecTxn) validate() (uint64, bool) {
	for {
		s := tx.tm.waitStable()
		for _, r := range tx.reads {
			if tx.tm.vals[r.i].v.Load() != r.v {
				return 0, false
			}
		}
		if tx.tm.seq.Load() == s {
			return s, true
		}
	}
}

func (tx *norecTxn) Read(i int) (int64, error) {
	if tx.dead {
		return 0, ErrAborted
	}
	if v, ok := tx.writes.get(i); ok {
		return v, nil
	}
	if i < 0 || i >= len(tx.tm.vals) {
		return 0, rangeErr(i)
	}
	v := tx.tm.vals[i].v.Load()
	for tx.snapshot != tx.tm.seq.Load() {
		s, ok := tx.validate()
		if !ok {
			tx.dead = true
			return 0, ErrAborted
		}
		tx.snapshot = s
		v = tx.tm.vals[i].v.Load()
	}
	tx.reads = append(tx.reads, norecRead{i: i, v: v})
	return v, nil
}

func (tx *norecTxn) Write(i int, v int64) error {
	if tx.dead {
		return ErrAborted
	}
	if i < 0 || i >= len(tx.tm.vals) {
		return rangeErr(i)
	}
	tx.writes.put(i, v)
	return nil
}

func (tx *norecTxn) abandon() {}

func (tx *norecTxn) commit() bool {
	if tx.dead {
		return false
	}
	if tx.writes.len() == 0 {
		return true // read log validated on every snapshot move
	}
	for !tx.tm.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		s, ok := tx.validate()
		if !ok {
			return false
		}
		tx.snapshot = s
	}
	for _, e := range tx.writes.entries {
		tx.tm.vals[e.key].v.Store(e.val)
	}
	tx.tm.seq.Store(tx.snapshot + 2)
	return true
}
