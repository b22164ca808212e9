package native

import "sync"

// Mutex is the coarse-grained baseline: every transaction runs under
// one sync.Mutex. It never aborts.
type Mutex struct {
	counters
	mu   sync.Mutex
	vals []int64
}

var _ TM = (*Mutex)(nil)

// NewMutex returns an instance with n t-variables initialized to 0.
func NewMutex(n int) (*Mutex, error) {
	if err := checkVars(n); err != nil {
		return nil, err
	}
	return &Mutex{vals: make([]int64, n)}, nil
}

// Name implements TM.
func (m *Mutex) Name() string { return "native-mutex" }

// Vars implements TM.
func (m *Mutex) Vars() int { return len(m.vals) }

// Stats implements TM.
func (m *Mutex) Stats() Stats { return m.snapshot() }

// mutexTxn buffers writes so a body that returns an error (or
// declines to commit) leaves no effects, like every other algorithm.
type mutexTxn struct {
	observedSlot
	m      *Mutex
	writes map[int]int64
}

// Atomically implements TM.
func (m *Mutex) Atomically(fn func(Txn) error) error {
	return m.AtomicallyObserved(nil, fn)
}

// AtomicallyOpts implements ObservableTM. Mutex never retries, so the
// backoff policy is unused; the stop signal is honoured before the
// lock is taken (a transaction already under the lock completes).
func (m *Mutex) AtomicallyOpts(opts RunOpts, fn func(Txn) error) error {
	if opts.Stop != nil {
		select {
		case <-opts.Stop:
			return ErrStopped
		default:
		}
	}
	return m.AtomicallyObserved(opts.Observer, fn)
}

// AtomicallyObserved implements ObservableTM. The whole transaction —
// including the observer's commit callbacks — runs under the mutex, so
// observed events of different transactions never interleave.
func (m *Mutex) AtomicallyObserved(obs Observer, fn func(Txn) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &mutexTxn{m: m}
	if err := fn(tx.observed(obs, tx)); err != nil {
		if obs != nil {
			obs.Abandon()
		}
		return err
	}
	if obs != nil {
		obs.TryCommitInv()
	}
	for i, v := range tx.writes {
		m.vals[i] = v
	}
	m.commits.Add(1)
	if obs != nil {
		obs.TryCommitReturn(true)
	}
	return nil
}

func (tx *mutexTxn) Read(i int) (int64, error) {
	if v, ok := tx.writes[i]; ok {
		return v, nil
	}
	if i < 0 || i >= len(tx.m.vals) {
		return 0, rangeErr(i)
	}
	return tx.m.vals[i], nil
}

func (tx *mutexTxn) Write(i int, v int64) error {
	if i < 0 || i >= len(tx.m.vals) {
		return rangeErr(i)
	}
	if tx.writes == nil {
		tx.writes = make(map[int]int64)
	}
	tx.writes[i] = v
	return nil
}
