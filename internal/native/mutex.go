package native

import "sync"

// Mutex is the coarse-grained baseline: every transaction runs under
// one sync.Mutex. It never aborts.
type Mutex struct {
	counters
	mu   sync.Mutex
	vals []int64
	tx   mutexTxn // the one handle, used only under mu
}

var _ TM = (*Mutex)(nil)

// NewMutex returns an instance with n t-variables initialized to 0.
func NewMutex(n int) (*Mutex, error) {
	if err := checkVars(n); err != nil {
		return nil, err
	}
	m := &Mutex{vals: make([]int64, n)}
	m.tx.m = m
	return m, nil
}

// Name implements TM.
func (m *Mutex) Name() string { return "native-mutex" }

// Vars implements TM.
func (m *Mutex) Vars() int { return len(m.vals) }

// Stats implements TM.
func (m *Mutex) Stats() Stats { return m.snapshot() }

// mutexTxn buffers writes so a body that returns an error (or
// declines to commit) leaves no effects, like every other algorithm.
// Transactions run one at a time, so the Mutex owns a single handle
// and resets its log per transaction.
type mutexTxn struct {
	observedSlot
	m      *Mutex
	writes writeLog[int64]
}

// Atomically implements TM.
func (m *Mutex) Atomically(fn func(Txn) error) error {
	return m.AtomicallyOpts(RunOpts{}, fn)
}

// AtomicallyOpts implements TM. Mutex never retries, so the
// backoff policy is unused and a body error — ErrAborted included — is
// terminal; the stop signal is honoured before the lock is taken (a
// transaction already under the lock completes). Metrics count the
// start, the commit, an abandoning body error and a stop, as the
// shared retry loop does. The whole transaction — including the
// observer's commit callbacks — runs under the mutex, so observed
// events of different transactions never interleave.
func (m *Mutex) AtomicallyOpts(opts RunOpts, fn func(Txn) error) error {
	met := opts.Metrics
	if met != nil {
		met.Starts.Inc()
	}
	if opts.Stop != nil {
		select {
		case <-opts.Stop:
			if met != nil {
				met.AbortStopped.Inc()
			}
			return ErrStopped
		default:
		}
	}
	obs := opts.Observer
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &m.tx
	tx.writes.reset()
	if err := fn(tx.observed(obs, tx)); err != nil {
		if obs != nil {
			obs.Abandon()
		}
		if met != nil {
			met.AbortAbandoned.Inc()
		}
		return err
	}
	if obs != nil {
		obs.TryCommitInv()
	}
	for _, e := range tx.writes.entries {
		m.vals[e.key] = e.val
	}
	m.slots[0].commits.Add(1) // serialized by mu: one slot is enough
	if met != nil {
		met.Commits.Inc()
	}
	if obs != nil {
		obs.TryCommitReturn(true)
	}
	return nil
}

func (tx *mutexTxn) Read(i int) (int64, error) {
	if v, ok := tx.writes.get(i); ok {
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
	tx.writes.put(i, v)
	return nil
}
