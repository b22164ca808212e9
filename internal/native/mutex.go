package native

import "sync"

// Mutex is the coarse-grained baseline: every transaction runs under
// one sync.Mutex, taken when an attempt begins and released once the
// attempt's last observer event has fired, so observed events of
// different transactions never interleave. It never aborts on its own;
// a body's voluntary ErrAborted retries, as on every algorithm.
type Mutex struct {
	loop
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
	m.loop = loop{name: "native-mutex", vars: n, begin: m.begin}
	m.tx.m = m
	return m, nil
}

// begin takes the lock the attempt holds until recycle.
//
//lint:allow(lockorder) the attempt holds mu for its whole life: the retry loop's recycle releases it
func (m *Mutex) begin() attempt {
	m.mu.Lock()
	return &m.tx
}

// mutexTxn buffers writes so a body that returns an error (or
// declines to commit) leaves no effects, like every other algorithm.
// Transactions run one at a time, so the Mutex owns a single handle
// and resets its log per attempt.
type mutexTxn struct {
	observedSlot
	m      *Mutex
	writes writeLog[int64]
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

func (tx *mutexTxn) commit() bool {
	for _, e := range tx.writes.entries {
		tx.m.vals[e.key] = e.val
	}
	return true
}

func (tx *mutexTxn) abandon() {}

// recycle implements attempt: clear the log and end the attempt's
// hold on the lock.
func (tx *mutexTxn) recycle() {
	tx.writes.reset()
	tx.m.mu.Unlock()
}
