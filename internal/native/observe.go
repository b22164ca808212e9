package native

// Observer receives the linearization-point callbacks of one process's
// transactions. Invocation callbacks fire immediately before the
// operation runs and return callbacks immediately after it returns, so
// an observer that timestamps both sides brackets the operation's real
// duration: any precedence visible in the resulting stamps is genuine
// real-time precedence, which keeps the safety checkers sound on the
// recorded history.
//
// All calls for one Observer are made on a single goroutine (the
// process's), with no additional synchronization. Implementations must
// be cheap — they sit on the transactional hot path. The handle an
// observed body runs on is part of the attempt's recycled scratch (see
// Txn): an observer, like a body, must not keep it past the call.
type Observer interface {
	// ReadInv fires before variable i is read.
	ReadInv(i int)
	// ReadReturn fires after the read returns v, or aborts.
	ReadReturn(i int, v int64, aborted bool)
	// WriteInv fires before v is buffered into variable i.
	WriteInv(i int, v int64)
	// WriteReturn fires after the write returns, or aborts.
	WriteReturn(i int, v int64, aborted bool)
	// TryCommitInv fires before the attempt tries to commit.
	TryCommitInv()
	// TryCommitReturn fires with the commit outcome.
	TryCommitReturn(committed bool)
	// Abandon fires when an attempt ends without a tryCommit because
	// the body returned a non-abort error (including the engine's
	// declined-to-commit sentinel). The native TM discards the
	// attempt's buffers and releases its resources, which a history
	// recorder reports as an abort event.
	Abandon()
}

// AtomicallyObserved runs fn on tm like TM.Atomically while reporting
// linearization-point events to obs.
func AtomicallyObserved(tm TM, obs Observer, fn func(Txn) error) error {
	return tm.AtomicallyOpts(RunOpts{Observer: obs}, fn)
}

// observedTxn reports every operation of the wrapped handle to the
// observer, bracketing the inner call with the invocation/return pair.
type observedTxn struct {
	tx  Txn
	obs Observer
}

func (o *observedTxn) Read(i int) (int64, error) {
	o.obs.ReadInv(i)
	v, err := o.tx.Read(i)
	o.obs.ReadReturn(i, v, err != nil)
	return v, err
}

func (o *observedTxn) Write(i int, v int64) error {
	o.obs.WriteInv(i, v)
	err := o.tx.Write(i, v)
	o.obs.WriteReturn(i, v, err != nil)
	return err
}

// observedSlot is embedded by every attempt: the handle an observed
// body is given lives inside the attempt's own allocation — pooled with
// it where the attempt is — so observing costs no object per attempt.
type observedSlot struct{ o observedTxn }

// observed returns the handle the body runs on: tx itself without an
// observer, else the slot's wrapper around it. tx must be the attempt
// embedding the slot; the handle dies with it (see Txn).
func (s *observedSlot) observed(obs Observer, tx Txn) Txn {
	if obs == nil {
		return tx
	}
	s.o = observedTxn{tx: tx, obs: obs}
	return &s.o
}
