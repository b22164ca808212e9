package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrAbandoned is the terminal result of an abandoned interactive
// transaction. It is deliberately not ErrAborted: the native retry loop
// treats any other body error as terminal, tears the attempt down
// (releasing whatever it holds) and reports the error as the
// submission's result — exactly the teardown an abandon wants.
var ErrAbandoned = errors.New("engine: interactive transaction abandoned")

// ErrTxDone is what an operation on an interactive transaction that
// already committed returns.
//
//lint:allow(wiresentinel) the server answers it as CodeNotFound, which also covers ids it never issued, so the code decodes to no sentinel
var ErrTxDone = errors.New("engine: interactive transaction already finished")

// Interactive is one interactive transaction: a submission whose body
// parks on its worker between operations, so that a caller outside the
// worker — a wire handler, an adversary driver — issues the operations
// one at a time while the transaction stays open. The native retry loop
// re-enters the body after every abort, so one Interactive spans many
// attempts: an aborted operation leaves the transaction open and the
// next operation lands on the fresh attempt. Operations are serialized;
// all methods are safe for concurrent use.
type Interactive struct {
	calls   chan txCall   // caller → body, one operation at a time
	replies chan txReply  // body → caller; cap 1, so the body never blocks
	entered chan struct{} // cap 1: pulsed at each body entry
	attempt atomic.Int64

	abandon     chan struct{}
	abandonOnce sync.Once

	complete chan struct{} // closed once the submission finished
	result   error         // the terminal result, set before complete closes

	mu sync.Mutex // one operation at a time
}

type txOp int

const (
	txRead txOp = iota
	txWrite
	txCommit
	txNoCommit
)

type txCall struct {
	op  txOp
	i   int
	val int64
}

// txReply is the body's answer: the value read, the attempt that served
// the operation, and the operation's error, after which the attempt is
// over and the retry loop re-enters the body.
type txReply struct {
	val     int64
	attempt int64
	err     error
}

// Begin opens an interactive transaction pinned to worker (AnyWorker:
// whichever worker frees up first). It never blocks, and is refused
// with ErrOverloaded when its lane holds MaxQueue jobs (see
// SessionConfig.MaxQueue). done (may be nil) is called
// once, on the worker, with the transaction's terminal result — nil for
// a commit, ErrNoCommit, ErrAbandoned, or the error that ended it — and
// must not block. The transaction holds its worker until it finishes, so
// Close and Drain wait for it: abandon what is still open first.
func (s *Session) Begin(worker int, done func(error)) (*Interactive, error) {
	t := &Interactive{
		calls:    make(chan txCall),
		replies:  make(chan txReply, 1),
		entered:  make(chan struct{}, 1),
		abandon:  make(chan struct{}),
		complete: make(chan struct{}),
	}
	err := s.submit(context.Background(), worker, sessionJob{body: t.body, done: func(res error) {
		t.result = res
		close(t.complete)
		if done != nil {
			done(res)
		}
	}, interactive: true})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// body is the submitted transaction body. Every entry is one attempt:
// count it, pulse entered, then serve operations until one fails
// (return its error: the retry loop re-enters on an abort), a commit
// hands the attempt to the commit path, a nocommit declines the round,
// or an abandon tears the transaction down.
func (t *Interactive) body(tx Tx) error {
	t.attempt.Add(1)
	select {
	case t.entered <- struct{}{}:
	default:
	}
	for {
		select {
		case <-t.abandon:
			return ErrAbandoned
		case c := <-t.calls:
			r := txReply{attempt: t.attempt.Load()}
			switch c.op {
			case txRead:
				r.val, r.err = tx.Read(c.i)
			case txWrite:
				r.err = tx.Write(c.i, c.val)
			}
			t.replies <- r
			switch {
			case r.err != nil:
				return r.err
			case c.op == txCommit:
				return nil
			case c.op == txNoCommit:
				return ErrNoCommit
			}
		}
	}
}

// call hands one operation to the parked body and returns its reply.
// over reports that the transaction finished first; a done ctx gives up
// only while the body has not taken the operation.
func (t *Interactive) call(ctx context.Context, c txCall) (r txReply, over bool, err error) {
	select {
	case t.calls <- c:
	case <-t.complete:
		return r, true, nil
	case <-ctx.Done():
		return r, false, ctx.Err()
	}
	select {
	case r = <-t.replies:
		return r, false, nil
	case <-t.complete:
		return r, true, nil
	}
}

// op runs a read or a write: the body's reply, or ctx's error, or —
// when the transaction is over — its terminal result (ErrTxDone after
// a commit).
func (t *Interactive) op(ctx context.Context, c txCall) (txReply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, over, err := t.call(ctx, c)
	if over && t.result == nil {
		return r, ErrTxDone
	} else if over {
		return r, t.result
	}
	return r, err
}

// Read reads variable i in the open attempt. aborted reports that the
// attempt ended on the read; the transaction stays open, and the next
// operation starts a fresh attempt. err is ctx's error, or the
// transaction's terminal result if it is over (ErrTxDone after a
// commit).
func (t *Interactive) Read(ctx context.Context, i int) (val int64, aborted bool, err error) {
	r, err := t.op(ctx, txCall{op: txRead, i: i})
	return r.val, r.err != nil, err
}

// Write buffers v into variable i; aborted and err as for Read.
func (t *Interactive) Write(ctx context.Context, i int, v int64) (aborted bool, err error) {
	r, err := t.op(ctx, txCall{op: txWrite, i: i, val: v})
	return r.err != nil, err
}

// Finish hands the open attempt to the commit path (commit) or declines
// the transaction (ErrNoCommit). retrying reports that the commit
// aborted and the retry loop re-entered the body: the transaction is
// open again. Otherwise err is the transaction's terminal result — nil
// for a commit — or ctx's error.
func (t *Interactive) Finish(ctx context.Context, commit bool) (retrying bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A pending pulse belongs to an entry before this finish: clear it,
	// so that the next one can only come from the retry loop.
	select {
	case <-t.entered:
	default:
	}
	op := txNoCommit
	if commit {
		op = txCommit
	}
	r, over, err := t.call(ctx, txCall{op: op})
	if over {
		return false, t.result
	}
	if err != nil {
		return false, err
	}
	// The body returned; the worker is committing (or completing the
	// declined round). Either the submission finishes, or the retry
	// loop re-enters the body: an entry with a higher attempt number
	// means the commit aborted.
	for {
		select {
		case <-t.complete:
			return false, t.result
		case <-t.entered:
			if t.attempt.Load() > r.attempt {
				return true, nil
			}
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// Abandon requests teardown without waiting: the body returns
// ErrAbandoned at its next park, releasing whatever the open attempt
// holds. Idempotent; Wait observes the end.
func (t *Interactive) Abandon() {
	t.abandonOnce.Do(func() { close(t.abandon) })
}

// Wait blocks until the transaction is over and returns its terminal
// result (nil for a commit), or ctx's error.
func (t *Interactive) Wait(ctx context.Context) error {
	select {
	case <-t.complete:
		return t.result
	case <-ctx.Done():
		return ctx.Err()
	}
}
