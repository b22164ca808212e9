// Package native provides the real-concurrency counterparts to the
// simulated STMs: five transactional-memory algorithms built on
// sync/atomic and driven by real goroutines on real cores. It exists
// for the paper's footnote-1 argument — resilient (nonblocking) TMs
// are motivated by scalability on real parallel hardware — which the
// cooperative simulator cannot measure.
//
// The algorithms mirror the simulated registry (internal/stm/...):
//
//   - TL2: global-clock, invisible reads, commit-time locking.
//   - NOrec: single global sequence lock, value-based validation.
//   - TinySTM: encounter-time locking with timestamp extension.
//   - DSTM: obstruction-free per-variable ownership records with an
//     aggressive (abort-other) contention manager.
//   - Mutex: the coarse-grained blocking baseline.
//
// Every algorithm runs in one retry/backoff loop (runAtomically,
// below), which it embeds with its name, variable count and
// commit/abort statistics; an algorithm supplies only begin and the
// attempt it returns. The loop is the one place that knows where an
// attempt begins and ends, so a caller's Gate (RunOpts.Gate) brackets
// every attempt: Enter before begin, Leave once the attempt has
// released everything it held — the Mutex's lock included — and
// before any backoff. The lock-based algorithms also share a striped
// versioned-lock table (power-of-two stripes, see stripes.go) and
// TL2's single-word global version clock (see clock.go). Commits and
// aborts land in padded per-slot words picked by the attempt's
// address, and Stats sums the slots, so counting a commit adds to no
// word every core shares.
//
// No transaction runs on a Go map. Every algorithm keeps its write
// set — buffered values, TinySTM's owned stripes, DSTM's own locators —
// in one pooled writeLog (writelog.go): entries in first-write order,
// found by a linear scan while the log is short and through an index
// built on demand once it is not. TL2 sorts its distinct write stripes
// into a slice for the commit-time lock order.
//
// The simulated STMs remain the vehicles for the liveness
// experiments; this package is deliberately minimal — a fixed
// t-variable set, int64 values, and a retry-loop API — and is driven
// through the unified engine API (internal/engine) alongside them.
// Engine bodies run on this package's handles: engine.Tx is Txn and
// engine.ErrAborted is ErrAborted, so an engine body is a retry-loop
// body with no adapter between them.
package native

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"
)

// ErrAborted is returned by transaction operations when the current
// attempt must be retried. Atomically handles it internally; bodies
// only see it if they inspect operation errors.
var ErrAborted = errors.New("native: transaction aborted")

// ErrStopped is returned by AtomicallyOpts when RunOpts.Gate refused
// an attempt: the run is being torn down (e.g. the live monitor
// detected a safety violation) and the transaction will not retry.
var ErrStopped = errors.New("native: run stopped")

// TM is a transactional memory over a fixed array of int64
// t-variables.
type TM interface {
	// Name identifies the implementation.
	Name() string
	// Atomically runs fn as a transaction, retrying on aborts until
	// it commits. fn must be idempotent across retries and must stop
	// (return) when an operation reports an error. A non-abort error
	// from fn is returned without committing.
	Atomically(fn func(Txn) error) error
	// Vars returns the number of t-variables.
	Vars() int
	// Stats returns the cumulative commit/abort counters.
	Stats() Stats
	// AtomicallyOpts is Atomically under the given RunOpts: observed
	// at its linearization points, every attempt bracketed by the
	// gate (cancellable between attempts, returning ErrStopped), and
	// backing off under the supplied policy. A zero RunOpts is plain
	// Atomically.
	AtomicallyOpts(opts RunOpts, fn func(Txn) error) error
}

// Txn is the per-attempt handle. It is valid only inside the call of
// the body it was passed to: the attempt behind it — and, on an
// observed run, the wrapper that reports its operations — is scratch
// the retry loop recycles as soon as the attempt ends, so a handle kept
// past that call may already be serving another transaction.
type Txn interface {
	// Read returns the value of variable i, or ErrAborted.
	Read(i int) (int64, error)
	// Write buffers v into variable i, or returns ErrAborted.
	Write(i int, v int64) error
}

// Stats is a snapshot of a TM's cumulative counters.
type Stats struct {
	// Commits counts committed transactions.
	Commits uint64
	// Aborts counts aborted attempts (each retry is one abort).
	Aborts uint64
}

// AbortRate is Aborts / (Commits + Aborts), or 0 with no attempts.
func (s Stats) AbortRate() float64 {
	if s.Commits+s.Aborts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits+s.Aborts)
}

// --- the retry loop ---

// attempt is the single-attempt contract each algorithm implements
// behind the retry loop.
type attempt interface {
	Txn
	// observed returns the handle the body runs on (observedSlot).
	observed(obs Observer, tx Txn) Txn
	// commit tries to make the attempt's effects visible; false means
	// the attempt lost a conflict and the transaction retries.
	commit() bool
	// abandon releases any per-attempt resources (encounter-time
	// locks, ownership records) after an abort, a body error, or a
	// failed commit. It must be idempotent: the retry loop calls it
	// on every non-committed attempt, including after commit() has
	// cleaned up its own failure.
	abandon()
	// recycle hands the ended attempt back once its last observer event
	// has fired: its scratch — read logs, write logs, lock-order
	// buffers — returns to the TM's pool, so the next begin() is served
	// from the same allocation instead of growing per-transaction
	// garbage (the budget TestAllocBudgetPerCommit asserts), and what
	// it held for its whole life (the Mutex's lock) is released. The
	// attempt must not be touched afterwards: the same allocation may
	// already be serving another worker's begin().
	recycle()
}

// loop is embedded by every TM: its name and variable count, its
// commit and abort counters, and the begin that starts one of its
// attempts. It implements the TM methods on top of runAtomically, so
// an algorithm supplies only begin and the attempt behind it.
type loop struct {
	name  string
	vars  int
	begin func() attempt
	counters
}

// Name implements TM.
func (l *loop) Name() string { return l.name }

// Vars implements TM.
func (l *loop) Vars() int { return l.vars }

// Stats implements TM.
func (l *loop) Stats() Stats { return l.snapshot() }

// Atomically implements TM.
func (l *loop) Atomically(fn func(Txn) error) error { return l.runAtomically(RunOpts{}, fn) }

// AtomicallyOpts implements TM.
func (l *loop) AtomicallyOpts(opts RunOpts, fn func(Txn) error) error {
	return l.runAtomically(opts, fn)
}

// counters is embedded by the loop: commit and abort counts striped
// over cache-line-sized slots. An attempt counts into the slot shardOf
// picks for it, so concurrent committers add to different lines
// instead of one shared word.
type counters struct {
	slots [counterSlots]counterSlot
}

// counterSlots is a power of two.
const counterSlots = 8

type counterSlot struct {
	commits atomic.Uint64
	aborts  atomic.Uint64
	_       [6]uint64
}

// slot returns the counters an attempt counts into.
func (c *counters) slot(tx any) *counterSlot { return &c.slots[shardOf(tx)] }

// shardOf derives a counter slot from an attempt's heap address, a
// zero-contention stand-in for a CPU id: concurrent committers live at
// different addresses and so spread across slots, without a shared
// round-robin counter reintroducing the hot spot.
func shardOf(tx any) int {
	return int(reflect.ValueOf(tx).Pointer()>>5) & (counterSlots - 1)
}

// snapshot sums the slots. Each sum is monotone and exact once the
// counted transactions have returned; concurrent ones may be in or out.
func (c *counters) snapshot() Stats {
	var s Stats
	for i := range c.slots {
		s.Commits += c.slots[i].commits.Load()
		s.Aborts += c.slots[i].aborts.Load()
	}
	return s
}

// Gate brackets every attempt of a retry loop: the caller's hook at the
// two points where the attempt holds nothing of the TM's.
type Gate interface {
	// Enter runs before an attempt begins. Returning false ends the
	// loop with ErrStopped: no attempt begins and no event is observed.
	Enter() bool
	// Leave runs after an attempt that Enter admitted has ended and
	// released everything it held — its last observer event fired —
	// and before any backoff.
	Leave()
}

// RunOpts configures one execution of the retry loop beyond plain
// Atomically. The zero value is plain Atomically.
type RunOpts struct {
	// Observer receives the linearization-point callbacks (nil: none).
	Observer Observer
	// Gate, when non-nil, brackets every attempt; its Enter refusing
	// cancels the loop with ErrStopped. A committed attempt is never
	// undone — a refusal takes effect between attempts only.
	Gate Gate
	// Backoff is the retry-backoff policy (nil: the package default,
	// with no bias).
	Backoff *Backoff
	// Proc is the zero-based process index selecting the caller's bias
	// in the Backoff policy.
	Proc int
	// Metrics, when non-nil, receives the retry-loop telemetry
	// (starts, commits, aborts by cause, retry latency, backoff
	// waits). All bundle fields must be set; see NewTxMetrics.
	Metrics *TxMetrics
}

// runAtomically is the retry/backoff loop of every algorithm, and the
// one place that knows where an attempt begins and ends: pass the
// gate, begin an attempt, run the body, commit or give the attempt up,
// recycle it, leave the gate, and return or back off and retry. With a
// non-nil observer, every operation return and attempt outcome is
// reported at its linearization point — these are the instrumentation
// hooks behind TM.AtomicallyOpts.
func (l *loop) runAtomically(opts RunOpts, fn func(Txn) error) error {
	obs, g, m := opts.Observer, opts.Gate, opts.Metrics
	bo := opts.Backoff
	if bo == nil {
		bo = defaultBackoff
	}
	if m != nil {
		m.Starts.Inc()
	}
	// retryStart stamps the first abort so a retried transaction's
	// eventual commit can report its retry latency. First-try commits
	// never read the clock.
	var retryStart time.Time
	for round := 0; ; round++ {
		if g != nil && !g.Enter() {
			if m != nil {
				m.AbortStopped.Inc()
			}
			return ErrStopped
		}
		tx := l.begin()
		err := fn(tx.observed(obs, tx))
		ends := true // the transaction ends with this attempt
		if err == nil {
			if obs != nil {
				obs.TryCommitInv()
			}
			committed := tx.commit()
			if obs != nil {
				obs.TryCommitReturn(committed)
			}
			if committed {
				l.slot(tx).commits.Add(1)
				if m != nil {
					m.Commits.Inc()
					if round > 0 {
						m.RetryLatency.Observe(time.Since(retryStart).Nanoseconds())
					}
				}
			} else {
				// A failed commit already cleans up after itself, but
				// abandon is idempotent and closing the loop here keeps
				// resource release off each algorithm's commit path as
				// an undocumented obligation.
				tx.abandon()
				ends = false
				if m != nil {
					m.AbortConflict.Inc()
				}
			}
		} else {
			// The body gave the attempt up: with a terminal error, or
			// with ErrAborted, possibly of its own accord, with no
			// operation having aborted. The observer must still see the
			// attempt end or a retry's events would merge into the same
			// recorded transaction. Abandon is a no-op when an
			// operation-level abort already closed it.
			tx.abandon()
			if obs != nil {
				obs.Abandon()
			}
			ends = !errors.Is(err, ErrAborted)
			if m != nil && ends {
				m.AbortAbandoned.Inc()
			} else if m != nil {
				m.AbortOperation.Inc()
			}
		}
		if !ends {
			l.slot(tx).aborts.Add(1)
		}
		tx.recycle()
		if g != nil {
			g.Leave()
		}
		if ends {
			return err
		}
		if m != nil {
			m.Retries.Inc()
			if round == 0 {
				retryStart = time.Now()
			}
			waitStart := time.Now()
			bo.wait(opts.Proc, round)
			m.BackoffWait.Observe(time.Since(waitStart).Nanoseconds())
		} else {
			bo.wait(opts.Proc, round)
		}
	}
}

// spinHint is a compiler-opaque no-op so the backoff loop is not
// optimized away.
//
//go:noinline
func spinHint() {}

func checkVars(n int) error {
	if n <= 0 {
		return fmt.Errorf("native: need a positive variable count, got %d", n)
	}
	return nil
}

func rangeErr(i int) error {
	return fmt.Errorf("native: variable %d out of range", i)
}

// --- registry ---

// Info describes a registered native algorithm.
type Info struct {
	// Name is the report name ("native-" prefix).
	Name string
	// Nonblocking reports whether the algorithm is obstruction-free
	// (no transaction ever waits on a stalled peer).
	Nonblocking bool
	// New creates an instance with n t-variables initialized to 0.
	New func(n int) (TM, error)
}

// Algorithms returns the registered native TMs in report order.
func Algorithms() []Info {
	return []Info{
		{Name: "native-mutex", Nonblocking: false, New: func(n int) (TM, error) { return NewMutex(n) }},
		{Name: "native-tl2", Nonblocking: false, New: func(n int) (TM, error) { return NewTL2(n) }},
		{Name: "native-norec", Nonblocking: false, New: func(n int) (TM, error) { return NewNOrec(n) }},
		{Name: "native-tinystm", Nonblocking: false, New: func(n int) (TM, error) { return NewTinySTM(n) }},
		{Name: "native-dstm", Nonblocking: true, New: func(n int) (TM, error) { return NewDSTM(n) }},
	}
}

// New creates the named algorithm with n t-variables, or errors on an
// unknown name.
func New(name string, n int) (TM, error) {
	for _, info := range Algorithms() {
		if info.Name == name {
			return info.New(n)
		}
	}
	return nil, fmt.Errorf("native: unknown algorithm %q", name)
}
