package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"livetm/internal/telemetry"
)

// The session API is the open-world counterpart of the closed batch
// Run: a Session is a long-lived native TM instance with a worker
// pool, and clients submit individual transactions while the instance
// serves — the shape of the paper's liveness statements, which are
// about processes that keep issuing transactions forever, not about a
// fixed Procs × OpsPerProc budget. A native Run is a thin wrapper over
// a Session (open → submit the budget → close), so the native
// substrate has exactly one execution core. Simulated engines run
// batches only: Sim.Run is its own deterministic loop.

// AnyWorker submits a transaction to whichever worker frees up first.
// Pinning to a specific worker instead fixes the transaction's process
// identity in the recorded history.
const AnyWorker = -1

// ErrClosed is returned by session operations after Close: the session
// is draining or gone, and the submission was not accepted.
var ErrClosed = errors.New("engine: session is closed")

// ErrStopped is the result of a submission the session could not
// execute because the live monitor stopped it mid-flight: the
// violation itself is returned by Close (wrapped around
// ErrLiveViolation).
var ErrStopped = errors.New("engine: session stopped by the live monitor")

// ErrOverloaded is returned by an asynchronous Submit when the target
// lane already holds SessionConfig.MaxQueue pending submissions: the
// submission was not accepted and the caller should back off and
// retry. Only Submit sees it — Exec blocks against QueueDepth instead
// of failing — so it is the signal a service layer turns into
// HTTP 429 + Retry-After.
var ErrOverloaded = errors.New("engine: submission queue full")

// Body is one client-submitted transaction: like TxBody but anonymous
// — a session transaction has no round number, and its process
// identity is whichever worker executes it. It must be idempotent
// across retries and must stop (return the error) when an operation
// fails.
type Body func(tx Tx) error

// Submitter is the transaction-submission surface of a Session — the
// four ways a client hands work to a TM instance, separated from the
// session's lifecycle methods (Drain, Stats, AddWorkers, Close) so a
// service layer can accept submissions through any intermediary: a
// *Session directly, a wire server fronting one, or a router fanning
// out over several. The contract is the Session one: Exec/ExecOn
// block for the commit result and feel QueueDepth backpressure;
// Submit/SubmitOn never block, invoke done (which must not block)
// exactly once per accepted submission, and fail fast with
// ErrOverloaded past MaxQueue.
type Submitter interface {
	// Exec submits one transaction to any worker and blocks until it
	// commits (nil), is declined (ErrNoCommit), or fails.
	Exec(ctx context.Context, body Body) error
	// ExecOn is Exec pinned to one worker (0-based); AnyWorker
	// restores Exec.
	ExecOn(ctx context.Context, worker int, body Body) error
	// Submit enqueues one transaction asynchronously; done (may be
	// nil) is invoked exactly once with the commit result.
	Submit(body Body, done func(error)) error
	// SubmitOn is Submit pinned to one worker (0-based).
	SubmitOn(worker int, body Body, done func(error)) error
}

// SessionConfig sizes a long-lived session.
type SessionConfig struct {
	// Engine is the registry name (e.g. "native-tl2") the package-level
	// Open resolves; NativeEngine.Open ignores it.
	Engine string
	// Workers is the size of the worker pool (>= 1): the session's
	// process count. Each worker executes submitted transactions one at
	// a time, so Workers bounds the transaction concurrency.
	Workers int
	// MaxWorkers provisions capacity for dynamic admission: AddWorkers
	// may grow the pool up to this many workers mid-session (recorder
	// logs, backoff slots and queue lanes are provisioned up front so
	// the record/monitor stream stays correct when the process count is
	// not fixed at Open). 0 means Workers — a fixed pool.
	MaxWorkers int
	// Vars is the number of t-variables (>= 1).
	Vars int
	// QueueDepth is the backpressure threshold of each submission lane
	// (the shared queue and each worker's pinned queue): Exec blocks
	// while its lane holds that many pending transactions.
	// Asynchronous Submit is exempt — it must never block because a
	// worker's result callback may be the submitter — so an unchecked
	// Submit flood grows the queue instead (bound it with MaxQueue). 0
	// defaults to 64.
	QueueDepth int
	// MaxQueue is the hard admission cap of each submission lane: an
	// asynchronous Submit whose target lane already holds this many
	// pending transactions is refused with ErrOverloaded instead of
	// growing the queue without bound. Unlike QueueDepth it never
	// blocks — refusal is immediate, which is what lets a worker's
	// result callback keep submitting safely and a service layer turn
	// the sentinel into HTTP 429. 0 means unbounded (the historical
	// behaviour).
	MaxQueue int
	// Record retains the session's history (see RunConfig.Record);
	// Session.History returns it after Close.
	Record bool
	// QuiesceEvery plants a quiescent cut in the recorded stream after
	// every QuiesceEvery × (admitted workers) completed transactions
	// (see RunConfig.QuiesceEvery): a brief session pause in which no
	// new transaction starts while the in-flight ones finish. Live
	// sessions treat 0 as the live default (4); pass -1 for no cuts.
	QuiesceEvery int
	// Live attaches the online monitor for the session's whole
	// lifetime: events stream into the checker while transactions
	// execute, a safety violation stops the session mid-flight
	// (outstanding submissions fail with ErrStopped and Close returns
	// ErrLiveViolation), and measured per-process starvation
	// continuously rebiases the retry-loop backoff.
	Live bool
	// Telemetry registers the session's instruments — submission and
	// commit counters, lane queue depths, Exec latency, cut pauses, the
	// native retry loop's per-algorithm transaction families, recorder
	// and checker telemetry, and (on live
	// sessions) the monitor's liveness-class, starvation and backoff-
	// bias gauges — in the given registry, where a /metrics scrape or a
	// flight recorder can read them mid-run without touching session
	// state. Nil keeps the session on bare (unregistered) instruments:
	// the Stats-backing counters cost exactly the same, and the clock-
	// involving extras (Exec latency, retry-latency and backoff-wait
	// histograms) are skipped entirely — the uninstrumented baseline
	// the telemetry-overhead benchmark compares against.
	Telemetry *telemetry.Registry
}

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.MaxWorkers < cfg.Workers {
		cfg.MaxWorkers = cfg.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	return cfg
}

func (cfg SessionConfig) validate() error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("engine: need a positive worker count, got %d", cfg.Workers)
	}
	if cfg.Vars <= 0 {
		return fmt.Errorf("engine: need a positive variable count, got %d", cfg.Vars)
	}
	if cfg.MaxQueue < 0 {
		return fmt.Errorf("engine: MaxQueue must be non-negative, got %d", cfg.MaxQueue)
	}
	if cfg.QuiesceEvery < 0 && !(cfg.Live && cfg.QuiesceEvery == -1) {
		return fmt.Errorf("engine: QuiesceEvery must be non-negative (or -1 on a live session), got %d", cfg.QuiesceEvery)
	}
	if cfg.QuiesceEvery > 0 && !cfg.Record && !cfg.Live {
		return fmt.Errorf("engine: QuiesceEvery only applies to recorded or live sessions")
	}
	return nil
}

// CutStats summarizes the latency of quiescent-cut pauses: how long
// the exclusive lock acquisition + release took, in nanoseconds, over
// Count cuts. Percentiles come from the session's fixed log-bucketed
// telemetry histograms (livetm_cut_pause_ns), so they cover the whole
// session at flat memory, with at most 1/4 relative bucket error (see
// internal/telemetry).
type CutStats struct {
	// Count is the number of cuts taken.
	Count uint64
	// P50ns and P99ns are the pause-latency percentiles in nanoseconds
	// (0 when no cuts were taken).
	P50ns int64
	P99ns int64
}

// SessionStats is a point-in-time snapshot of a session's counters,
// safe to take mid-flight from any goroutine.
type SessionStats struct {
	// Workers is the number of admitted workers at snapshot time.
	Workers int
	// Submitted and Completed count accepted submissions and finished
	// ones (committed, declined, or failed); the difference is the
	// in-flight plus queued load.
	Submitted uint64
	Completed uint64
	// Commits, Aborts and NoCommits mirror Stats: committed
	// transactions, aborted attempts, and declined (ErrNoCommit)
	// completions.
	Commits   uint64
	Aborts    uint64
	NoCommits uint64
	// PerWorkerCommits holds each admitted worker's commit count.
	PerWorkerCommits []uint64
	// Stopped reports that the live monitor stopped the session.
	Stopped bool
	// BackoffCap and BackoffBias mirror Stats (BackoffBias only on
	// live sessions, where the feedback runs).
	BackoffCap  int
	BackoffBias []int
	// RecorderChunks and Truncated mirror Stats on recording or live
	// sessions.
	RecorderChunks int
	Truncated      bool
	// CutLatency summarizes every quiescent cut the session forced
	// (Count 0 when the session takes no cuts).
	CutLatency CutStats
}

// AbortRate is Aborts / (Commits + Aborts), or 0 with no attempts.
func (s SessionStats) AbortRate() float64 {
	if s.Commits+s.Aborts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits+s.Aborts)
}

// A Session is the canonical Submitter.
var _ Submitter = (*Session)(nil)

// Name returns the engine name the session runs on.
func (s *Session) Name() string { return s.name }

// Exec submits one transaction to any worker and blocks until it
// commits (nil), is declined (ErrNoCommit), or fails. A done context
// abandons the wait — not the transaction, which still runs (or is
// still failed by Close) with nobody reading its result.
func (s *Session) Exec(ctx context.Context, body Body) error {
	return s.ExecOn(ctx, AnyWorker, body)
}

// execWaiter is what a blocked Exec waits on: the channel its result
// arrives on and the callback that delivers it, bound to each other
// once so a call costs neither.
type execWaiter struct {
	ch   chan error // buffered (1): the worker's send never blocks
	done func(error)
}

// waiters recycles execWaiters across Exec calls, on one rule: a waiter
// goes back only from the goroutine that received its result. Until
// that receive the waiter belongs to the worker that will send on it,
// so a wait abandoned by a done context leaves its waiter to the
// collector — put back, it could deliver the abandoned transaction's
// result to the next caller.
var waiters = sync.Pool{New: func() any {
	w := &execWaiter{ch: make(chan error, 1)}
	w.done = func(err error) { w.ch <- err }
	return w
}}

// ExecOn is Exec pinned to one worker (0-based), fixing the
// transaction's process identity; AnyWorker restores Exec. Pinned
// submissions to one worker execute in submission order.
//
// Where the transaction runs: a call whose ctx can never be done
// (ctx.Done() == nil, as for context.Background) and whose worker is
// idle, with nothing queued on its pinned lane or the shared one, runs
// the body on the calling goroutine as that worker — no hand-off, no
// wake-up. Every other call is queued for the
// worker's goroutine. A cancellable ctx always queues, because a done
// context abandons the wait, not the transaction: a transaction running
// on its caller could not be abandoned, and under a starvation
// adversary its retry loop may never end.
func (s *Session) ExecOn(ctx context.Context, worker int, body Body) error {
	w := waiters.Get().(*execWaiter)
	if err := s.submit(ctx, worker, body, w.done, true); err != nil {
		return err
	}
	select {
	case err := <-w.ch:
		waiters.Put(w)
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit enqueues one transaction asynchronously; done (may be nil) is
// invoked with the commit result on the executing worker's goroutine,
// so it must not block — submitting follow-up work with Submit is
// fine (Submit never blocks; only Exec feels QueueDepth backpressure,
// and Exec is therefore forbidden in callbacks).
func (s *Session) Submit(body Body, done func(error)) error {
	return s.SubmitOn(AnyWorker, body, done)
}

// SubmitOn is Submit pinned to one worker (0-based).
func (s *Session) SubmitOn(worker int, body Body, done func(error)) error {
	return s.submit(context.Background(), worker, body, done, false)
}

// watchCtx arranges wake to be called once if ctx ends before the
// returned stop function runs — the bridge for condition-variable
// waits, which cannot select on a context.
func watchCtx(ctx context.Context, wake func()) (stop func()) {
	d := ctx.Done()
	if d == nil {
		return func() {}
	}
	ch := make(chan struct{})
	go func() {
		select {
		case <-d:
			wake()
		case <-ch:
		}
	}()
	return func() { close(ch) }
}

// sessionJob is one accepted submission.
type sessionJob struct {
	body Body
	done func(error)
}

// jobRing is one submission lane: a FIFO of jobs in a circular buffer
// that doubles when full and is otherwise reused in place, so a lane in
// steady state allocates nothing. A popped slot is cleared: the lane
// must not keep a finished job's closures reachable.
type jobRing struct {
	buf  []sessionJob // length zero or a power of two
	head int          // slot of the oldest job
	n    int
}

func (r *jobRing) len() int { return r.n }

func (r *jobRing) push(j sessionJob) {
	if r.n == len(r.buf) {
		grown := make([]sessionJob, max(2*len(r.buf), 8))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = j
	r.n++
}

func (r *jobRing) pop() (sessionJob, bool) {
	if r.n == 0 {
		return sessionJob{}, false
	}
	j := r.buf[r.head]
	r.buf[r.head] = sessionJob{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return j, true
}

// lanes is a session's submission queues: one lane any worker serves
// and one pinned lane per worker slot, with the queue-depth gauges
// kept in step. The session's mutex guards it.
type lanes struct {
	shared jobRing
	pinned []jobRing
	met    *sessionMetrics
}

// depth is the number of jobs queued where a submission to worker
// (AnyWorker: the shared lane) would go.
func (l *lanes) depth(worker int) int {
	if worker == AnyWorker {
		return l.shared.len()
	}
	return l.pinned[worker].len()
}

func (l *lanes) push(worker int, j sessionJob) {
	if worker == AnyWorker {
		l.shared.push(j)
		l.met.queueShared.Add(1)
	} else {
		l.pinned[worker].push(j)
		l.met.queuePinned.Add(1)
	}
}

// take pops worker p's next job, alternating which lane it prefers on
// successive ticks: a worker whose pinned lane is kept permanently full
// must still serve the shared lane every other transaction, so
// AnyWorker submissions cannot starve behind pinned traffic (and vice
// versa).
func (l *lanes) take(p, tick int) (sessionJob, bool) {
	if tick%2 == 0 {
		if j, ok := l.takePinned(p); ok {
			return j, true
		}
		return l.takeShared()
	}
	if j, ok := l.takeShared(); ok {
		return j, true
	}
	return l.takePinned(p)
}

func (l *lanes) takePinned(p int) (sessionJob, bool) {
	j, ok := l.pinned[p].pop()
	if ok {
		l.met.queuePinned.Add(-1)
	}
	return j, ok
}

func (l *lanes) takeShared() (sessionJob, bool) {
	j, ok := l.shared.pop()
	if ok {
		l.met.queueShared.Add(-1)
	}
	return j, ok
}

// Open starts a session on the native engine named cfg.Engine (see
// Engines / Lookup). Each session owns a fresh TM instance; any number
// of sessions may be open concurrently. A simulated engine is refused:
// simulated engines run batches (Engine.Run), not sessions.
func Open(cfg SessionConfig) (*Session, error) {
	e, ok := Lookup(cfg.Engine)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q", cfg.Engine)
	}
	n, ok := e.(*NativeEngine)
	if !ok {
		return nil, fmt.Errorf("engine: %s is simulated, and simulated engines run batches (Engine.Run), not sessions", cfg.Engine)
	}
	return n.Open(cfg)
}
