package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"livetm/internal/model"
	"livetm/internal/telemetry"
)

// The session API is the open-world counterpart of the closed batch
// Run: a Session is a long-lived native TM instance with a worker
// pool, and clients submit individual transactions while the instance
// serves — the shape of the paper's liveness statements, which are
// about processes that keep issuing transactions forever, not about a
// fixed Procs × OpsPerProc budget. A native Run is a thin wrapper over
// a Session (open → ExecOn each process's rounds → close), so the native
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

// ErrOverloaded is returned by a submission whose lane already holds
// SessionConfig.MaxQueue pending jobs: the submission was not accepted
// and the caller should back off and retry. It is the signal a service
// layer turns into HTTP 429 + Retry-After.
var ErrOverloaded = errors.New("engine: submission queue full")

// ErrNotAdmitted is wrapped by a submission pinned to a worker the
// session has not admitted: the caller named a process that does not
// exist.
//
//lint:allow(wiresentinel) the server answers it as CodeBadRequest, which carries no sentinel back
var ErrNotAdmitted = errors.New("engine: worker not admitted")

// queueDepth is the backpressure threshold of each submission lane (the
// shared queue and each worker's pinned queue) on a session without
// MaxQueue: ExecOn waits while its lane holds that many pending jobs.
const queueDepth = 64

// Body is one client-submitted transaction: like TxBody but anonymous
// — a session transaction has no round number, and its process
// identity is whichever worker executes it. It must be idempotent
// across retries and must stop (return the error) when an operation
// fails.
type Body func(tx Tx) error

// Submitter is the blocking submission surface of a Session,
// separated from its lifecycle so that a service layer can depend on
// the capability: internal/server serves any Submitter on the wire.
type Submitter interface {
	// ExecOn submits one transaction to a worker (0-based, or
	// AnyWorker) and blocks until it commits (nil), is declined
	// (ErrNoCommit), or fails.
	ExecOn(ctx context.Context, worker int, body Body) error
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
	// MaxQueue is the admission cap of each submission lane: with
	// MaxQueue > 0 a submission (ExecOn or Begin) whose lane already
	// holds MaxQueue jobs is refused with ErrOverloaded at once, never
	// waiting. With 0, ExecOn waits while its lane holds 64 jobs and
	// Begin is unbounded.
	MaxQueue int
	// Record retains the session's history (see RunConfig.Record);
	// Session.History returns it after Close.
	Record bool
	// QuiesceEvery bounds, per admitted worker, the longest run of
	// transaction attempts a checked (Record or Live) session's stream
	// goes without a quiescent point, 0 meaning the default, 4. An
	// attempt that ends with no other in flight is such a point. Once
	// QuiesceEvery × (admitted workers) attempts — each one a
	// transaction of the recorded stream, so an abort storm counts too
	// — have ended without one, the session forces a cut: it pauses
	// while its in-flight attempts finish, planting a quiescent point in
	// the stream. A cut lands between attempts, never inside an attempt
	// or its backoff (see the package doc's "Interactive transactions
	// and cuts"). An unchecked session never cuts.
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
	// and checker telemetry, and (on live sessions) the monitor's
	// liveness-class, starvation and backoff-bias gauges, synced every
	// 256 observed events and once more at Close — in the given
	// registry, where a /metrics scrape or a flight recorder can read
	// them mid-run without touching session state. Nil keeps the
	// session on bare (unregistered) instruments: the Stats-backing
	// counters cost exactly the same, and the clock-involving extras
	// (Exec latency, retry-latency and backoff-wait histograms) are
	// skipped entirely — the uninstrumented baseline the
	// telemetry-overhead benchmark compares against.
	Telemetry *telemetry.Registry
}

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.MaxWorkers < cfg.Workers {
		cfg.MaxWorkers = cfg.Workers
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
	// Workers are processes 1..MaxWorkers of the recorded history, and
	// withDefaults has raised MaxWorkers to at least Workers.
	if cfg.MaxWorkers > model.MaxProc {
		return fmt.Errorf("engine: %d workers (MaxWorkers %d), above model.MaxProc (%d)", cfg.Workers, cfg.MaxWorkers, model.MaxProc)
	}
	if cfg.Vars > model.MaxTVar {
		return fmt.Errorf("engine: %d variables, above model.MaxTVar (%d)", cfg.Vars, model.MaxTVar)
	}
	if cfg.MaxQueue < 0 {
		return fmt.Errorf("engine: MaxQueue must be non-negative, got %d", cfg.MaxQueue)
	}
	if cfg.QuiesceEvery < 0 {
		return fmt.Errorf("engine: QuiesceEvery must be non-negative, got %d", cfg.QuiesceEvery)
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
// safe to take mid-flight from any goroutine. In every snapshot
// Commits + NoCommits ≤ Completed ≤ Submitted.
type SessionStats struct {
	// Workers is the number of admitted workers at snapshot time.
	Workers int
	// Submitted and Completed count accepted submissions and finished
	// ones (committed, declined, or failed); the difference is the
	// in-flight plus queued load.
	Submitted uint64
	Completed uint64
	// Commits and Aborts count committed transactions and aborted
	// attempts across all workers.
	Commits uint64
	Aborts  uint64
	// NoCommits counts completions a body finished with ErrNoCommit.
	NoCommits uint64
	// PerWorkerCommits holds each admitted worker's commit count.
	PerWorkerCommits []uint64
	// Stopped reports that the live monitor stopped the session
	// mid-flight; the commit counters then cover only the transactions
	// that completed before the stop.
	Stopped bool
	// BackoffBias is each worker's backoff bias: negative for workers
	// the starvation feedback favoured, positive for those it
	// penalized. Nil unless the session is live (no feedback runs).
	BackoffBias []int
	// RecorderChunks counts the event-buffer chunks the recorder
	// allocated. On a live session without Record it stays capped at
	// one reusable ring chunk per worker slot regardless of length.
	RecorderChunks int
	// Truncated reports that some worker hit the recorder's retained-
	// buffer cap: the history (and, on a Record+Live session, the live
	// verdict) covers a per-worker prefix, so verdicts are advisory.
	// Live-only sessions retain nothing and never truncate.
	Truncated bool
	// CutLatency summarizes every quiescent cut the session forced
	// (Count 0 when it forced none): the quiescent points its stream
	// reached by itself are not counted here.
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

// execWaiter is what a blocked ExecOn waits on: the channel its result
// arrives on and the callback that delivers it, bound to each other
// once so a call costs neither.
type execWaiter struct {
	ch   chan error // buffered (1): the worker's send never blocks
	done func(error)
}

// waiters recycles execWaiters across ExecOn calls, on one rule: a waiter
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

// ExecOn submits one transaction to worker (0-based, fixing the
// transaction's process identity; AnyWorker: whichever worker frees up
// first) and blocks until it commits (nil), is declined (ErrNoCommit),
// or fails. Pinned submissions to one worker execute in submission
// order. A done context abandons the wait — not the transaction, which
// still runs (or is still failed by Close) with nobody reading its
// result. A full lane refuses it or holds it back (see
// SessionConfig.MaxQueue).
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
	if err := s.submit(ctx, worker, sessionJob{body: body, done: w.done}); err != nil {
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

// sessionJob is one accepted submission. An interactive job (Begin)
// stays off the cut gate, since its body parks between operations for
// as long as its caller likes.
type sessionJob struct {
	body        Body
	done        func(error)
	interactive bool
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
