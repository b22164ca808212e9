package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/telemetry"
)

// The session API is the open-world counterpart of the closed batch
// Run: a Session is a long-lived TM instance with a worker pool, and
// clients submit individual transactions while the instance serves —
// the shape of the paper's liveness statements, which are about
// processes that keep issuing transactions forever, not about a fixed
// Procs × OpsPerProc budget. Run is a thin wrapper over a Session
// (open → submit the budget → close), so both substrates have exactly
// one execution core.

// AnyWorker submits a transaction to whichever worker frees up first.
// Pinning to a specific worker instead fixes the transaction's process
// identity in the recorded history (and, on the simulated substrate,
// its scheduling identity).
const AnyWorker = -1

// ErrClosed is returned by session operations after Close: the session
// is draining or gone, and the submission was not accepted.
var ErrClosed = errors.New("engine: session is closed")

// ErrStopped is the result of a submission the session could not
// execute because the live monitor stopped it mid-flight: the
// violation itself is returned by Close (wrapped around
// ErrLiveViolation).
var ErrStopped = errors.New("engine: session stopped by the live monitor")

// ErrStepBudget is the result of a submission (and of Close) on a
// simulated session whose SimSteps budget ran out: the cooperative
// scheduler will not be stepped again, so outstanding transactions
// cannot complete. The batch Run wrapper treats it as a normal end of
// the run, mirroring the old "until the step budget runs out"
// semantics.
var ErrStepBudget = errors.New("engine: session step budget exhausted")

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
	// Open resolves; the Engine.Open method ignores it.
	Engine string
	// Workers is the size of the worker pool (>= 1): the session's
	// process count. Each worker executes submitted transactions one at
	// a time, so Workers bounds the transaction concurrency.
	Workers int
	// MaxWorkers provisions capacity for dynamic admission on the
	// native substrate: AddWorkers may grow the pool up to this many
	// workers mid-session (recorder logs, backoff slots and queue lanes
	// are provisioned up front so the record/monitor stream stays
	// correct when the process count is not fixed at Open). 0 means
	// Workers — a fixed pool. The simulated substrate requires a fixed
	// pool.
	MaxWorkers int
	// Vars is the number of t-variables (>= 1).
	Vars int
	// Seed makes simulated sessions reproducible (ignored by native
	// ones).
	Seed uint64
	// SimSteps is the session's total cooperative-scheduler step budget
	// (simulated substrate only, required there). Once exhausted,
	// outstanding and future submissions fail with ErrStepBudget.
	SimSteps int
	// QueueDepth is the backpressure threshold of each submission lane
	// (the shared queue and each worker's pinned queue) on the native
	// substrate: Exec blocks while its lane holds that many pending
	// transactions. Asynchronous Submit is exempt — it must never block
	// because a worker's result callback may be the submitter — so an
	// unchecked Submit flood grows the queue instead (bound it with
	// MaxQueue). 0 defaults to 64.
	QueueDepth int
	// MaxQueue is the hard admission cap of each submission lane: an
	// asynchronous Submit whose target lane already holds this many
	// pending transactions is refused with ErrOverloaded instead of
	// growing the queue without bound. Unlike QueueDepth it never
	// blocks — refusal is immediate, which is what lets a worker's
	// result callback keep submitting safely and a service layer turn
	// the sentinel into HTTP 429. 0 means unbounded (the historical
	// behaviour). Applies on both substrates.
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
	// continuously rebiases the native retry-loop backoff. Native
	// substrate only.
	Live bool
	// LiveSegmentTxns is the live checker's per-segment transaction
	// budget (0 defaults to 48; max 64).
	LiveSegmentTxns int
	// LiveTailWindow is the live monitor's liveness-classification
	// window in events (0 defaults to 256).
	LiveTailWindow int
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

func (cfg SessionConfig) validate(sub Substrate) error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("engine: need a positive worker count, got %d", cfg.Workers)
	}
	if cfg.Vars <= 0 {
		return fmt.Errorf("engine: need a positive variable count, got %d", cfg.Vars)
	}
	if cfg.MaxQueue < 0 {
		return fmt.Errorf("engine: MaxQueue must be non-negative, got %d", cfg.MaxQueue)
	}
	switch sub {
	case Simulated:
		if cfg.SimSteps <= 0 {
			return fmt.Errorf("engine: simulated sessions need a positive SimSteps budget")
		}
		if cfg.Live {
			return fmt.Errorf("engine: live monitoring needs the native substrate (simulated histories are checked after the run)")
		}
		if cfg.MaxWorkers > cfg.Workers {
			return fmt.Errorf("engine: the simulated substrate has a fixed worker set (MaxWorkers %d > Workers %d)", cfg.MaxWorkers, cfg.Workers)
		}
	case Native:
		if cfg.QuiesceEvery < 0 && !(cfg.Live && cfg.QuiesceEvery == -1) {
			return fmt.Errorf("engine: QuiesceEvery must be non-negative (or -1 on a live session), got %d", cfg.QuiesceEvery)
		}
		if cfg.QuiesceEvery > 0 && !cfg.Record && !cfg.Live {
			return fmt.Errorf("engine: QuiesceEvery only applies to recorded or live sessions")
		}
		if (cfg.LiveSegmentTxns != 0 || cfg.LiveTailWindow != 0) && !cfg.Live {
			return fmt.Errorf("engine: LiveSegmentTxns and LiveTailWindow only apply to live sessions")
		}
		if cfg.LiveSegmentTxns < 0 || cfg.LiveSegmentTxns > 64 {
			return fmt.Errorf("engine: LiveSegmentTxns %d out of range [0, 64]", cfg.LiveSegmentTxns)
		}
		if cfg.LiveTailWindow < 0 {
			return fmt.Errorf("engine: LiveTailWindow must be non-negative, got %d", cfg.LiveTailWindow)
		}
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
	// Steps is the scheduler steps consumed so far (simulated only).
	Steps int
	// Stopped reports that the live monitor stopped the session.
	Stopped bool
	// BackoffCap and BackoffBias mirror Stats (native substrate;
	// BackoffBias only on live sessions, where the feedback runs).
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

// sessionBackend is the substrate half of a Session.
type sessionBackend interface {
	// submit enqueues one transaction; done (may be nil) is invoked
	// exactly once with the commit result. demand marks a submission a
	// caller blocks on: it feels QueueDepth backpressure on the native
	// substrate (ctx bounds that wait), and it is what makes the
	// simulated substrate step the cooperative scheduler.
	submit(ctx context.Context, worker int, body Body, done func(error), demand bool) error
	// drain blocks until every accepted submission has completed (or
	// ctx is done). On the simulated substrate draining is also what
	// drives execution.
	drain(ctx context.Context) error
	stats() SessionStats
	addWorkers(n int) error
	close() (*monitor.Report, error)
	history() model.History
}

// Session is a long-lived TM instance serving client-submitted
// transactions from a worker pool. Open one with Open (by registry
// name) or Engine.Open; all methods are safe for concurrent use.
//
// On the native substrate the workers are real goroutines and
// submissions execute as soon as a worker frees up. On the simulated
// substrate the cooperative scheduler is demand-driven: submissions
// execute while some caller blocks in Exec or Drain (or during Close's
// final drain), which is what keeps batch runs deterministic.
type Session struct {
	name string
	b    sessionBackend
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
// Where the transaction runs: on a native session, a call whose ctx
// can never be done (ctx.Done() == nil, as for context.Background)
// and whose worker is idle, with nothing queued on its pinned lane or
// the shared one, runs the body on the calling goroutine as that
// worker — no hand-off, no wake-up. Every other call is queued for the
// worker's goroutine. A cancellable ctx always queues, because a done
// context abandons the wait, not the transaction: a transaction running
// on its caller could not be abandoned, and under a starvation
// adversary its retry loop may never end.
func (s *Session) ExecOn(ctx context.Context, worker int, body Body) error {
	w := waiters.Get().(*execWaiter)
	if err := s.b.submit(ctx, worker, body, w.done, true); err != nil {
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
	return s.b.submit(context.Background(), worker, body, done, false)
}

// Drain blocks until every submission accepted so far has completed,
// or ctx is done. On the simulated substrate Drain also drives the
// cooperative scheduler (see Session).
func (s *Session) Drain(ctx context.Context) error {
	return s.b.drain(ctx)
}

// Stats snapshots the session's counters mid-flight. A result is
// counted before it is delivered: once an Exec has returned, or a
// Submit's done callback has started, Stats counts that submission in
// Completed — and in Commits or NoCommits, or as Stopped, as its
// result says.
func (s *Session) Stats() SessionStats { return s.b.stats() }

// AddWorkers admits n more workers mid-session, up to
// SessionConfig.MaxWorkers (native substrate only). The recorder and
// backoff slots are provisioned for MaxWorkers up front; the live
// monitor's process set grows lazily — an admitted worker joins the
// monitored set with its first event, so a worker that never runs a
// transaction does not appear in the final report.
func (s *Session) AddWorkers(n int) error { return s.b.addWorkers(n) }

// Close stops accepting submissions, drains the in-flight and queued
// transactions, shuts the worker pool down, and returns the live
// monitor's final report (nil when the session was not live). The
// error is the session's terminal condition: nil for a clean
// shutdown, ErrLiveViolation (wrapped) when the live monitor stopped
// the session, ErrStepBudget when a simulated session exhausted its
// budget, or the fatal body error that crashed a simulated worker.
// Closing twice returns ErrClosed.
func (s *Session) Close() (*monitor.Report, error) { return s.b.close() }

// History returns the recorded history of a SessionConfig.Record
// session after Close, else nil.
func (s *Session) History() model.History { return s.b.history() }

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

// sessionJob is one accepted submission. demand marks one a caller
// blocks on (Exec), which the simulated substrate counts to decide
// whether to step.
type sessionJob struct {
	body   Body
	done   func(error)
	demand bool
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

// lanes is a session's submission queues on either substrate: one lane
// any worker serves and one pinned lane per worker slot, with the
// queue-depth gauges kept in step. The session's mutex guards it.
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

// drain empties every lane, appending the jobs to out.
func (l *lanes) drain(out []sessionJob) []sessionJob {
	for p := range l.pinned {
		for j, ok := l.takePinned(p); ok; j, ok = l.takePinned(p) {
			out = append(out, j)
		}
	}
	for j, ok := l.takeShared(); ok; j, ok = l.takeShared() {
		out = append(out, j)
	}
	return out
}

// Open starts a session on the engine named cfg.Engine (see Engines /
// Lookup). Each session owns a fresh TM instance; any number of
// sessions may be open concurrently.
func Open(cfg SessionConfig) (*Session, error) {
	e, ok := Lookup(cfg.Engine)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q", cfg.Engine)
	}
	return e.Open(cfg)
}

// session maps the batch run's shape onto a session configuration —
// the single translation both Run's validation and runOnSession use,
// so the two entry points cannot drift.
func (cfg RunConfig) session() SessionConfig {
	return SessionConfig{
		Workers:         cfg.Procs,
		Vars:            cfg.Vars,
		Seed:            cfg.Seed,
		SimSteps:        cfg.SimSteps,
		Record:          cfg.Record,
		QuiesceEvery:    cfg.QuiesceEvery,
		Live:            cfg.Live,
		LiveSegmentTxns: cfg.LiveSegmentTxns,
		LiveTailWindow:  cfg.LiveTailWindow,
		Telemetry:       cfg.Telemetry,
	}
}

// runOnSession is the batch Run semantics expressed on a Session: open
// with the run's shape, keep each worker's lane topped up with one
// round at a time (so a terminal body error stops that worker's
// remaining rounds, exactly like the old per-process loops), drain,
// close, and refold the session's counters into Stats.
func runOnSession(e Engine, cfg RunConfig, body TxBody) (Stats, error) {
	s, err := e.Open(cfg.session())
	if err != nil {
		return Stats{}, err
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// expected classifies a pump result that ends a worker's rounds
	// without being a body error: the session stopped or ran out of
	// budget (the violation or budget condition surfaces elsewhere).
	expected := func(err error) bool {
		return errors.Is(err, ErrStopped) || errors.Is(err, ErrStepBudget) || errors.Is(err, ErrClosed)
	}
	wg.Add(cfg.Procs)
	var pump func(p, round int)
	pump = func(p, round int) {
		if cfg.OpsPerProc > 0 && round >= cfg.OpsPerProc {
			wg.Done()
			return
		}
		err := s.SubmitOn(p, func(tx Tx) error { return body(p, round, tx) }, func(res error) {
			switch {
			case res == nil, errors.Is(res, ErrNoCommit):
				pump(p, round+1)
			default:
				if !expected(res) {
					fail(res)
				}
				wg.Done()
			}
		})
		if err != nil {
			if !expected(err) {
				fail(err)
			}
			wg.Done()
		}
	}
	for p := 0; p < cfg.Procs; p++ {
		pump(p, 0)
	}
	// Drain drives the simulated scheduler; the pump callbacks running
	// inside it keep every worker's next round enqueued before the
	// previous one is accounted complete, so the drain cannot return
	// between rounds.
	_ = s.Drain(context.Background())
	wg.Wait()

	rep, cerr := s.Close()
	sst := s.Stats()
	st := Stats{
		Commits:        sst.Commits,
		Aborts:         sst.Aborts,
		NoCommits:      sst.NoCommits,
		PerProcCommits: sst.PerWorkerCommits,
		Steps:          sst.Steps,
		History:        s.History(),
		Live:           rep,
		Stopped:        sst.Stopped,
		BackoffCap:     sst.BackoffCap,
		BackoffBias:    sst.BackoffBias,
		RecorderChunks: sst.RecorderChunks,
		Truncated:      sst.Truncated,
		CutLatency:     sst.CutLatency,
	}
	if cerr != nil && !errors.Is(cerr, ErrStepBudget) {
		return st, cerr
	}
	if firstErr != nil {
		return st, firstErr
	}
	return st, nil
}
