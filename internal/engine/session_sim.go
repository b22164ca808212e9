package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// simSession is the simulated-substrate session backend. One driver
// goroutine owns the cooperative scheduler; the worker pool is a set
// of sim processes that poll the session's queues at yield points. The
// driver is demand-driven: it steps the scheduler only while a caller
// blocks in Exec or Drain (or while Close drains), which is what makes
// a batch of submissions deterministic — every job is enqueued before
// the first step, and every follow-up submission from a completion
// callback happens inside a step.
//
// The substrate keeps the paper's crash semantics: a terminal body
// error has no abort request to issue for the implicit transaction, so
// the worker crashes holding whatever it holds, and the session is
// wedged — the error becomes the session's fatal condition, failing
// every outstanding and future submission.
type simSession struct {
	cfg   SessionConfig
	tm    stm.TM
	rec   *stm.Recorder
	sched *sim.Scheduler

	mu   sync.Mutex
	cond *sync.Cond
	// q holds the submission lanes; sim processes only touch them
	// inside a scheduler step, the driver and clients under mu between
	// steps.
	q        lanes
	inflight []sessionJob // per-worker job being executed (body nil: none)
	dead     []bool       // worker crashed on a terminal body error

	outstanding int // accepted but not completed jobs
	demand      int // outstanding jobs a caller blocks on
	draining    int // Drain callers (and Close) currently waiting
	steps       int
	closing     bool
	closed      bool
	fatal       error

	// met backs every SessionStats counter (bare instruments without a
	// registry); commit-failure aborts count as cause=conflict, body-
	// level aborts as cause=operation. Always non-nil.
	met *sessionMetrics

	driverDone chan struct{}
	closeDone  chan struct{} // the winning close finished finalizing
	hist       model.History
}

// openSimSession builds the TM, spawns the worker processes and starts
// the driver. cfg has defaults applied and is validated for the
// simulated substrate.
func openSimSession(name string, factory stm.Factory, cfg SessionConfig) (*simSession, error) {
	s := &simSession{
		cfg:        cfg,
		sched:      sim.New(sim.NewSeeded(cfg.Seed)),
		inflight:   make([]sessionJob, cfg.Workers),
		dead:       make([]bool, cfg.Workers),
		met:        newSessionMetrics(cfg.Telemetry, name, cfg.Workers, false),
		driverDone: make(chan struct{}),
		closeDone:  make(chan struct{}),
	}
	s.q = lanes{pinned: make([]jobRing, cfg.Workers), met: s.met}
	s.met.workers.Set(int64(cfg.Workers))
	s.cond = sync.NewCond(&s.mu)
	s.tm = factory(cfg.Workers, cfg.Vars)
	if cfg.Record {
		s.rec = stm.NewRecorder(s.tm)
		s.tm = s.rec
	}
	for p := 0; p < cfg.Workers; p++ {
		if err := s.sched.Spawn(model.Proc(p+1), s.workerBody(p)); err != nil {
			s.sched.Close()
			return nil, err
		}
	}
	go s.drive()
	return s, nil
}

// submit never blocks on the simulated substrate (the lanes are
// unbounded: backpressure is meaningless when execution is demand-
// driven), so the context is unused.
func (s *simSession) submit(_ context.Context, worker int, body Body, done func(error), demand bool) error {
	if worker != AnyWorker && (worker < 0 || worker >= s.cfg.Workers) {
		return fmt.Errorf("engine: worker %d out of range (have %d)", worker, s.cfg.Workers)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.closing {
		return ErrClosed
	}
	if s.fatal != nil {
		return s.fatal
	}
	if !demand && s.cfg.MaxQueue > 0 && s.q.depth(worker) >= s.cfg.MaxQueue {
		return ErrOverloaded
	}
	s.q.push(worker, sessionJob{body: body, done: done, demand: demand})
	s.outstanding++
	s.met.submitted.Inc()
	if demand {
		s.demand++
	}
	s.cond.Broadcast()
	return nil
}

// workerBody is worker p's sim-process loop: take a job, execute it
// through the retry loop, park while idle. Parking (not yield-
// spinning) keeps an idle worker out of the runnable set, so it
// consumes none of the step budget — exactly like the old batch
// loops, where a process with no rounds left was simply gone. A
// terminal body error crashes the worker (the loop returns with the
// implicit transaction still live).
func (s *simSession) workerBody(p int) func(*sim.Env) {
	return func(env *sim.Env) {
		for tick := 0; ; tick++ {
			s.mu.Lock()
			j, ok := s.q.take(p, tick)
			s.inflight[p] = j
			done := s.closing && s.outstanding == 0
			if !ok && !done {
				// Atomically with the empty-queue observation, so a
				// submission arriving now sees the parked flag and the
				// driver unparks before its next step.
				s.sched.Park(model.Proc(p + 1))
			}
			s.mu.Unlock()
			if !ok {
				if done {
					return
				}
				env.Yield()
				continue
			}
			if !s.runJob(p, env, j) {
				return
			}
		}
	}
}

// runJob executes one submission as repeated transaction attempts
// until it commits, is declined, or fails terminally. It reports
// whether the worker survives.
func (s *simSession) runJob(p int, env *sim.Env, j sessionJob) bool {
	for {
		tx := &simTx{tm: s.tm, env: env, vars: s.cfg.Vars}
		err := j.body(tx)
		switch {
		case errors.Is(err, ErrNoCommit):
			// The implicit transaction stays live (parasitic); yield so
			// a body that issued no operation cannot monopolize the
			// scheduler.
			s.finish(p, j, ErrNoCommit)
			env.Yield()
			return true
		case err == nil && !tx.aborted:
			if s.tm.TryCommit(env) == stm.OK {
				s.finish(p, j, nil)
				return true
			}
			s.met.abortsConflict.Inc()
		case err == nil || errors.Is(err, ErrAborted):
			s.met.abortsOperation.Inc()
		default:
			// A terminal body error: the process behaves like a crash
			// (it holds whatever it holds), exactly as the paper's
			// model prescribes, and the session is wedged on it.
			s.fail(p, j, err)
			return false
		}
	}
}

// finish completes one job. It is counted before the callback runs, so
// Stats never lags a delivered result, but retired after it, so a
// callback that submits follow-up work never lets the session drain
// between rounds.
func (s *simSession) finish(p int, j sessionJob, res error) {
	if res == nil {
		s.met.commits[p].Inc()
	} else if errors.Is(res, ErrNoCommit) {
		s.met.noCommits.Inc()
	}
	s.met.completed.Inc()
	if j.done != nil {
		j.done(res)
	}
	s.mu.Lock()
	s.inflight[p] = sessionJob{}
	s.completeLocked(j)
	s.mu.Unlock()
}

// completeLocked retires one accepted job, which the caller has
// already counted in met.completed. Caller holds mu.
func (s *simSession) completeLocked(j sessionJob) {
	s.outstanding--
	if j.demand {
		s.demand--
	}
	s.cond.Broadcast()
}

// fail marks the session fatally wedged on a terminal body error and
// completes the failing job; the driver fails everything else.
func (s *simSession) fail(p int, j sessionJob, err error) {
	s.met.completed.Inc()
	if j.done != nil {
		j.done(err)
	}
	s.mu.Lock()
	s.dead[p] = true
	if s.fatal == nil {
		s.fatal = err
	}
	s.inflight[p] = sessionJob{}
	s.completeLocked(j)
	s.mu.Unlock()
}

// shouldStepLocked reports whether the driver has both work and
// demand. Caller holds mu.
func (s *simSession) shouldStepLocked() bool {
	return s.outstanding > 0 && (s.demand > 0 || s.draining > 0 || s.closing)
}

// unparkLocked wakes every parked worker that has work: its pinned
// lane is non-empty, or the shared lane is. Caller holds mu; the
// driver owns the scheduler, so parking state only changes here and in
// the workers' own (mu-guarded) park calls.
func (s *simSession) unparkLocked() {
	shared := s.q.depth(AnyWorker) > 0
	for p := 0; p < s.cfg.Workers; p++ {
		if s.dead[p] {
			continue
		}
		if shared || s.q.depth(p) > 0 {
			s.sched.Unpark(model.Proc(p + 1))
		}
	}
}

// drive owns the scheduler: it steps while there is demanded work,
// sleeps otherwise, and on a fatal condition (terminal body error,
// exhausted step budget, or a fully wedged process set) fails every
// outstanding submission.
func (s *simSession) drive() {
	defer close(s.driverDone)
	s.mu.Lock()
	for {
		for s.fatal == nil && !s.shouldStepLocked() && !(s.closing && s.outstanding == 0) {
			s.cond.Wait()
		}
		if s.fatal != nil || (s.closing && s.outstanding == 0) {
			break
		}
		if s.steps >= s.cfg.SimSteps {
			s.fatal = ErrStepBudget
			break
		}
		s.unparkLocked()
		s.mu.Unlock()
		progressed := s.sched.Step()
		s.mu.Lock()
		if !progressed {
			// Nothing runnable — every worker crashed or finished —
			// with submissions still outstanding.
			s.fatal = fmt.Errorf("%w: no runnable process", ErrStepBudget)
			break
		}
		s.steps++
	}
	// Fail whatever is still queued or in flight; the callbacks run
	// outside the lock (they may re-enter submit and get the fatal
	// error back).
	var orphans []sessionJob
	if s.fatal != nil {
		orphans = s.q.drain(nil)
		for p, j := range s.inflight {
			if j.body != nil {
				orphans = append(orphans, j)
				s.inflight[p] = sessionJob{}
			}
		}
		for _, j := range orphans {
			s.met.completed.Inc()
			s.completeLocked(j)
		}
	}
	fatal := s.fatal
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range orphans {
		if j.done != nil {
			j.done(fatal)
		}
	}
}

func (s *simSession) drain(ctx context.Context) error {
	stop := watchCtx(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining++
	s.cond.Broadcast()
	defer func() { s.draining-- }()
	for s.outstanding > 0 && s.fatal == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return s.fatal
}

func (s *simSession) stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	per := make([]uint64, s.cfg.Workers)
	var total uint64
	for p := range per {
		per[p] = s.met.commits[p].Load()
		total += per[p]
	}
	return SessionStats{
		Workers:          s.cfg.Workers,
		Submitted:        s.met.submitted.Load(),
		Completed:        s.met.completed.Load(),
		Commits:          total,
		Aborts:           s.met.abortsConflict.Load() + s.met.abortsOperation.Load(),
		NoCommits:        s.met.noCommits.Load(),
		PerWorkerCommits: per,
		Steps:            s.steps,
	}
}

func (s *simSession) addWorkers(int) error {
	return errors.New("engine: the simulated substrate has a fixed worker set")
}

func (s *simSession) close() (*monitor.Report, error) {
	s.mu.Lock()
	if s.closing || s.closed {
		s.mu.Unlock()
		// Wait for the winning close to finish finalizing, so a loser's
		// follow-up History() never races the winner's writes.
		<-s.closeDone
		return nil, ErrClosed
	}
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	defer close(s.closeDone)
	<-s.driverDone
	s.mu.Lock()
	s.closed = true
	err := s.fatal
	s.mu.Unlock()
	s.sched.Close()
	if s.rec != nil {
		s.hist = s.rec.History()
	}
	return nil, err
}

func (s *simSession) history() model.History { return s.hist }
