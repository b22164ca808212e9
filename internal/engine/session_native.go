package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/record"
)

// Live-monitoring plumbing constants.
const (
	// liveStreamCap bounds the events in flight between the recording
	// workers and the monitor pump, split into one ring per worker slot
	// (MaxWorkers of them): backpressure, not loss. Sized so short
	// checker pauses (a segment search) do not stall producers — the cap
	// is the live path's memory/latency trade: smaller means earlier
	// backpressure and faster stops, larger means less stall.
	liveStreamCap = 16384
	// liveRebiasEvery is how often (in observed events) the pump feeds
	// measured starvation back into the backoff policy.
	liveRebiasEvery = 256
	// liveSegmentTxns is the live checker's per-segment transaction
	// budget.
	liveSegmentTxns = 48
	// liveTailWindow is the live monitor's liveness-classification
	// window in events.
	liveTailWindow = 256
	// defaultQuiesceEvery is the cut interval of a checked session when
	// SessionConfig.QuiesceEvery is 0: real quiescent cuts keep the
	// checkers exact; the live bounded-overlap fallback only has to
	// absorb the windows that outrun the budget between cuts.
	defaultQuiesceEvery = 4
	// recorderHint pre-sizes each worker's first event chunk. Sessions
	// have no round budget to derive it from; the chunked buffers grow
	// (or recycle) process-locally either way.
	recorderHint = 1024
)

// liveState couples one live session's monitor, backoff feedback loop
// and stop signal. The pump goroutine owns the monitor until done
// closes; violation is written before stop closes and read after done,
// so the channels order the accesses.
type liveState struct {
	mon       *monitor.Monitor
	stop      chan struct{}
	done      chan struct{}
	violation error
}

// runPump feeds the live stream through the shared monitor pump
// (record.Resequencer order restoration + monitor.Observe) while the
// session executes. A terminal safety error closes the stop channel —
// the mid-flight cancellation — and the measured starvation rebiases
// the backoff policy every liveRebiasEvery events. The starvation
// snapshot is sized for MaxWorkers but truncated to the admitted
// prefix before rebiasing: provisioned-but-idle slots would otherwise
// drag the mean down and classify every active worker as starved. With
// a registry, each rebias tick also syncs the live gauges, and they are
// synced once more when the stream closes.
func (s *Session) runPump() {
	ls := s.live
	defer close(ls.done)
	pump := &monitor.Pump{
		Mon:   ls.mon,
		Procs: s.cfg.MaxWorkers,
		OnViolation: func(err error) {
			ls.violation = err
			close(ls.stop)
		},
		RebiasEvery: liveRebiasEvery,
		Rebias: func(starvation []int) {
			if n := int(s.admitted.Load()); n < len(starvation) {
				starvation = starvation[:n]
			}
			s.bo.Rebias(starvation)
			// The pump goroutine owns the monitor, so syncLive's
			// non-terminal class read is race-free; the gauges carry it
			// to any concurrent scraper.
			s.met.syncLive(ls.mon, starvation, s.bo)
		},
	}
	pump.Run(s.rec)
	// The monitor has absorbed every event, but the last tick may lie up
	// to liveRebiasEvery events back, or before a violation stopped the
	// ticks: publish the final view to the gauges, if there are any.
	if s.met.class != nil {
		starvation := make([]int, s.admitted.Load())
		ls.mon.StarvationNow(starvation)
		s.met.syncLive(ls.mon, starvation, s.bo)
	}
}

// Session is a long-lived native TM instance serving client-submitted
// transactions from a worker pool of real goroutines; submissions
// execute as soon as a worker frees up. Open one with Open (by
// registry name) or NativeEngine.Open; all methods are safe for
// concurrent use.
type Session struct {
	// The pool's workers pull jobs from a shared lane plus per-worker
	// pinned lanes, with the recorder, live monitor and starvation-aware
	// backoff running for the session's lifetime.
	//
	// The lanes are rings under the session's mutex, with one condition
	// per slot, not channels: a job wakes only the worker whose lane it
	// joins (a shared-lane job is handed to an idle worker's lane, see
	// idle), and the busy flag the inline path claims is read under the
	// same lock.
	//
	// A worker is a slot before it is a goroutine. A blocking ExecOn that
	// finds slot p idle with nothing queued for it claims the slot and runs
	// the transaction on the caller's goroutine, as process p, the way the
	// paper's processes issue their own transactions; everything else
	// queues for p's goroutine. The busy flag makes the two exclusive, so a
	// slot runs one transaction at a time and its recorder log, backoff
	// slot and attempt state keep a single writer.

	name string
	cfg  SessionConfig
	tm   native.TM
	bo   *native.Backoff
	rec  *record.Recorder
	live *liveState
	// quiesce is the longest run of attempts per admitted worker that
	// may end without a quiescent point before a cut is forced (0 =
	// never cut).
	quiesce int

	// gate is the cut gate in one word: the attempts of non-interactive
	// jobs in flight (gateInflight units), from before each begins to
	// after it has released everything (the retry loop's gate, see
	// nativeWorker.Enter); the attempts ended since the last instant
	// none was (gateAttempt units); and gateCut while a forced cut is
	// pending. At an instant with none in flight, unless an interactive
	// transaction is open, the recorded stream has a quiescent cut at
	// that stamp. Idle workers, parked interactive transactions and
	// backing-off retries count for nothing, so a cut never waits on a
	// worker that has no work, on a caller that has gone quiet, or for
	// an abort storm to end.
	gate atomic.Uint64
	// cutMu guards the waits on cutCond: a forced cut's for its
	// in-flight attempts to end, and new attempts' for the cut.
	cutMu   sync.Mutex
	cutCond sync.Cond

	// met holds every counter behind SessionStats plus the registered
	// observability extras; see sessionMetrics. Always non-nil.
	met *sessionMetrics

	mu sync.Mutex
	// wake[p] is slot p's own condition: a job p may take arrived, an
	// inline run handed the slot back with work queued, or the session
	// closed. One per slot, so a pinned push wakes only its worker.
	wake     []sync.Cond
	roomCond *sync.Cond // a lane drained below queueDepth, or closed
	q        lanes
	// busy[p] is set while slot p executes a job, on its goroutine or
	// inline on an ExecOn caller's; the worker takes no job while it is.
	busy []bool
	// nextIdle is the slot idle tries first.
	nextIdle  int
	workers   []nativeWorker // per slot, set up by spawn
	closed    bool
	closeDone chan struct{} // the winning Close finished finalizing

	admitted atomic.Int32
	admitMu  sync.Mutex
	wg       sync.WaitGroup

	stopped atomic.Bool

	drainMu   sync.Mutex
	drainCond *sync.Cond
	drainers  atomic.Int32
	// settled counts jobs whose result has been delivered (a Begin's
	// done has returned). Completed is counted before delivery, so
	// Stats never lags a delivered result; Drain waits on settled
	// instead, so it never returns while a done callback still runs.
	settled atomic.Uint64

	hist model.History
}

// Open starts a long-lived Session: a fresh TM instance with a worker
// pool of real goroutines serving client-submitted transactions until
// Close. Any number of sessions may be open concurrently; cfg.Engine
// is ignored (the receiver is the engine).
func (e *NativeEngine) Open(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm, err := e.info.New(cfg.Vars)
	if err != nil {
		return nil, err
	}
	s := &Session{
		name:      e.info.Name,
		cfg:       cfg,
		tm:        tm,
		bo:        native.NewBackoff(cfg.MaxWorkers),
		closeDone: make(chan struct{}),
		met:       newSessionMetrics(cfg.Telemetry, cfg.MaxWorkers, cfg.Live),
	}
	s.q = lanes{pinned: make([]jobRing, cfg.MaxWorkers), met: s.met}
	if cfg.Telemetry != nil {
		s.met.tx = native.NewTxMetrics(cfg.Telemetry, e.info.Name)
	}
	s.cutCond.L = &s.cutMu
	s.wake = make([]sync.Cond, cfg.MaxWorkers)
	for p := range s.wake {
		s.wake[p].L = &s.mu
	}
	s.busy = make([]bool, cfg.MaxWorkers)
	s.workers = make([]nativeWorker, cfg.MaxWorkers)
	s.roomCond = sync.NewCond(&s.mu)
	s.drainCond = sync.NewCond(&s.drainMu)
	if cfg.Live {
		procs := make([]model.Proc, cfg.Workers)
		for i := range procs {
			procs[i] = model.Proc(i + 1)
		}
		mon, err := monitor.New(monitor.Config{
			SegmentTxns: liveSegmentTxns, TailWindow: liveTailWindow, Procs: procs, Approx: true,
			Telemetry: s.met.checker,
		})
		if err != nil {
			return nil, err
		}
		s.live = &liveState{mon: mon, stop: make(chan struct{}), done: make(chan struct{})}
		s.rec = record.NewWithOptions(cfg.MaxWorkers, record.Options{
			CapacityHint:   recorderHint,
			StreamCapacity: liveStreamCap,
			Stop:           s.live.stop,
			// Without Record the stream is the only record, so each
			// slot's stream ring is its whole log and allocation stays
			// flat.
			DropStreamed: !cfg.Record,
			Metrics:      s.met.rec,
		})
		go s.runPump()
	} else if cfg.Record {
		s.rec = record.NewWithOptions(cfg.MaxWorkers, record.Options{
			CapacityHint: recorderHint,
			Metrics:      s.met.rec,
		})
	}
	// Validation leaves an unchecked session at 0 (no cuts).
	s.quiesce = cfg.QuiesceEvery
	if s.quiesce == 0 && (cfg.Record || cfg.Live) {
		s.quiesce = defaultQuiesceEvery
	}
	s.spawn(cfg.Workers)
	return s, nil
}

// spawn sets up n more worker slots and starts their goroutines; the
// caller holds admitMu and mu, or is Open.
func (s *Session) spawn(n int) {
	base := int(s.admitted.Load())
	for p := base; p < base+n; p++ {
		w := &s.workers[p]
		*w = nativeWorker{s: s, p: p}
		w.opts = native.RunOpts{Gate: w, Backoff: s.bo, Proc: p, Metrics: s.met.tx}
		if s.rec != nil {
			w.opts.Observer = s.rec.Log(model.Proc(p + 1))
		}
		s.wg.Add(1)
		go s.worker(w)
	}
	s.admitted.Store(int32(base + n))
	s.met.workers.Set(int64(base + n))
}

// submit accepts one job for worker (AnyWorker: the shared lane). A
// job that is not interactive comes from a blocking ExecOn, so it may
// run inline and, on a session without MaxQueue, waits for room; an
// interactive one (Begin) never waits.
func (s *Session) submit(ctx context.Context, worker int, j sessionJob) error {
	if worker != AnyWorker && (worker < 0 || worker >= int(s.admitted.Load())) {
		return fmt.Errorf("%w: %d (have %d)", ErrNotAdmitted, worker, s.admitted.Load())
	}
	s.mu.Lock()
	// A blocking pinned submission whose slot is idle, with nothing
	// queued that the slot's worker would run first, runs here. Only an
	// uncancellable one does: a done context abandons the wait, not the
	// transaction, and a transaction running on its caller cannot be
	// left behind.
	if !j.interactive && worker != AnyWorker && ctx.Done() == nil && !s.closed && !s.busy[worker] &&
		s.q.depth(worker) == 0 && s.q.depth(AnyWorker) == 0 {
		s.busy[worker] = true
		s.wg.Add(1) // registered while not closed, so Close waits for it
		s.met.submitted.Inc()
		s.mu.Unlock()
		s.runInline(worker, j)
		return nil
	}
	defer s.mu.Unlock()
	if !j.interactive && s.cfg.MaxQueue == 0 && s.q.depth(worker) >= queueDepth {
		// The ctx watcher starts lazily: the common uncontended path
		// pays no goroutine.
		stop := watchCtx(ctx, func() {
			s.mu.Lock()
			s.roomCond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
		for !s.closed && s.q.depth(worker) >= queueDepth {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.roomCond.Wait()
		}
	}
	if s.closed {
		return ErrClosed
	}
	if s.cfg.MaxQueue > 0 && s.q.depth(worker) >= s.cfg.MaxQueue {
		return ErrOverloaded
	}
	if worker == AnyWorker && s.q.depth(AnyWorker) == 0 {
		worker = s.idle()
	}
	s.met.submitted.Inc()
	s.q.push(worker, j)
	if worker != AnyWorker {
		s.wake[worker].Signal()
	}
	return nil
}

// idle picks the worker a shared-lane job is handed to: an idle one
// with nothing queued, trying the slots in turn from the one after the
// last picked, or AnyWorker when there is none; the caller holds mu.
// The job goes onto the picked worker's own lane (and its queue-depth
// gauge), so the worker it wakes is the one that runs it: a job on a
// lane every worker serves goes to whichever worker reaches it first,
// mostly the one that has just finished, and the rest of the pool
// idles. A job left on the shared lane needs no wake-up: every worker
// is busy or has work queued, and each one takes from the shared lane
// before it waits again; nor can a slot be claimed inline while the
// shared lane holds a job.
func (s *Session) idle() int {
	n := int(s.admitted.Load())
	for i := range n {
		p := (s.nextIdle + i) % n
		if !s.busy[p] && s.q.depth(p) == 0 {
			s.nextIdle = (p + 1) % n
			return p
		}
	}
	return AnyWorker
}

// wakeAll wakes every admitted worker; the caller holds mu.
func (s *Session) wakeAll() {
	for p := range int(s.admitted.Load()) {
		s.wake[p].Signal()
	}
}

// runInline runs a job whose caller claimed slot p, then hands the slot
// back. Whatever queued for p meanwhile waited for the slot, not for a
// wake-up, so p's worker is woken for it — and on a closed session, so
// that it can exit.
func (s *Session) runInline(p int, j sessionJob) {
	defer s.wg.Done()
	s.runJob(&s.workers[p], j)
	s.mu.Lock()
	s.busy[p] = false
	if s.closed || s.q.depth(p) > 0 || s.q.depth(AnyWorker) > 0 {
		s.wake[p].Signal()
	}
	s.mu.Unlock()
}

// nativeWorker is what one worker slot keeps across the jobs it runs,
// so that a job costs it nothing: the retry loop's options, whose gate
// is the worker itself. Whichever goroutine holds the slot's busy flag
// owns it.
type nativeWorker struct {
	s           *Session
	p           int
	opts        native.RunOpts
	interactive bool // the job being executed is interactive
}

// The fields of Session.gate.
const (
	gateInflight = 1 << 0  // bits 0..31: attempts in flight
	gateAttempt  = 1 << 32 // bits 32..62: attempts ended since the stream last quiesced
	gateCut      = 1 << 63 // a forced cut is pending: no attempt may begin
	inflightMask = gateAttempt - 1
	// maxCutRun caps the run of attempts a cut is forced after, so the
	// attempt count never reaches the cut bit.
	maxCutRun = 1 << 30
)

// Enter implements native.Gate, before each attempt begins: no attempt
// begins once the live monitor has stopped the session, and a checked
// non-interactive attempt counts itself in flight on the gate until its
// Leave, waiting first while a forced cut is pending, so that a cut
// never lands inside it and its snapshot never predates a cut. It pays
// one read-modify-write of the gate.
func (w *nativeWorker) Enter() bool {
	s := w.s
	if s.live != nil {
		select {
		case <-s.live.stop:
			return false
		default:
		}
	}
	if s.quiesce == 0 || w.interactive {
		return true
	}
	for {
		old := s.gate.Load()
		if old&gateCut != 0 {
			s.cutMu.Lock()
			for s.gate.Load()&gateCut != 0 {
				s.cutCond.Wait()
			}
			s.cutMu.Unlock()
			continue
		}
		if s.gate.CompareAndSwap(old, old+gateInflight) {
			return true
		}
	}
}

// Leave implements native.Gate, after each attempt has released
// everything it held and before any backoff, in one read-modify-write
// of the gate. A checked non-interactive attempt leaves the in-flight
// count. The one that leaves none in flight has found a quiescent point
// the stream already has, and the run of attempts starts again;
// otherwise the attempt extends the run, and the one that takes it to
// quiesce × (admitted workers) makes a cut pending and takes it,
// holding nothing. A cut therefore lands between attempts, never inside
// an attempt or its backoff, and only when the stream has not quiesced
// by itself; an abort storm brings cuts instead of holding them off.
func (w *nativeWorker) Leave() {
	s := w.s
	if s.quiesce == 0 || w.interactive {
		return
	}
	run := min(uint64(s.quiesce)*uint64(s.admitted.Load()), maxCutRun)
	for {
		old := s.gate.Load()
		inflight := old&inflightMask - gateInflight
		var next uint64
		switch ended := (old&^gateCut)>>32 + 1; {
		case old&gateCut != 0:
			next = old - gateInflight
		case inflight == 0:
			next = 0
		case ended >= run:
			next = gateCut | ended<<32 | inflight
		default:
			next = ended<<32 | inflight
		}
		if !s.gate.CompareAndSwap(old, next) {
			continue
		}
		switch {
		case old&gateCut == 0 && next&gateCut != 0:
			s.forceCut()
		case old&gateCut != 0 && inflight == 0:
			// The last attempt a pending cut waits for.
			s.cutMu.Lock()
			s.cutCond.Broadcast()
			s.cutMu.Unlock()
		}
		return
	}
}

// worker is slot w's goroutine: it serves its pinned lane and the
// shared lane until Close seals and drains them, taking nothing while
// an inline run holds the slot.
func (s *Session) worker(w *nativeWorker) {
	defer s.wg.Done()
	p := w.p
	s.mu.Lock()
	for tick := 0; ; tick++ {
		var j sessionJob
		var ok bool
		for {
			if !s.busy[p] {
				if j, ok = s.q.take(p, tick); ok || s.closed {
					break
				}
			}
			s.wake[p].Wait()
		}
		if !ok { // closed with both lanes drained
			s.mu.Unlock()
			return
		}
		s.busy[p] = true
		s.roomCond.Broadcast()
		s.mu.Unlock()
		s.runJob(w, j)
		s.mu.Lock()
		s.busy[p] = false
	}
}

// runJob executes one job as worker slot w and accounts for it — the
// one path behind the slot's goroutine and an inline run alike:
// completion, commit, decline and stop counts, ExecOn latency, the
// result, and the drain wake-up. Every count lands before the result
// is delivered, and completion before its outcome (see Session.Stats).
func (s *Session) runJob(w *nativeWorker, j sessionJob) {
	var res error
	if h := s.met.execLat; h != nil {
		start := time.Now()
		res = s.execute(w, j)
		h.Observe(time.Since(start).Nanoseconds())
	} else {
		res = s.execute(w, j)
	}
	s.met.completed.Inc()
	switch {
	case res == nil:
		s.met.commits[w.p].Inc()
	case errors.Is(res, ErrNoCommit):
		s.met.noCommits.Inc()
	case errors.Is(res, native.ErrStopped):
		s.stopped.Store(true)
		res = ErrStopped
	}
	j.done(res)
	s.settled.Add(1)
	if s.drainers.Load() > 0 {
		s.drainMu.Lock()
		s.drainCond.Broadcast()
		s.drainMu.Unlock()
	}
}

// execute runs one submission as a transaction on worker w, retrying
// through the native retry loop until commit, decline, stop, or a
// terminal body error. The worker is the loop's gate (see Enter and
// Leave).
func (s *Session) execute(w *nativeWorker, j sessionJob) error {
	w.interactive = j.interactive
	return s.tm.AtomicallyOpts(w.opts, j.body)
}

// forceCut takes the cut its caller made pending: new attempts wait
// while the ones in flight finish, and at the instant none is in flight
// the recorded stream has a quiescent cut — the streaming checker's
// flush point. The gate then starts a new run and lets attempts begin.
func (s *Session) forceCut() {
	start := time.Now()
	s.cutMu.Lock()
	for s.gate.Load()&inflightMask != 0 {
		s.cutCond.Wait()
	}
	// Nothing else writes the gate now: no attempt is in flight to
	// leave, and none may begin.
	s.gate.Store(0)
	s.cutCond.Broadcast()
	s.cutMu.Unlock()
	s.met.cutPause.Observe(time.Since(start).Nanoseconds())
}

// Drain blocks until every submission accepted so far has completed,
// or ctx is done.
func (s *Session) Drain(ctx context.Context) error {
	s.drainers.Add(1)
	defer s.drainers.Add(-1)
	stop := watchCtx(ctx, func() {
		s.drainMu.Lock()
		s.drainCond.Broadcast()
		s.drainMu.Unlock()
	})
	defer stop()
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	for s.settled.Load() != s.met.submitted.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.drainCond.Wait()
	}
	return nil
}

// Stats snapshots the session's counters mid-flight. A result is
// counted before it is delivered: once an ExecOn has returned, or a
// Begin's done callback has started, Stats counts that submission in
// Completed — and in Commits or NoCommits, or as Stopped, as its
// result says. A job is counted submitted before it runs and completed
// before its outcome, so reading the outcomes, then Completed, then
// Submitted keeps Commits + NoCommits ≤ Completed ≤ Submitted.
func (s *Session) Stats() SessionStats {
	n := int(s.admitted.Load())
	per := make([]uint64, n)
	var total uint64
	for p := 0; p < n; p++ {
		per[p] = s.met.commits[p].Load()
		total += per[p]
	}
	// A literal evaluates its calls left to right: the order matters.
	st := SessionStats{
		Workers:          n,
		Commits:          total,
		NoCommits:        s.met.noCommits.Load(),
		Completed:        s.met.completed.Load(),
		Submitted:        s.met.submitted.Load(),
		Aborts:           s.tm.Stats().Aborts,
		PerWorkerCommits: per,
		Stopped:          s.stopped.Load(),
	}
	if s.live != nil {
		st.BackoffBias = s.bo.BiasSnapshot()
	}
	if s.rec != nil {
		st.RecorderChunks = s.rec.Chunks()
		st.Truncated = s.rec.Truncated()
	}
	st.CutLatency = histCutStats(s.met.cutPause)
	return st
}

// AddWorkers admits n more workers mid-session, up to
// SessionConfig.MaxWorkers. The recorder and backoff slots are
// provisioned for MaxWorkers up front; the live monitor's process set
// grows lazily — an admitted worker joins the monitored set with its
// first event, so a worker that never runs a transaction does not
// appear in the final report.
func (s *Session) AddWorkers(n int) error {
	if n <= 0 {
		return fmt.Errorf("engine: AddWorkers needs a positive count, got %d", n)
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	// Spawn under mu so admission cannot race Close's wg.Wait: either
	// the workers are registered before closed is set, or the admission
	// is refused.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if have := int(s.admitted.Load()); have+n > s.cfg.MaxWorkers {
		return fmt.Errorf("engine: %d workers admitted + %d exceeds MaxWorkers %d", have, n, s.cfg.MaxWorkers)
	}
	s.spawn(n)
	s.met.admissions.Add(uint64(n))
	return nil
}

// Close stops accepting submissions, drains the in-flight and queued
// transactions, shuts the worker pool down, and returns the live
// monitor's final report (nil when the session was not live). The
// error is the session's terminal condition: nil for a clean
// shutdown, or ErrLiveViolation (wrapped) when the live monitor
// stopped the session. Closing twice returns ErrClosed.
func (s *Session) Close() (*monitor.Report, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Wait for the winning Close to finish finalizing, so a loser's
		// follow-up History() never races the winner's writes.
		<-s.closeDone
		return nil, ErrClosed
	}
	s.closed = true
	s.wakeAll()
	s.roomCond.Broadcast()
	s.mu.Unlock()
	defer close(s.closeDone)
	s.wg.Wait()

	var rep *monitor.Report
	var err error
	if s.live != nil {
		s.rec.CloseStream()
		<-s.live.done
		r := s.live.mon.Report()
		rep = &r
		if s.live.violation != nil {
			err = fmt.Errorf("%w: %v", ErrLiveViolation, s.live.violation)
		}
	}
	if s.cfg.Record && s.rec != nil {
		s.hist = s.rec.History()
	}
	return rep, err
}

// History returns the recorded history of a SessionConfig.Record
// session after Close, else nil.
func (s *Session) History() model.History { return s.hist }
