package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openTestSession opens a session on a registry engine or fails the
// test.
func openTestSession(t *testing.T, name string, cfg SessionConfig) *Session {
	t.Helper()
	cfg.Engine = name
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return s
}

// goExecOn runs ExecOn on a goroutine of its own and returns the
// channel its result arrives on. The context is cancellable, so the
// call never runs inline: the job queues for the worker's goroutine.
func goExecOn(s *Session, worker int, body Body) <-chan error {
	res := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer cancel()
		res <- s.ExecOn(ctx, worker, body)
	}()
	return res
}

// park occupies worker with a job that waits for release, and returns
// once the job runs, with the channel its result arrives on.
func park(s *Session, worker int, release <-chan struct{}) <-chan error {
	started := make(chan struct{})
	var once sync.Once
	res := goExecOn(s, worker, func(Tx) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	})
	<-started
	return res
}

// counterSessionBody increments variable x once.
func counterSessionBody(x int) Body {
	return func(tx Tx) error {
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v+1)
	}
}

// TestSessionExecBothSubstrates: the basic session loop — open, ExecOn a
// few transactions, Stats, Close — commits, and the committed
// increments are all there. Sessions are native only, so the one row
// left is native; the name is the one CI's scheduling step runs.
func TestSessionExecBothSubstrates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
	}{
		{"native-tl2", SessionConfig{Workers: 2, Vars: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestSession(t, tc.name, tc.cfg)
			const n = 20
			for i := 0; i < n; i++ {
				if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(0)); err != nil {
					t.Fatalf("exec %d: %v", i, err)
				}
			}
			var got int64
			if err := s.ExecOn(context.Background(), AnyWorker, func(tx Tx) error {
				v, err := tx.Read(0)
				got = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != n {
				t.Errorf("counter = %d, want %d", got, n)
			}
			st := s.Stats()
			if st.Commits != n+1 || st.Submitted != n+1 || st.Completed != n+1 {
				t.Errorf("stats = %+v, want %d commits/submitted/completed", st, n+1)
			}
			if rep, err := s.Close(); err != nil || rep != nil {
				t.Fatalf("close: rep=%v err=%v, want nil/nil on a non-live session", rep, err)
			}
		})
	}
}

// TestSessionMoreSubmittersThanWorkers floods a small pool from many
// client goroutines: every submission must execute exactly once, and
// the counter must account for every commit. There are more
// submitters than the shared lane's queue depth, so some of them wait
// for room. Run with -race.
func TestSessionMoreSubmittersThanWorkers(t *testing.T) {
	const workers, submitters, perSubmitter = 2, queueDepth + 9, 40
	s := openTestSession(t, "native-tinystm", SessionConfig{Workers: workers, Vars: 1})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(0)); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d submissions failed", failed.Load())
	}
	st := s.Stats()
	const want = submitters * perSubmitter
	if st.Commits != want || st.Completed != want {
		t.Errorf("commits=%d completed=%d, want %d", st.Commits, st.Completed, want)
	}
	if len(st.PerWorkerCommits) != workers {
		t.Errorf("per-worker commits cover %d workers, want %d", len(st.PerWorkerCommits), workers)
	}
	var final int64
	if err := s.ExecOn(context.Background(), AnyWorker, func(tx Tx) error {
		v, err := tx.Read(0)
		final = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if final != want {
		t.Errorf("counter = %d, want %d", final, want)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCloseDrainsInFlight: Close must execute everything
// already accepted — queued submissions included — before returning,
// and late submissions must fail with ErrClosed. The workers are parked
// while the jobs queue and released only once Close has sealed the
// lanes. Run with -race.
func TestSessionCloseDrainsInFlight(t *testing.T) {
	const workers, n = 3, 60
	s := openTestSession(t, "native-norec", SessionConfig{Workers: workers, Vars: 1})
	release := make(chan struct{})
	var gates []<-chan error
	for w := range workers {
		gates = append(gates, park(s, w, release))
	}
	var results []<-chan error
	for range n {
		results = append(results, goExecOn(s, AnyWorker, counterSessionBody(0)))
	}
	eventually(t, "every job is queued", func() bool { return s.Stats().Submitted == workers+n })
	closed := make(chan error, 1)
	go func() {
		_, err := s.Close()
		closed <- err
	}()
	eventually(t, "Close has sealed the lanes", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("ExecOn during Close: err = %v, want ErrClosed", err)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i, res := range append(gates, results...) {
		if err := <-res; err != nil {
			t.Errorf("accepted submission %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Submitted != workers+n || st.Completed != workers+n || st.Commits != workers+n {
		t.Errorf("stats after close = %+v, want %d everywhere", st, workers+n)
	}
}

// TestSessionMisuse: ExecOn/Begin after Close and double Close return
// ErrClosed; out-of-range workers are rejected. On a simulated engine
// the misuse is opening a session at all: simulated engines run
// batches, and Open says so.
func TestSessionMisuse(t *testing.T) {
	t.Run("native-tl2", func(t *testing.T) {
		for _, cfg := range []SessionConfig{
			{Workers: 1, Vars: 1, Live: true, QuiesceEvery: -1}, // cuts come at one cadence
			{Workers: 1, Vars: 1, QuiesceEvery: 2},              // an unchecked session never cuts
		} {
			cfg.Engine = "native-tl2"
			if s, err := Open(cfg); err == nil {
				s.Close()
				t.Errorf("Open(%+v) must be rejected", cfg)
			}
		}
		s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
		if err := s.ExecOn(context.Background(), 7, counterSessionBody(0)); err == nil {
			t.Error("ExecOn an unadmitted worker must error")
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(0)); !errors.Is(err, ErrClosed) {
			t.Errorf("ExecOn after Close: err = %v, want ErrClosed", err)
		}
		if _, err := s.Begin(AnyWorker, nil); !errors.Is(err, ErrClosed) {
			t.Errorf("Begin after Close: err = %v, want ErrClosed", err)
		}
		if _, err := s.Close(); !errors.Is(err, ErrClosed) {
			t.Errorf("second Close: err = %v, want ErrClosed", err)
		}
	})
	t.Run("sim-dstm", func(t *testing.T) {
		for _, e := range Engines(true) {
			if e.Capabilities().Substrate != Simulated {
				continue
			}
			s, err := Open(SessionConfig{Engine: e.Name(), Workers: 1, Vars: 1})
			if s != nil || err == nil || !strings.Contains(err.Error(), "simulated engines run batches") {
				t.Errorf("Open(%s) = %v, %v; want the batch-only error", e.Name(), s, err)
			}
		}
	})
}

// TestConcurrentRunsAreIndependent: each Run opens its own TM
// instance, so two overlapping Runs on one engine value must each
// finish their full budget. Each run's first body waits until the
// other run has entered a body (or returned), which makes the overlap
// certain. Run with -race.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	const procs, ops = 2, 20
	for sub, name := range map[string]string{"native": "native-tl2", "sim": "sim-tl2"} {
		t.Run(sub, func(t *testing.T) {
			e, _ := Lookup(name)
			in := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			done := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			var once [2]sync.Once
			var stats [2]Stats
			var errs [2]error
			var wg sync.WaitGroup
			for r := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer close(done[r])
					stats[r], errs[r] = e.Run(RunConfig{Procs: procs, Vars: 1, OpsPerProc: ops, SimSteps: 1 << 20},
						func(proc, round int, tx Tx) error {
							once[r].Do(func() {
								close(in[r])
								select {
								case <-in[1-r]:
								case <-done[1-r]:
								}
							})
							return counterBody(0)(proc, round, tx)
						})
				}()
			}
			wg.Wait()
			for r := range 2 {
				if errs[r] != nil {
					t.Errorf("run %d: %v", r, errs[r])
				}
				if stats[r].Commits != procs*ops {
					t.Errorf("run %d: %d commits, want %d", r, stats[r].Commits, procs*ops)
				}
			}
		})
	}
}

// TestSessionLiveViolationStops: a live session around the violating
// TM must stop mid-session — in-flight and later submissions fail with
// ErrStopped — and Close must return ErrLiveViolation with the failing
// verdict in the final report. Run with -race.
func TestSessionLiveViolationStops(t *testing.T) {
	s, err := bogusEngine().Open(SessionConfig{Workers: 3, Vars: 2, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	var stopped bool
	for i := 0; i < 200000; i++ {
		err := s.ExecOn(context.Background(), AnyWorker, func(tx Tx) error {
			_, err := tx.Read(0)
			return err
		})
		if errors.Is(err, ErrStopped) {
			stopped = true
			break
		}
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	if !stopped {
		t.Fatal("no submission was stopped by the live monitor")
	}
	if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(0)); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop ExecOn: err = %v, want ErrStopped", err)
	}
	rep, err := s.Close()
	if !errors.Is(err, ErrLiveViolation) {
		t.Fatalf("close: err = %v, want ErrLiveViolation", err)
	}
	if rep == nil || !rep.Checked || rep.Opacity.Holds {
		t.Fatalf("final report must carry the violation: %+v", rep)
	}
	if !s.Stats().Stopped {
		t.Error("Stats.Stopped must report the mid-session stop")
	}
}

// TestParkedInteractiveDoesNotStallCuts: an interactive transaction
// parked on worker 0 of a live session at the default cut cadence does
// not hold up the quiescent cuts that worker 1's Exec traffic takes —
// every Exec commits within the deadline, the cuts are taken, and once
// the parked transaction is abandoned the session closes opaque. A
// parked body that held the cut lock would stall the first cut, and
// with it every Exec after it.
func TestParkedInteractiveDoesNotStallCuts(t *testing.T) {
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: 2, Vars: 2, Live: true})
	bg := context.Background()
	it, err := s.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, aborted, err := it.Read(bg, 0); err != nil || aborted {
		t.Fatalf("interactive read: aborted=%v err=%v", aborted, err)
	}
	const n = 64
	ctx, cancel := context.WithTimeout(bg, 3*time.Second)
	committed := 0
	for ; committed < n; committed++ {
		if err := s.ExecOn(ctx, 1, counterSessionBody(1)); err != nil {
			t.Errorf("Exec %d of %d behind a parked interactive transaction: %v", committed+1, n, err)
			break
		}
	}
	cancel()
	if st := s.Stats(); committed == n && st.CutLatency.Count == 0 {
		t.Errorf("%d commits took no quiescent cut", committed)
	}
	it.Abandon()
	if err := it.Wait(bg); !errors.Is(err, ErrAbandoned) {
		t.Errorf("abandoned transaction ended with %v, want ErrAbandoned", err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if rep == nil || !rep.Opacity.Holds {
		t.Fatalf("healthy session verdict: %+v", rep)
	}
}

// TestCutLandsDuringAbortStorm: a transaction that keeps aborting does
// not hold off the quiescent cuts. Worker 0's body aborts until it sees
// a cut taken, for at most 3 s; once it has begun, worker 1 runs 8
// Execs. Each
// attempt is a transaction of the recorded stream, so it counts toward
// the cut cadence, and the cut lock is held per attempt: a cut lands
// between two of worker 0's attempts. A job-wide hold would keep the
// cut waiting on worker 0 until its budget ran out.
func TestCutLandsDuringAbortStorm(t *testing.T) {
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: 2, Vars: 2, Live: true})
	bg := context.Background()
	deadline := time.Now().Add(3 * time.Second)
	sawCut := false // worker 0's body writes it before its result is delivered
	started := make(chan struct{})
	var once sync.Once
	stormDone := goExecOn(s, 0, func(tx Tx) error {
		once.Do(func() { close(started) })
		if s.Stats().CutLatency.Count > 0 {
			sawCut = true
			return nil
		}
		if time.Now().After(deadline) {
			return nil
		}
		return ErrAborted
	})
	<-started
	for i := 0; i < 8; i++ {
		if err := s.ExecOn(bg, 1, counterSessionBody(1)); err != nil {
			t.Fatalf("Exec %d beside the abort storm: %v", i+1, err)
		}
	}
	if err := <-stormDone; err != nil {
		t.Fatalf("abort storm ended with %v", err)
	}
	if !sawCut {
		t.Error("worker 0 aborted for 3 s without a quiescent cut landing")
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if rep == nil || !rep.Opacity.Holds {
		t.Fatalf("healthy session verdict: %+v", rep)
	}
}

// TestRetryBeginsAfterCut: a retry that waits for a cut begins after
// it, so its snapshot includes the commits the cut drained. Worker 1
// writes x and parks inside its attempt, holding the cut off; worker 0
// reads x and aborts on its own until the cut its attempts made due is
// pending, which the test sees as the cut lock refusing a reader. Then
// worker 1 commits, the cut lands, and worker 0's next attempt reads x
// again: one that began before the cut would read x at a version older
// than worker 1's commit and abort on it.
func TestRetryBeginsAfterCut(t *testing.T) {
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: 2, Vars: 2, Live: true, QuiesceEvery: 1})
	const x = 0
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	writer := goExecOn(s, 1, func(tx Tx) error {
		if err := tx.Write(x, 1); err != nil {
			return err
		}
		once.Do(func() { close(parked) })
		<-release
		return nil
	})
	<-parked
	var cutPending atomic.Bool
	var abortedReads atomic.Int64
	reader := goExecOn(s, 0, func(tx Tx) error {
		if _, err := tx.Read(x); err != nil {
			abortedReads.Add(1)
			return err
		}
		if !cutPending.Load() {
			return ErrAborted
		}
		return nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.cutMu.TryRLock() {
		s.cutMu.RUnlock()
		if time.Now().After(deadline) {
			t.Error("no cut became pending behind the parked attempt")
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cutPending.Store(true)
	close(release)
	for _, res := range []<-chan error{writer, reader} {
		if err := <-res; err != nil {
			t.Fatalf("job ended with %v", err)
		}
	}
	if n := abortedReads.Load(); n != 0 {
		t.Errorf("%d reads aborted", n)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if rep == nil || !rep.Opacity.Holds {
		t.Fatalf("healthy session verdict: %+v", rep)
	}
}

// TestSessionLiveHealthySoak: a healthy live session serves a batch of
// concurrent submitters with the monitor running for the session's
// lifetime, and Close returns a holding verdict with per-worker
// accounting. Run with -race.
func TestSessionLiveHealthySoak(t *testing.T) {
	const workers, submitters, per = 3, 6, 60
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: workers, Vars: 2, Live: true})
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(j%2)); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mid := s.Stats()
	if mid.Commits != submitters*per {
		t.Errorf("mid-flight commits = %d, want %d", mid.Commits, submitters*per)
	}
	if len(mid.BackoffBias) != workers {
		t.Errorf("backoff bias %v, want one entry per worker (%d)", mid.BackoffBias, workers)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Checked || !rep.Opacity.Holds {
		t.Fatalf("healthy soak verdict: %+v", rep)
	}
	if len(rep.Procs) != workers {
		t.Errorf("report covers %d procs, want %d", len(rep.Procs), workers)
	}
	if s.History() != nil {
		t.Error("live session without Record must retain no history")
	}
}

// TestSessionAddWorkers: dynamic admission grows the pool up to
// MaxWorkers mid-session, newly admitted workers serve pinned
// submissions, and the recorded stream stays correct (the live monitor
// absorbs the new process). The simulated substrate refuses. Run with
// -race.
func TestSessionAddWorkers(t *testing.T) {
	s := openTestSession(t, "native-dstm", SessionConfig{Workers: 1, MaxWorkers: 3, Vars: 1, Live: true})
	if err := s.ExecOn(context.Background(), AnyWorker, counterSessionBody(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWorkers(2); err != nil {
		t.Fatalf("AddWorkers: %v", err)
	}
	if got := s.Stats().Workers; got != 3 {
		t.Fatalf("admitted workers = %d, want 3", got)
	}
	for w := 0; w < 3; w++ {
		for i := 0; i < 8; i++ {
			if err := s.ExecOn(context.Background(), w, counterSessionBody(0)); err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
	}
	if err := s.AddWorkers(1); err == nil {
		t.Error("admission beyond MaxWorkers must error")
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Opacity.Holds {
		t.Fatalf("verdict after dynamic admission: %+v", rep.Opacity)
	}
	st := s.Stats()
	if st.Commits != 1+3*8 {
		t.Errorf("commits = %d, want %d", st.Commits, 1+3*8)
	}
	for w, c := range st.PerWorkerCommits[1:] {
		if c != 8 {
			t.Errorf("late worker %d commits = %d, want 8", w+1, c)
		}
	}
}

// TestSessionExecBackpressureHonorsContext: on a session without
// MaxQueue, an ExecOn blocked in the queueDepth admission wait must
// abandon it when its context ends, instead of waiting for room
// indefinitely. The lane is filled with interactive transactions behind
// a parked worker: Begin never waits for room. Run with -race.
func TestSessionExecBackpressureHonorsContext(t *testing.T) {
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
	release := make(chan struct{})
	gate := park(s, 0, release)
	var queued []*Interactive
	for range queueDepth { // fill the pinned lane to queueDepth
		it, err := s.Begin(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, it)
	}
	ctx, cancel := context.WithCancel(context.Background())
	execErr := make(chan error, 1)
	go func() { execErr <- s.ExecOn(ctx, 0, counterSessionBody(0)) }()
	cancel()
	if err := <-execErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked ExecOn: err = %v, want context.Canceled", err)
	}
	for _, it := range queued {
		it.Abandon()
	}
	close(release)
	if err := <-gate; err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Completed; got != 1+queueDepth {
		t.Fatalf("completed = %d, want %d (the cancelled ExecOn was never admitted)", got, 1+queueDepth)
	}
}

// TestSessionMaxQueueOverloaded: the hard admission cap — an ExecOn or
// a Begin whose lane already holds MaxQueue jobs is refused with
// ErrOverloaded at once, never waiting for room, and freeing the lane
// readmits. Each lane, pinned and shared, has its own cap.
func TestSessionMaxQueueOverloaded(t *testing.T) {
	t.Run("native-tl2", func(t *testing.T) {
		s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1, MaxQueue: 1})
		release := make(chan struct{})
		gate := park(s, 0, release) // the only worker, off the lane
		// A refusal that waited would outlive this context and report
		// its error instead of ErrOverloaded.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var queued []*Interactive
		for _, lane := range []int{0, AnyWorker} {
			it, err := s.Begin(lane, nil)
			if err != nil {
				t.Fatalf("lane %d: Begin filling the lane: %v", lane, err) // lane now at MaxQueue
			}
			queued = append(queued, it)
			if err := s.ExecOn(ctx, lane, counterSessionBody(0)); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("lane %d: over-cap ExecOn err = %v, want ErrOverloaded", lane, err)
			}
			if err := s.ExecOn(context.Background(), lane, counterSessionBody(0)); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("lane %d: over-cap uncancellable ExecOn err = %v, want ErrOverloaded", lane, err)
			}
			if _, err := s.Begin(lane, nil); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("lane %d: over-cap Begin err = %v, want ErrOverloaded", lane, err)
			}
		}
		if st := s.Stats(); st.Submitted != 3 {
			t.Errorf("submitted = %d, want 3: refusals are not accepted", st.Submitted)
		}
		for _, it := range queued {
			it.Abandon()
		}
		close(release)
		if err := <-gate; err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Drained lanes admit again.
		if err := s.ExecOn(ctx, 0, counterSessionBody(0)); err != nil {
			t.Fatalf("ExecOn after drain: %v", err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionSubmitWorkerOutOfRange: pinned submissions past the
// admitted pool (or negative, other than AnyWorker) are refused
// outright — interactive and blocking alike.
func TestSessionSubmitWorkerOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
	}{
		{"native-tl2", SessionConfig{Workers: 2, Vars: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestSession(t, tc.name, tc.cfg)
			for _, worker := range []int{2, 99, -2} {
				if _, err := s.Begin(worker, func(error) {
					t.Errorf("callback invoked for refused worker %d", worker)
				}); !errors.Is(err, ErrNotAdmitted) {
					t.Errorf("Begin(%d): err = %v, want ErrNotAdmitted", worker, err)
				}
				if err := s.ExecOn(context.Background(), worker, counterSessionBody(0)); !errors.Is(err, ErrNotAdmitted) {
					t.Errorf("ExecOn(%d): err = %v, want ErrNotAdmitted", worker, err)
				}
			}
			if st := s.Stats(); st.Submitted != 0 {
				t.Errorf("refused submissions counted: %+v", st)
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionExecRacesClose floods ExecOn from several goroutines —
// inline, queued on a pinned lane and queued on the shared one — while
// Close runs: every call returns, an accepted one with its commit and
// a refused one with ErrClosed, and the session counts exactly the
// accepted ones. Run with -race.
func TestSessionExecRacesClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
	}{
		{"native-tl2", SessionConfig{Workers: 2, Vars: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestSession(t, tc.name, tc.cfg)
			const floods = 6
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < floods; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					worker := g % 2
					switch g % 3 {
					case 1: // cancellable: the queued path
						var cancel context.CancelFunc
						ctx, cancel = context.WithCancel(ctx)
						defer cancel()
					case 2:
						worker = AnyWorker
					}
					for {
						err := s.ExecOn(ctx, worker, counterSessionBody(0))
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							t.Errorf("flood %d: %v", g, err)
							return
						}
						accepted.Add(1)
					}
				}()
			}
			// Let the flood run, then close under it.
			for accepted.Load() < 100 {
				runtime.Gosched()
			}
			_, cerr := s.Close()
			wg.Wait()
			if cerr != nil {
				t.Fatalf("close: %v", cerr)
			}
			st := s.Stats()
			if n := uint64(accepted.Load()); st.Submitted != n || st.Completed != n || st.Commits != n {
				t.Fatalf("%d calls committed, stats count submitted %d completed %d commits %d",
					n, st.Submitted, st.Completed, st.Commits)
			}
		})
	}
}
