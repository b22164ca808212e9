package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/server"
)

// A trial builds the workload's layers fresh from the seed, warms them
// up with a fixed operation count, collects garbage, runs a fixed
// operation count inside the timed window — which ends only when the
// verdict or report is in hand — and checks the outputs. Operation
// counts are fixed, not durations, so two commits do the same work.

// drivers is the number of closed-loop callers of every concurrent
// workload: each waits for its reply before issuing the next operation.
const drivers = 2

// sizes fixes one workload's operation counts.
type sizes struct {
	// pool, warm and ops are per driver: programs generated, warm-up
	// operations, timed operations.
	pool, warm, ops int
	// simSteps and warmSteps size check-replay's recorded history and
	// its warm-up history (cooperative-scheduler steps).
	simSteps, warmSteps int
}

// trialCfg is everything one trial depends on.
type trialCfg struct {
	seed uint64
	size sizes
	// tr, when non-nil, makes this a traced trial: the decorators are
	// installed and every operation carries a transaction id.
	tr *tracer
	// outDir receives the evidence a failed trial leaves behind.
	outDir string
}

// trialResult is what one trial measured and checked.
type trialResult struct {
	setup  time.Duration // trial start → first timed operation
	window time.Duration // first timed operation → verdict in hand
	// commits counts the transactions committed inside the window.
	commits int
	// attempted and failed count every operation the trial issued
	// (warm-up, timed, read-back) and those that were refused, errored,
	// stopped, did not commit, or failed an output check.
	attempted, failed int
	// problems describes the failed output checks.
	problems []string
	// allocs and allocBytes are the runtime.MemStats Mallocs and
	// TotalAlloc deltas over the window.
	allocs, allocBytes uint64
	// lat holds the caller-observed latency of every timed operation in
	// ns per driver, in operation order; nil on the workloads without a
	// caller to observe one (tm-direct, check-replay).
	lat [][]float64

	// Layer-side evidence, read by the traced run.
	tmStats   native.Stats
	sessStats engine.SessionStats
	report    *monitor.Report
	openNS    int64
	closeNS   int64
	history   model.History
	trace     []byte
	pools     [][]program
}

func (r *trialResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// drive runs ops operations on each of the drivers goroutines in a
// closed loop and returns, per driver, the indices whose operation
// failed. With timed set it also returns the caller-observed latency
// of every operation; untimed loops read no clock at all, so two clock
// reads never sit around a sub-microsecond call.
func drive(ops int, timed bool, op func(d, i int) error) (failed [][]int, lat [][]float64) {
	failed = make([][]int, drivers)
	lat = make([][]float64, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		if timed {
			lat[d] = make([]float64, 0, ops)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				var start time.Time
				if timed {
					start = time.Now()
				}
				if err := op(d, i); err != nil {
					failed[d] = append(failed[d], i)
				}
				if timed {
					lat[d] = append(lat[d], float64(time.Since(start).Nanoseconds()))
				}
			}
		}()
	}
	wg.Wait()
	return failed, lat
}

// memWindow brackets the timed window with runtime.MemStats reads.
type memWindow struct {
	before runtime.MemStats
	begin  time.Time
}

// openWindow ends the set-up phase: collect garbage, snapshot the
// allocator, start the clock.
func openWindow(r *trialResult, trialStart time.Time) *memWindow {
	runtime.GC()
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	w.begin = time.Now()
	r.setup = w.begin.Sub(trialStart)
	return w
}

func (w *memWindow) close(r *trialResult) {
	r.window = time.Since(w.begin)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocs = after.Mallocs - w.before.Mallocs
	r.allocBytes = after.TotalAlloc - w.before.TotalAlloc
}

// conserve is the conservation check: the final value of every
// variable, read back through the workload's own API, must equal the
// increments committed to it.
func conserve(r *trialResult, got []int64, pools [][]program, warm, ops int, warmFailed, failed [][]int) {
	merged := make([][]int, len(pools))
	for d := range merged {
		merged[d] = append(merged[d], warmFailed[d]...)
		for _, i := range failed[d] {
			merged[d] = append(merged[d], warm+i) // timed indices continue the warm-up's
		}
	}
	want := expected(len(got), pools, warm+ops, merged)
	for v := range want {
		if got[v] != want[v] {
			r.fail("conservation: variable %d holds %d, committed increments say %d", v, got[v], want[v])
		}
	}
}

func countFailed(failed [][]int) int {
	n := 0
	for _, f := range failed {
		n += len(f)
	}
	return n
}

// allVars is the read-back program: one read of every variable.
func allVars(vars int) program {
	p := program{reads: make([]int, vars)}
	for v := range p.reads {
		p.reads[v] = v
	}
	return p
}

// --- tm-direct ---

const directVars = 64

func directShape(s sizes) shape {
	return shape{salt: 1, drivers: drivers, pool: s.pool, vars: directVars,
		readOnlyPct: 50, roReads: 8, upReads: 1, upIncrs: 2}
}

// trialDirect is the library path: two goroutines calling
// TM.Atomically on native-tl2 with nothing in between. The programs
// are drawn from in (tm-direct's own shape, or session-live's for the
// bare-TM rungs of its ladder); a non-nil observers calls
// AtomicallyObserved with one observer per driver instead.
func trialDirect(c trialCfg, in shape, observers []native.Observer) trialResult {
	var r trialResult
	t0 := time.Now()
	r.pools = in.generate(c.seed)
	tm, err := native.New("native-tl2", in.vars)
	if err != nil {
		r.fail("native.New: %v", err)
		return r
	}
	// The transaction function is built per call, as library users (and
	// the engine's own native adapter) write it: one closure per
	// Atomically, which is also the call's only steady-state allocation.
	program := func(d, i int) func(native.Txn) error {
		p := &r.pools[d][i%len(r.pools[d])]
		return func(tx native.Txn) error { return p.run(tx) }
	}
	call := func(d int, fn func(native.Txn) error) error {
		if observers != nil {
			return native.AtomicallyObserved(tm, observers[d], fn)
		}
		return tm.Atomically(fn)
	}

	warmFailed, _ := drive(c.size.warm, false, func(d, i int) error { return call(d, program(d, i)) })
	w := openWindow(&r, t0)
	base := tm.Stats()
	// Timed operations continue the pool where the warm-up left off.
	timed := func(d, i int) error { return call(d, program(d, c.size.warm+i)) }
	if c.tr != nil {
		timed = func(d, i int) error {
			id := txnID(d, i)
			start := c.tr.now()
			err := call(d, c.tr.nativeFn(1, id, program(d, c.size.warm+i)))
			c.tr.add(0, id, start, c.tr.now())
			return err
		}
	}
	failed, _ := drive(c.size.ops, false, timed)
	w.close(&r)

	st := tm.Stats()
	r.tmStats = native.Stats{Commits: st.Commits - base.Commits, Aborts: st.Aborts - base.Aborts}
	r.commits = c.size.ops*drivers - countFailed(failed)
	r.attempted = (c.size.warm+c.size.ops)*drivers + 1
	r.failed += countFailed(warmFailed) + countFailed(failed)
	if int(r.tmStats.Commits) != r.commits {
		r.fail("tm-direct: TM counted %d commits, drivers %d", r.tmStats.Commits, r.commits)
	}

	got := make([]int64, in.vars)
	if err := tm.Atomically(func(tx native.Txn) error {
		for v := range got {
			x, err := tx.Read(v)
			if err != nil {
				return err
			}
			got[v] = x
		}
		return nil
	}); err != nil {
		r.fail("tm-direct: read-back: %v", err)
		return r
	}
	conserve(&r, got, r.pools, c.size.warm, c.size.ops, warmFailed, failed)
	return r
}

// --- session-live (and its plain / recorded rungs) ---

const sessionVars = 32

// sessionMode selects the layers a session trial stacks on the TM.
type sessionMode int

const (
	sessionPlain  sessionMode = iota // worker pool only
	sessionRecord                    // + recorder, history retained
	sessionLive                      // + stream, resequencer, monitor, checker, cuts
	// sessionLiveRecorded is sessionLive with the history retained: the
	// evidence rerun after a live stop (see keepStop).
	sessionLiveRecorded
)

func sessionShape(s sizes) shape {
	return shape{salt: 2, drivers: drivers, pool: s.pool, vars: sessionVars, upReads: 1, upIncrs: 1}
}

// trialSession is the `livetm run/monitor -live` user: two submitters,
// each pinned to one worker of a native-tl2 session, with the window
// ending when Close hands back the monitor's report.
func trialSession(c trialCfg, mode sessionMode) trialResult {
	var r trialResult
	t0 := time.Now()
	r.pools = sessionShape(c.size).generate(c.seed)
	openStart := time.Now()
	cfg := engine.SessionConfig{
		Engine: "native-tl2", Workers: drivers, Vars: sessionVars,
		Record: mode == sessionRecord || mode == sessionLiveRecorded,
		Live:   mode == sessionLive || mode == sessionLiveRecorded,
	}
	if mode == sessionRecord {
		// The live session's default cut cadence, so the recorded rung
		// pays the same pauses and its history has the live stream's cuts.
		cfg.QuiesceEvery = 4
	}
	sess, err := engine.Open(cfg)
	if err != nil {
		r.fail("engine.Open: %v", err)
		return r
	}
	r.openNS = time.Since(openStart).Nanoseconds()
	body := func(d, i int) engine.Body {
		p := &r.pools[d][i%len(r.pools[d])]
		return func(tx engine.Tx) error { return p.run(tx) }
	}
	var sub engine.Submitter = sess
	if c.tr != nil {
		sub = &tracedBackend{Backend: sess, t: c.tr, level: 0}
	}
	ctx := context.Background()
	warm := func(d, i int) error { return sess.ExecOn(ctx, d, body(d, i)) }
	timed := func(d, i int) error {
		opCtx := ctx
		if c.tr != nil {
			opCtx = withTxn(ctx, txnID(d, i))
		}
		return sub.ExecOn(opCtx, d, body(d, c.size.warm+i))
	}

	warmFailed, _ := drive(c.size.warm, false, warm)
	w := openWindow(&r, t0)
	base := sess.Stats()
	var failed [][]int
	failed, r.lat = drive(c.size.ops, true, timed)
	// The read-back is the window's last transaction: after Close the
	// session serves nothing, and the window must end at the verdict.
	got := make([]int64, 0, sessionVars)
	readBack := allVars(sessionVars)
	rbErr := sess.ExecOn(ctx, 0, func(tx engine.Tx) error {
		got = got[:0]
		for _, v := range readBack.reads {
			x, err := tx.Read(v)
			if err != nil {
				return err
			}
			got = append(got, x)
		}
		return nil
	})
	closeStart := time.Now()
	rep, closeErr := sess.Close()
	r.closeNS = time.Since(closeStart).Nanoseconds()
	w.close(&r)

	r.report = rep
	r.sessStats = sess.Stats()
	r.history = sess.History()
	r.commits = c.size.ops*drivers - countFailed(failed)
	r.attempted = (c.size.warm+c.size.ops)*drivers + 1
	r.failed += countFailed(warmFailed) + countFailed(failed)
	if got, want := int(r.sessStats.Commits-base.Commits), r.commits+1; got != want && rbErr == nil {
		r.fail("session: session counted %d commits in the window, drivers %d", got, want)
	}
	r.sessStats.Aborts -= base.Aborts
	if closeErr != nil {
		r.fail("session: Close: %v", closeErr)
	}
	if mode == sessionLive {
		switch {
		case rep == nil:
			r.fail("session-live: no monitor report")
		case !rep.Checked || !rep.Opacity.Holds:
			r.fail("session-live: report is not Checked && Opacity.Holds (checked=%v holds=%v reason=%q)",
				rep.Checked, rep.Opacity.Holds, rep.Opacity.Reason)
		}
		if r.sessStats.Stopped || closeErr != nil {
			keepStop(c, rep, closeErr)
		}
	}
	if rbErr != nil {
		r.fail("session: read-back: %v", rbErr)
		return r
	}
	conserve(&r, got, r.pools, c.size.warm, c.size.ops, warmFailed, failed)
	return r
}

// stopTailEvents is how much of a recorded history keepStop retains.
const stopTailEvents = 4096

// keepStop preserves the evidence of a live stop for a later
// correctness issue: the monitor's final report with the failing
// segment, and a recorded tail. A live session recycles the events it
// has streamed, so the stopped session itself has no history left; the
// same inputs are run once more with the history retained, and the last
// stopTailEvents events of that run are kept whether or not it stops
// too. Best effort: the trial has already failed.
func keepStop(c trialCfg, rep *monitor.Report, closeErr error) {
	if c.outDir == "" {
		return
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return
	}
	base := filepath.Join(c.outDir, fmt.Sprintf("session-live-stop-seed%d-%d", c.seed, time.Now().UnixNano()))
	c.tr = nil
	rerun := trialSession(c, sessionLiveRecorded)

	var b bytes.Buffer
	fmt.Fprintf(&b, "session-live stopped by the live monitor\nseed=%d ops=%d warm=%d\nclose error: %v\n", c.seed, c.size.ops, c.size.warm, closeErr)
	if rep != nil {
		b.WriteString(rep.Format())
		fmt.Fprintf(&b, "reason: %s\n", rep.Opacity.Reason)
	}
	fmt.Fprintf(&b, "recorded rerun of the same inputs: stopped=%v, last %d of %d events in %s\n",
		rerun.sessStats.Stopped, min(len(rerun.history), stopTailEvents), len(rerun.history), filepath.Base(base)+".tail.jsonl")
	_ = os.WriteFile(base+".txt", b.Bytes(), 0o644) // best effort, see above

	tail := rerun.history[max(len(rerun.history)-stopTailEvents, 0):]
	_ = model.SaveTrace(base+".tail.jsonl", tail) // best effort, see above
}

// --- check-replay ---

// The recorded history is the workload matrix's cut-starved cell
// (writeheavy/cold/disjoint on sim-tl2) at five processes: every
// process works its own 16-variable partition, the interleaved stream
// never quiesces, and the checker has to force every frontier. Five
// processes, not the matrix's eight: a forced window's search cost
// grows about 6x per added process and varies with the interleaving,
// so at eight a 20-second run fits four replays whose cost moves ±8%
// with the seed alone; at five it fits forty windows per replay and the
// seed moves allocations per commit by under half a percent.
const (
	replayProcs       = 5
	replayVarsPerProc = 16
	replaySegmentTxns = 48
)

func replayShape(s sizes) shape {
	return shape{salt: 3, drivers: replayProcs, pool: s.pool, vars: replayProcs * replayVarsPerProc,
		partition: replayVarsPerProc, upReads: 1, upIncrs: 4}
}

// recordTrace records the deterministic sim-tl2 history of the pools
// under the given step budget and encodes it as a trace file image.
func recordTrace(pools [][]program, seed uint64, steps int) ([]byte, engine.Stats, error) {
	e, ok := engine.Lookup("sim-tl2")
	if !ok {
		return nil, engine.Stats{}, errors.New("engine sim-tl2 is not registered")
	}
	st, err := e.Run(engine.RunConfig{
		Procs: replayProcs, Vars: replayProcs * replayVarsPerProc,
		Seed: seed, SimSteps: steps, Record: true,
	}, func(proc, round int, tx engine.Tx) error {
		return pools[proc][round%len(pools[proc])].run(tx)
	})
	if err != nil {
		return nil, st, fmt.Errorf("record on sim-tl2: %w", err)
	}
	var buf bytes.Buffer
	if err := model.WriteTrace(&buf, st.History); err != nil {
		return nil, st, err
	}
	return buf.Bytes(), st, nil
}

// replay is the timed operation: decode the trace, feed it to a fresh
// monitor, and take the report. A traced trial spans the three steps.
func replay(trace []byte, tr *tracer, id uint64) (monitor.Report, int, error) {
	stamp := func(name string, start int64) int64 {
		if tr == nil {
			return 0
		}
		now := tr.now()
		if name != "" {
			tr.addNamed(1, id, name, start, now)
		}
		return now
	}
	t0 := stamp("", 0)
	h, err := model.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		return monitor.Report{}, 0, err
	}
	t1 := stamp("model.decode", t0)
	m, err := monitor.New(monitor.Config{SegmentTxns: replaySegmentTxns, Approx: true})
	if err != nil {
		return monitor.Report{}, 0, err
	}
	obsErr := m.ObserveHistory(h)
	t2 := stamp("monitor.observe", t1)
	rep := m.Report()
	stamp("monitor.report", t2)
	if tr != nil {
		tr.add(0, id, t0, tr.now())
	}
	return rep, len(h), obsErr
}

// verdict is the part of a replay's report that must repeat exactly.
type verdict struct {
	Checked, Holds, Approx bool
	Events, Segments       int
	Forced, Relaxed        int
	Class                  string
}

func verdictOf(rep monitor.Report) verdict {
	return verdict{
		Checked: rep.Checked, Holds: rep.Opacity.Holds, Approx: rep.Opacity.Approx,
		Events: rep.Events, Segments: rep.Opacity.Segments,
		Forced: rep.Opacity.ForcedCuts, Relaxed: rep.Opacity.RelaxedStraddlers,
		Class: rep.LivenessClass(),
	}
}

// replayPin is what every check-replay trial of one run must
// reproduce: the trace bytes and the verdict are functions of the seed
// alone. The first trial pins them; bench_test pins seed 1's values.
type replayPin struct {
	mu      sync.Mutex
	digest  string
	verdict verdict
}

func (p *replayPin) check(r *trialResult, digest string, v verdict) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.digest == "" {
		p.digest, p.verdict = digest, v
		return
	}
	if digest != p.digest {
		r.fail("check-replay: trace digest %s differs from the run's first trial %s", digest, p.digest)
	}
	if v != p.verdict {
		r.fail("check-replay: verdict %+v differs from the run's first trial %+v", v, p.verdict)
	}
}

// trialReplay is the `livetm check/monitor -file` user: a recorded
// trace decoded and checked post hoc, single-threaded, on the
// approximate-fallback path.
func trialReplay(c trialCfg, pin *replayPin) trialResult {
	var r trialResult
	t0 := time.Now()
	r.pools = replayShape(c.size).generate(c.seed)
	trace, st, err := recordTrace(r.pools, c.seed, c.size.simSteps)
	if err != nil {
		r.fail("check-replay: %v", err)
		return r
	}
	warmTrace, _, err := recordTrace(r.pools, c.seed+1, c.size.warmSteps)
	if err != nil {
		r.fail("check-replay: warm-up: %v", err)
		return r
	}
	r.attempted = 2
	if rep, _, err := replay(warmTrace, nil, 0); err != nil || !rep.Checked || !rep.Opacity.Holds {
		r.fail("check-replay: warm-up replay: err=%v checked=%v holds=%v", err, rep.Checked, rep.Opacity.Holds)
	}
	w := openWindow(&r, t0)
	rep, events, err := replay(trace, c.tr, txnID(0, 0))
	w.close(&r)

	r.report = &rep
	r.trace = trace
	r.commits = int(st.Commits)
	sum := sha256.Sum256(trace)
	v := verdictOf(rep)
	switch {
	case err != nil:
		r.fail("check-replay: observe: %v", err)
	case !v.Checked || !v.Holds:
		r.fail("check-replay: a sim-tl2 history must check opaque (checked=%v holds=%v reason=%q)", v.Checked, v.Holds, rep.Opacity.Reason)
	case events != len(st.History) || v.Events != events:
		r.fail("check-replay: decoded %d and observed %d of %d recorded events", events, v.Events, len(st.History))
	}
	var commits int
	for _, p := range rep.Procs {
		commits += int(p.Commits)
	}
	if commits != r.commits {
		r.fail("check-replay: monitor counted %d commits, the recording run %d", commits, r.commits)
	}
	pin.check(&r, hex.EncodeToString(sum[:]), v)
	return r
}

// --- wire-mixed ---

func wireShape(s sizes) shape {
	return shape{salt: 4, drivers: drivers, pool: s.pool, vars: sessionVars,
		readOnlyPct: 50, roReads: 8, upReads: 1, upIncrs: 2}
}

// wireMaxInflight is `livetm serve -listen`'s default admission cap:
// admission runs on every request and never refuses two callers.
const wireMaxInflight = 256

// trialWire is the `livetm serve -listen` user: a non-live native-tl2
// session behind the wire server on a loopback listener, two clients
// with their own connection each, the window ending at the remote
// drain.
func trialWire(c trialCfg) trialResult {
	var r trialResult
	t0 := time.Now()
	r.pools = wireShape(c.size).generate(c.seed)
	progs := make([][][]server.Op, drivers)
	for d, pool := range r.pools {
		progs[d] = make([][]server.Op, len(pool))
		for i := range pool {
			progs[d][i] = pool[i].ops()
		}
	}
	sess, err := engine.Open(engine.SessionConfig{Engine: "native-tl2", Workers: drivers, Vars: sessionVars})
	if err != nil {
		r.fail("engine.Open: %v", err)
		return r
	}
	var backend server.Backend = sess
	if c.tr != nil {
		backend = &tracedBackend{Backend: sess, t: c.tr, level: 3}
	}
	srv := server.New(backend, server.Config{
		MaxInflight: wireMaxInflight,
		Info:        server.InfoResponse{Engine: "native-tl2", Workers: drivers, Vars: sessionVars},
	})
	handler := srv.Handler()
	if c.tr != nil {
		handler = &tracedHandler{next: handler, t: c.tr, level: 2}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail("listen: %v", err)
		_, _ = sess.Close() // nothing was served; the listen error is the report
		return r
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed at Close below
	}()
	transports := make([]*http.Transport, drivers)
	clients := make([]*client.Client, drivers)
	for d := range clients {
		transports[d] = &http.Transport{MaxIdleConnsPerHost: 1}
		var rt http.RoundTripper = transports[d]
		if c.tr != nil {
			rt = &tracedTransport{next: rt, t: c.tr, level: 1}
		}
		clients[d] = client.New(client.Config{
			Addr: ln.Addr().String(), Name: fmt.Sprintf("bench-%d", d),
			HTTPClient: &http.Client{Transport: rt},
		})
	}
	defer func() {
		_ = hs.Close() // the drain already completed every request
		<-served
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}()

	ctx := context.Background()
	exec := func(opCtx context.Context, d, i int) error {
		ops := progs[d][i%len(progs[d])]
		resp, err := clients[d].Exec(opCtx, d, ops)
		switch {
		case err != nil:
			return err
		case !resp.Committed:
			return errors.New("not committed")
		case len(resp.Reads) != len(ops):
			return fmt.Errorf("%d reads for %d ops", len(resp.Reads), len(ops))
		}
		return nil
	}
	warm := func(d, i int) error { return exec(ctx, d, i) }
	timed := func(d, i int) error {
		if c.tr == nil {
			return exec(ctx, d, c.size.warm+i)
		}
		id := txnID(d, i)
		start := c.tr.now()
		err := exec(withTxn(ctx, id), d, c.size.warm+i)
		c.tr.add(0, id, start, c.tr.now())
		return err
	}

	warmFailed, _ := drive(c.size.warm, false, warm)
	w := openWindow(&r, t0)
	var failed [][]int
	failed, r.lat = drive(c.size.ops, true, timed)
	readBack := allVars(sessionVars)
	rb, rbErr := clients[0].Exec(ctx, 0, readBack.ops())
	closeStart := time.Now()
	dr, drainErr := clients[0].Drain(ctx)
	r.closeNS = time.Since(closeStart).Nanoseconds()
	w.close(&r)

	r.sessStats = dr.Stats
	r.commits = c.size.ops*drivers - countFailed(failed)
	r.attempted = (c.size.warm+c.size.ops)*drivers + 1
	r.failed += countFailed(warmFailed) + countFailed(failed)
	if drainErr != nil || dr.Code != "" {
		r.fail("wire-mixed: drain: err=%v code=%q %s", drainErr, dr.Code, dr.Error)
	} else if want := (c.size.warm+c.size.ops)*drivers - countFailed(warmFailed) - countFailed(failed) + 1; int(dr.Stats.Commits) != want && rbErr == nil {
		r.fail("wire-mixed: session counted %d commits, clients %d", dr.Stats.Commits, want)
	}
	if rbErr != nil || !rb.Committed || len(rb.Reads) != sessionVars {
		r.fail("wire-mixed: read-back: err=%v committed=%v reads=%d", rbErr, rb.Committed, len(rb.Reads))
		return r
	}
	conserve(&r, rb.Reads, r.pools, c.size.warm, c.size.ops, warmFailed, failed)
	return r
}

// pooledLatency sorts a trial's latency samples into one slice.
func pooledLatency(lat [][]float64) []float64 {
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	slices.Sort(all)
	return all
}
