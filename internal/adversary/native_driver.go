package adversary

import (
	"errors"
	"sync"
	"time"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/record"
)

// errDriverStop is the sentinel a gated transaction body returns when
// the driver tears the run down. It is not ErrAborted, so the native
// retry loop abandons the attempt (releasing whatever it holds) and
// surfaces the error instead of retrying.
var errDriverStop = errors.New("adversary: native driver stopped the process")

// advStreamCap bounds the events in flight on the recorder's live
// stream, split into one ring per process. Adversary runs are
// driver-gated and nearly sequential, so small rings suffice.
const advStreamCap = 1024

// advRebiasEvery is how often (in observed events) the pump feeds the
// measured starvation back into the backoff policy. Adversary runs are
// short; a tight cadence makes the bias trajectory visible.
const advRebiasEvery = 32

// nmsg is one process→driver notification. Each process's messages
// arrive in program order on its own channel.
type nmsg struct {
	kind    nmsgKind
	val     int64
	aborted bool
	err     error
}

type nmsgKind int

const (
	// nAtGate: the process is parked at its gate waiting for an action.
	nAtGate nmsgKind = iota
	// nReadDone: p1 finished a granted read (val/aborted filled in).
	nReadDone
	// nCommitted: a whole transaction committed (AtomicallyOpts
	// returned nil and the goroutine armed the next one).
	nCommitted
	// nExited: the process goroutine ended; err is AtomicallyOpts's
	// return (nil when p1's transaction committed).
	nExited
)

// Actions granted at a gate.
const (
	actRead = iota
	actFinish
	actAttempt
)

// nproc is the driver's view of one gated process.
type nproc struct {
	msgs    chan nmsg // process → driver, in program order
	act     chan int  // driver → process, one grant per gate stop
	atGate  bool      // an nAtGate was consumed without granting yet
	crashed bool      // Crash(p): never grant again
}

// NativeDriver drives the strategies against a native (real-
// concurrency) TM: p1 and p2 run as real goroutines inside the shared
// retry loop (native.RunOpts with per-process observers, stop channel
// and backoff), and every strategy step is a gate the driver grants.
// The gates sit inside the transaction bodies, so a granted read
// happens inside p1's open transaction exactly like the simulated
// strategies' mid-transaction suspensions — which is what lets the
// adversary hold p1's transaction open across p2's commits on real
// hardware.
//
// The recorded events stream through the online monitor while the run
// executes (the same record→monitor pump the live engine uses), so the
// result carries per-process starvation intervals, liveness classes
// and the starvation-aware backoff's bias trajectory alongside the
// history.
type NativeDriver struct {
	cfg  Config
	info native.Info
	tm   native.TM
	rec  *record.Recorder
	mon  *monitor.Monitor
	bo   *native.Backoff

	stop     chan struct{}
	pumpDone chan struct{}
	wg       sync.WaitGroup
	procs    [2]*nproc
	p2arm    chan struct{} // closed when Step 2 first releases p2
	p2armed  bool          // driver-side: p2arm already closed

	// Written on the pump goroutine, read after pumpDone closes.
	violation error
	biasTraj  [][]int
}

// NativeResult reports what the adversary achieved against a native
// TM.
type NativeResult struct {
	// Outcome carries the substrate-independent figures.
	Outcome
	// Engine is the native algorithm's report name ("native-tl2").
	Engine string
	// Strategy is the strategy that ran.
	Strategy Strategy
	// History is the recorded history of the run (including the
	// teardown aborts of transactions the stop released).
	History model.History
	// TMStats is the algorithm's own commit/abort accounting.
	TMStats native.Stats
	// Report is the online monitor's verdict over the streamed events:
	// opacity, per-process progress, starvation intervals
	// (Report.StarvationIntervals) and liveness classes.
	Report monitor.Report
	// Violation is the monitor's terminal safety error, if the
	// recorded stream violated opacity (nil against a correct TM).
	Violation error
	// BackoffBias is each process's final backoff bias.
	BackoffBias []int
	// BiasTrajectory is the bias snapshot at every starvation-feedback
	// rebias, in order — how the contention manager leaned over the
	// run.
	BiasTrajectory [][]int
}

// RunNative runs strategy s against a fresh instance of the native
// algorithm. It errors only on misconfiguration (an unknown variant);
// the adversary's outcomes — starvation, blocking — land in the result.
func RunNative(info native.Info, s Strategy, cfg Config) (NativeResult, error) {
	cfg = cfg.withDefaults()
	if err := s.validate(); err != nil {
		return NativeResult{}, err
	}
	tm, err := info.New(1)
	if err != nil {
		return NativeResult{}, err
	}
	d := &NativeDriver{
		cfg:      cfg,
		info:     info,
		tm:       tm,
		bo:       native.NewBackoff(2),
		stop:     make(chan struct{}),
		pumpDone: make(chan struct{}),
		p2arm:    make(chan struct{}),
	}
	// No Options.Stop: the pump drains the stream until CloseStream, so
	// publishers never need the departed-consumer escape hatch — and
	// taking it at teardown would mute a log's final flush and starve
	// the resequencer of the early sequence numbers it is waiting on.
	d.rec = record.NewWithOptions(2, record.Options{
		CapacityHint:   cfg.Rounds*16 + 16,
		StreamCapacity: advStreamCap,
	})
	d.mon, err = monitor.New(monitor.Config{
		Procs:      []model.Proc{1, 2},
		Approx:     true,
		RecordGaps: true,
	})
	if err != nil {
		return NativeResult{}, err
	}
	pump := &monitor.Pump{
		Mon:         d.mon,
		Procs:       2,
		OnViolation: func(err error) { d.violation = err },
		RebiasEvery: advRebiasEvery,
		Rebias: func(starvation []int) {
			d.bo.Rebias(starvation)
			d.biasTraj = append(d.biasTraj, d.bo.BiasSnapshot())
		},
	}
	go func() {
		defer close(d.pumpDone)
		pump.Run(d.rec)
	}()
	d.procs[0] = &nproc{msgs: make(chan nmsg, 4), act: make(chan int, 1)}
	d.procs[1] = &nproc{msgs: make(chan nmsg, 4), act: make(chan int, 1)}
	d.spawnP1()
	d.spawnP2()

	outcome := drive(d, s, cfg)
	d.close()

	res := NativeResult{
		Outcome:        outcome,
		Engine:         info.Name,
		Strategy:       s,
		History:        d.rec.History(),
		TMStats:        tm.Stats(),
		Report:         d.mon.Report(),
		Violation:      d.violation,
		BackoffBias:    d.bo.BiasSnapshot(),
		BiasTrajectory: d.biasTraj,
	}
	return res, nil
}

// opts builds process p's run options: its recorder log as observer,
// the driver's stop channel, and its slot in the shared backoff
// policy.
func (d *NativeDriver) opts(p int) native.RunOpts {
	return native.RunOpts{
		Observer: d.rec.Log(model.Proc(p)),
		Stop:     d.stop,
		Backoff:  d.bo,
		Proc:     p - 1,
	}
}

// spawnP1 starts the victim. Its transaction body is a command loop:
// each granted read happens inside the current attempt, so the
// transaction stays open across grants; actFinish writes last+1 and
// returns nil, handing the attempt to the retry loop's tryCommit. An
// aborted operation returns ErrAborted to the retry loop, which backs
// off and re-enters the body — p1 parks at the gate again, exactly the
// strategies' "on abort, return to Step 1".
func (d *NativeDriver) spawnP1() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		err := d.tm.AtomicallyOpts(d.opts(1), func(tx native.Txn) error {
			var last int64
			hasRead := false
			for {
				act, ok := d.await(0)
				if !ok {
					return errDriverStop
				}
				switch act {
				case actRead:
					v, rerr := tx.Read(int(X))
					d.post(0, nmsg{kind: nReadDone, val: v, aborted: rerr != nil})
					if rerr != nil {
						return rerr
					}
					last, hasRead = v, true
				case actFinish:
					if !hasRead {
						return errDriverStop
					}
					if werr := tx.Write(int(X), last+1); werr != nil {
						return werr
					}
					return nil
				}
			}
		})
		d.post(0, nmsg{kind: nExited, err: err})
	}()
}

// spawnP2 starts the committer. Each grant is one transaction attempt
// (read x, write v+1, hand the attempt to tryCommit); a committed
// transaction posts nCommitted and immediately arms the next
// AtomicallyOpts, whose first attempt parks at the gate again.
func (d *NativeDriver) spawnP2() {
	d.wg.Add(1)
	arm := d.p2arm
	go func() {
		defer d.wg.Done()
		// Hold off the first begin until the strategy reaches Step 2:
		// on a blocking TM an eager begin would race p1 for the lock
		// and wedge Step 1 itself.
		select {
		case <-arm:
		case <-d.stop:
			return
		}
		for {
			err := d.tm.AtomicallyOpts(d.opts(2), func(tx native.Txn) error {
				if _, ok := d.await(1); !ok {
					return errDriverStop
				}
				v, rerr := tx.Read(int(X))
				if rerr != nil {
					return rerr
				}
				return tx.Write(int(X), v+1)
			})
			if err != nil {
				d.post(1, nmsg{kind: nExited, err: err})
				return
			}
			d.post(1, nmsg{kind: nCommitted})
		}
	}()
}

// await parks the calling process at its gate: announce, then wait for
// the driver's action. False means the driver is tearing down.
func (d *NativeDriver) await(i int) (int, bool) {
	select {
	case d.procs[i].msgs <- nmsg{kind: nAtGate}:
	case <-d.stop:
		return 0, false
	}
	select {
	case a := <-d.procs[i].act:
		return a, true
	case <-d.stop:
		return 0, false
	}
}

// post sends one notification, or drops it when the driver already
// stopped listening.
func (d *NativeDriver) post(i int, m nmsg) {
	select {
	case d.procs[i].msgs <- m:
	case <-d.stop:
	}
}

// recv waits for process i+1's next message within the block timeout.
func (d *NativeDriver) recv(i int) (nmsg, bool) {
	t := time.NewTimer(d.cfg.BlockTimeout)
	defer t.Stop()
	select {
	case m := <-d.procs[i].msgs:
		return m, true
	case <-t.C:
		return nmsg{}, false
	}
}

// atGate waits until process i+1 is parked at its gate. False means
// the process is blocked inside the TM (or crashed) — it never reached
// the gate within the budget.
func (d *NativeDriver) atGate(i int) bool {
	p := d.procs[i]
	if p.crashed {
		return false
	}
	if p.atGate {
		p.atGate = false
		return true
	}
	m, ok := d.recv(i)
	return ok && m.kind == nAtGate
}

// Read implements Driver: grant p one read of x inside its open
// transaction.
func (d *NativeDriver) Read(p int) StepResult {
	i := p - 1
	if !d.atGate(i) {
		return StepResult{Blocked: true}
	}
	d.procs[i].act <- actRead
	m, ok := d.recv(i)
	if !ok || m.kind != nReadDone {
		return StepResult{Blocked: true}
	}
	return StepResult{Val: model.Value(m.val), OK: !m.aborted}
}

// Finish implements Driver: grant p its write-and-commit step. The
// value is implicit — p1's body tracked its own last read — so v only
// documents the strategy's intent. OK means AtomicallyOpts returned
// nil: the transaction committed.
func (d *NativeDriver) Finish(p int, v model.Value) StepResult {
	i := p - 1
	if !d.atGate(i) {
		return StepResult{Blocked: true}
	}
	d.procs[i].act <- actFinish
	m, ok := d.recv(i)
	if !ok {
		return StepResult{Blocked: true}
	}
	switch m.kind {
	case nExited:
		return StepResult{OK: m.err == nil}
	case nAtGate:
		// The write or the tryCommit aborted; the retry loop re-entered
		// the body and p is parked at the gate for the next round.
		d.procs[i].atGate = true
		return StepResult{OK: false}
	}
	return StepResult{Blocked: true}
}

// Attempt implements Driver: grant p one whole transaction attempt.
func (d *NativeDriver) Attempt(p int) StepResult {
	i := p - 1
	if i == 1 {
		d.armP2()
	}
	if !d.atGate(i) {
		return StepResult{Blocked: true}
	}
	d.procs[i].act <- actAttempt
	m, ok := d.recv(i)
	if !ok {
		return StepResult{Blocked: true}
	}
	switch m.kind {
	case nCommitted:
		return StepResult{OK: true}
	case nAtGate:
		// The attempt aborted; the retry loop re-entered the body.
		d.procs[i].atGate = true
		return StepResult{OK: false}
	}
	return StepResult{Blocked: true}
}

// Crash implements Driver: p takes no further steps. Whatever its open
// transaction holds stays held — on a blocking TM the crashed process
// wedges everyone else, which is exactly Figure 9's point.
func (d *NativeDriver) Crash(p int) {
	d.procs[p-1].crashed = true
}

// armP2 releases p2's first AtomicallyOpts (idempotent; driver
// goroutine only).
func (d *NativeDriver) armP2() {
	if !d.p2armed {
		d.p2armed = true
		close(d.p2arm)
	}
}

// close tears the run down: release every gated process (their
// attempts abandon, so held locks free and blocked peers drain), wait
// for the goroutines, then flush the stream so the pump's monitor
// report is complete.
func (d *NativeDriver) close() {
	close(d.stop)
	// Drain any in-flight notifications so no process blocks on a full
	// message channel while unwinding (post also selects on stop, but
	// messages sent before the close may still be buffered).
	for _, p := range d.procs {
		for {
			select {
			case <-p.msgs:
				continue
			default:
			}
			break
		}
	}
	d.wg.Wait()
	d.rec.CloseStream()
	<-d.pumpDone
}
