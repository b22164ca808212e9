package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"livetm/internal/monitor"
	"livetm/internal/native"
)

// bogusTM is a deliberately broken "TM" for violation injection: every
// read returns a fresh value nobody ever wrote, which no legal
// serialization can explain, and every commit succeeds. It implements
// the full native.TM surface so the live monitor can watch it fail.
type bogusTM struct {
	vars    int
	ctr     atomic.Int64
	commits atomic.Uint64
}

type bogusTxn struct{ tm *bogusTM }

func (tx bogusTxn) Read(i int) (int64, error)  { return 1000 + tx.tm.ctr.Add(1), nil }
func (tx bogusTxn) Write(i int, v int64) error { return nil }

func (b *bogusTM) Name() string        { return "native-bogus" }
func (b *bogusTM) Vars() int           { return b.vars }
func (b *bogusTM) Stats() native.Stats { return native.Stats{Commits: b.commits.Load()} }

func (b *bogusTM) Atomically(fn func(native.Txn) error) error {
	return b.AtomicallyOpts(native.RunOpts{}, fn)
}

func (b *bogusTM) AtomicallyOpts(opts native.RunOpts, fn func(native.Txn) error) error {
	if g := opts.Gate; g != nil {
		if !g.Enter() {
			return native.ErrStopped
		}
		defer g.Leave()
	}
	obs := opts.Observer
	tx := bogusTxn{tm: b}
	var wrapped native.Txn = tx
	if obs != nil {
		wrapped = bogusObserved{tx: tx, obs: obs}
	}
	if err := fn(wrapped); err != nil {
		if obs != nil {
			obs.Abandon()
		}
		return err
	}
	if obs != nil {
		obs.TryCommitInv()
	}
	b.commits.Add(1)
	if obs != nil {
		obs.TryCommitReturn(true)
	}
	return nil
}

type bogusObserved struct {
	tx  bogusTxn
	obs native.Observer
}

func (o bogusObserved) Read(i int) (int64, error) {
	o.obs.ReadInv(i)
	v, err := o.tx.Read(i)
	o.obs.ReadReturn(i, v, false)
	return v, err
}

func (o bogusObserved) Write(i int, v int64) error {
	o.obs.WriteInv(i, v)
	err := o.tx.Write(i, v)
	o.obs.WriteReturn(i, v, false)
	return err
}

func bogusEngine() *NativeEngine {
	return NewNative(native.Info{
		Name: "native-bogus", Nonblocking: true,
		New: func(n int) (native.TM, error) { return &bogusTM{vars: n}, nil },
	})
}

// TestLiveMonitorStopsViolatingRun is the acceptance check for
// mid-flight cancellation: a native run whose TM serves impossible
// reads must be stopped by the live monitor long before its budget,
// with the violation verdict in the stats. Run with -race.
func TestLiveMonitorStopsViolatingRun(t *testing.T) {
	const procs, ops = 3, 200000
	for _, e := range []*NativeEngine{bogusEngine(), lyingEngine(t, "native-tl2"), lyingEngine(t, "native-mutex")} {
		t.Run(e.Name(), func(t *testing.T) {
			st, err := e.Run(RunConfig{
				Procs: procs, Vars: 2, OpsPerProc: ops, Live: true,
			}, func(proc, round int, tx Tx) error {
				_, err := tx.Read(0)
				return err
			})
			if !errors.Is(err, ErrLiveViolation) {
				t.Fatalf("err = %v, want ErrLiveViolation", err)
			}
			if !st.Stopped {
				t.Error("Stats.Stopped must report the cancellation")
			}
			if st.Live == nil {
				t.Fatal("no live report")
			}
			if !st.Live.Checked || st.Live.Opacity.Holds {
				t.Fatalf("live verdict must be a violation: %+v", st.Live.Opacity)
			}
			if st.Live.Opacity.Reason == "" {
				t.Error("violation verdict must carry a reason")
			}
			if st.Commits >= uint64(procs*ops) {
				t.Fatalf("run completed its whole budget (%d commits) — not stopped mid-flight", st.Commits)
			}
			// The violation surfaces within the first checker window (~50
			// transactions), so the stop must land well inside the budget.
			if st.Commits > uint64(procs)*10000 {
				t.Errorf("stop took %d commits — suspiciously late", st.Commits)
			}
		})
	}
}

// lyingEngine wraps the registered native algorithm name so that its
// recorder hears, for every read, a value no transaction wrote: the TM
// itself stays correct, but the history it reports is not opaque.
func lyingEngine(t *testing.T, name string) *NativeEngine {
	for _, info := range native.Algorithms() {
		if info.Name == name {
			inner := info.New
			info.New = func(n int) (native.TM, error) {
				tm, err := inner(n)
				return lyingTM{tm}, err
			}
			return NewNative(info)
		}
	}
	t.Fatalf("%s is not registered", name)
	return nil
}

type lyingTM struct{ native.TM }

func (tm lyingTM) AtomicallyOpts(opts native.RunOpts, fn func(native.Txn) error) error {
	if opts.Observer != nil {
		opts.Observer = lyingObserver{opts.Observer}
	}
	return tm.TM.AtomicallyOpts(opts, fn)
}

type lyingObserver struct{ native.Observer }

func (o lyingObserver) ReadReturn(i int, v int64, aborted bool) {
	o.Observer.ReadReturn(i, v+1000, aborted)
}

// TestLiveMonitorHealthyRun: a correct TM under live monitoring
// completes its full budget with a holding verdict, per-process
// accounting, and capped recorder allocation (no history retained
// without Record). Run with -race.
// maxBias bounds the spin-shift bias native.Backoff applies to any one
// process, either way.
const maxBias = 3

func TestLiveMonitorHealthyRun(t *testing.T) {
	e, ok := Lookup("native-tl2")
	if !ok {
		t.Fatal("native-tl2 not registered")
	}
	const procs, ops = 4, 300
	st, err := e.Run(RunConfig{Procs: procs, Vars: 1, OpsPerProc: ops, Live: true}, counterBody(0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped {
		t.Fatal("healthy run was stopped")
	}
	if st.Commits != uint64(procs*ops) {
		t.Fatalf("commits = %d, want %d", st.Commits, procs*ops)
	}
	if st.Live == nil || !st.Live.Checked || !st.Live.Opacity.Holds {
		t.Fatalf("healthy run verdict: %+v", st.Live)
	}
	if len(st.Live.Procs) != procs {
		t.Fatalf("live report covers %d procs, want %d", len(st.Live.Procs), procs)
	}
	if st.History != nil {
		t.Error("Live without Record must not retain the history")
	}
	if st.RecorderChunks > procs {
		t.Errorf("live run allocated %d chunks, want <= %d (ring per process)", st.RecorderChunks, procs)
	}
	if len(st.BackoffBias) != procs {
		t.Errorf("BackoffBias covers %d procs, want %d", len(st.BackoffBias), procs)
	}
	for p, b := range st.BackoffBias {
		if b < -maxBias || b > maxBias {
			t.Errorf("p%d bias %d outside ±%d", p, b, maxBias)
		}
	}
}

// TestLiveWithRecordRetainsHistory: Live plus Record streams to the
// monitor and retains the history; the monitor saw exactly the events
// that were recorded. Run with -race.
func TestLiveWithRecordRetainsHistory(t *testing.T) {
	e, _ := Lookup("native-norec")
	const procs, ops = 2, 100
	st, err := e.Run(RunConfig{
		Procs: procs, Vars: 2, OpsPerProc: ops, Live: true, Record: true,
	}, mixedBody(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.History == nil {
		t.Fatal("Record was set but no history came back")
	}
	if st.Live == nil {
		t.Fatal("no live report")
	}
	if st.Live.Events != len(st.History) {
		t.Errorf("monitor observed %d events, history has %d", st.Live.Events, len(st.History))
	}
	if !st.Live.Checked || !st.Live.Opacity.Holds {
		t.Fatalf("healthy recorded run verdict: %+v", st.Live.Opacity)
	}
}

// TestLiveRejectedOnSim: the simulated substrate refuses Live.
func TestLiveRejectedOnSim(t *testing.T) {
	e, ok := Lookup("sim-tl2")
	if !ok {
		t.Fatal("sim-tl2 not registered")
	}
	_, err := e.Run(RunConfig{Procs: 2, Vars: 1, SimSteps: 100, Live: true}, counterBody(0))
	if err == nil {
		t.Fatal("simulated engine accepted Live")
	}
}

// disjointBody gives each process its own counter, so no two
// processes' transactions ever touch a common variable.
func disjointBody() TxBody {
	return func(proc, round int, tx Tx) error {
		v, err := tx.Read(proc)
		if err != nil {
			return err
		}
		return tx.Write(proc, v+1)
	}
}

// quiescedWithin fails t unless the live checker found a quiescent
// point, natural or forced, within every run of attempts the cut gate
// allows. At most quiesce × procs attempts end between two such points,
// plus the procs - 1 still in flight when a cut is made pending, so a
// stream of n attempts has at least n / (quiesce × procs + procs - 1)
// segments. Every attempt st counts must be a transaction of the
// stream, and no interactive transaction may be open.
func quiescedWithin(t *testing.T, segments int, st SessionStats, quiesce, procs int) {
	t.Helper()
	attempts := st.Commits + st.Aborts + st.NoCommits
	per := uint64(quiesce*procs + procs - 1)
	if want := attempts / per; uint64(segments) < want {
		t.Errorf("%d segments over %d attempts, want at least %d: some run of more than %d attempts had no quiescent point",
			segments, attempts, want, per)
	}
}

// TestShardedLiveAgreesWithSingleChecker: a recorded live run, whether
// its processes keep to disjoint variables or span all of them, has a
// quiescent point within every cut interval and decides, and its
// verdict matches a replay of the same history through a fresh monitor
// configured as a live session configures its own. The name predates
// the removal of
// keyspace sharding, whose lanes this once compared with the single
// checker. Run with -race.
func TestShardedLiveAgreesWithSingleChecker(t *testing.T) {
	for _, body := range []struct {
		name string
		fn   TxBody
	}{
		{"disjoint", disjointBody()},
		{"spanning", mixedBody(4)},
	} {
		t.Run(body.name, func(t *testing.T) {
			e, ok := Lookup("native-tl2")
			if !ok {
				t.Fatal("native-tl2 not registered")
			}
			const procs, ops = 4, 200
			st, err := e.Run(RunConfig{
				Procs: procs, Vars: 4, OpsPerProc: ops,
				Record: true, Live: true,
			}, body.fn)
			if err != nil {
				t.Fatal(err)
			}
			if st.Live == nil || !st.Live.Checked {
				t.Fatalf("live run undecided: %+v", st.Live)
			}
			quiescedWithin(t, st.Live.Opacity.Segments, st.SessionStats, defaultQuiesceEvery, procs)
			// 48-transaction segments, forced frontiers when cut-starved.
			m, err := monitor.New(monitor.Config{SegmentTxns: 48, Approx: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ObserveHistory(st.History); err != nil && !strings.Contains(err.Error(), "violation") {
				t.Fatal(err)
			}
			rep := m.Report()
			if !rep.Checked {
				t.Fatal("replay undecided")
			}
			if rep.Opacity.Holds != st.Live.Opacity.Holds {
				t.Fatalf("verdict flip: live says holds=%v, replay says holds=%v (%s)",
					st.Live.Opacity.Holds, rep.Opacity.Holds, rep.Opacity.Reason)
			}
		})
	}
}
