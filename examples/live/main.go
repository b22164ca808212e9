// Live: in-process monitoring with mid-flight violation stop. Where
// the monitor example checks a native run after it finished, this one
// closes the loop while the run is still going: events stream from the
// per-process recorder rings into the online monitor as the goroutines
// execute, measured starvation feeds back into the retry loop's backoff
// (starved processes back off less, hot ones more), and a safety
// violation cancels the run mid-flight instead of being discovered
// post-mortem.
//
// Both halves run here: a healthy TL2 instance completes its budget
// under live monitoring with a holding verdict, then a deliberately
// broken "TM" whose reads return values nobody wrote is stopped by the
// monitor long before its budget — the production story the paper's
// online-progress result points at.
package main

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"livetm/internal/engine"
	"livetm/internal/native"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "live:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := healthy(); err != nil {
		return err
	}
	return violating()
}

// healthy: a correct TM under live monitoring completes its budget and
// the verdict arrives with the run, not after it.
func healthy() error {
	e, ok := engine.Lookup("native-tl2")
	if !ok {
		return fmt.Errorf("native-tl2 not registered")
	}
	const procs, rounds = 4, 100
	st, err := e.Run(engine.RunConfig{
		Procs: procs, Vars: 1, OpsPerProc: rounds, Live: true,
	}, func(proc, round int, tx engine.Tx) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(0, v+1)
	})
	if err != nil {
		return err
	}
	fmt.Printf("live native-tl2 run: %d goroutines × %d rounds, commits=%d aborts=%d stopped=%v\n",
		procs, rounds, st.Commits, st.Aborts, st.Stopped)
	fmt.Print(st.Live.Format())
	fmt.Printf("liveness class: %s; backoff cap=%d bias=%v; recorder chunks=%d (ring — nothing retained)\n\n",
		st.Live.LivenessClass(), st.BackoffCap, st.BackoffBias, st.RecorderChunks)
	if !st.Live.Checked || !st.Live.Opacity.Holds {
		return fmt.Errorf("healthy run failed the live check: %s", st.Live.Opacity.Reason)
	}
	if st.Commits != procs*rounds {
		return fmt.Errorf("healthy run stopped early: %d commits", st.Commits)
	}
	return nil
}

// brokenTM serves every read a fresh value nobody ever wrote — no
// legal serialization can explain that, so the live monitor must
// catch it while the run executes.
type brokenTM struct {
	ctr     atomic.Int64
	commits atomic.Uint64
}

type brokenTxn struct{ tm *brokenTM }

func (tx brokenTxn) Read(i int) (int64, error)  { return 1 + tx.tm.ctr.Add(1), nil }
func (tx brokenTxn) Write(i int, v int64) error { return nil }

func (b *brokenTM) Name() string        { return "native-broken" }
func (b *brokenTM) Vars() int           { return 1 }
func (b *brokenTM) Stats() native.Stats { return native.Stats{Commits: b.commits.Load()} }

func (b *brokenTM) Atomically(fn func(native.Txn) error) error {
	return b.AtomicallyOpts(native.RunOpts{}, fn)
}

func (b *brokenTM) AtomicallyOpts(opts native.RunOpts, fn func(native.Txn) error) error {
	if opts.Stop != nil {
		select {
		case <-opts.Stop:
			return native.ErrStopped
		default:
		}
	}
	obs := opts.Observer
	err := fn(observedBroken{tx: brokenTxn{tm: b}, obs: obs})
	if err != nil {
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

type observedBroken struct {
	tx  brokenTxn
	obs native.Observer
}

func (o observedBroken) Read(i int) (int64, error) {
	if o.obs != nil {
		o.obs.ReadInv(i)
	}
	v, err := o.tx.Read(i)
	if o.obs != nil {
		o.obs.ReadReturn(i, v, false)
	}
	return v, err
}

func (o observedBroken) Write(i int, v int64) error {
	if o.obs != nil {
		o.obs.WriteInv(i, v)
	}
	err := o.tx.Write(i, v)
	if o.obs != nil {
		o.obs.WriteReturn(i, v, false)
	}
	return err
}

// violating: the same live harness around the broken TM stops the run
// mid-flight with the violation verdict.
func violating() error {
	e := engine.NewNative(native.Info{
		Name: "native-broken", Nonblocking: true,
		New: func(n int) (native.TM, error) { return &brokenTM{}, nil },
	})
	const procs, budget = 3, 100000
	st, err := e.Run(engine.RunConfig{
		Procs: procs, Vars: 1, OpsPerProc: budget, Live: true,
	}, func(proc, round int, tx engine.Tx) error {
		_, err := tx.Read(0)
		return err
	})
	if !errors.Is(err, engine.ErrLiveViolation) {
		return fmt.Errorf("broken TM was not stopped: err=%v", err)
	}
	fmt.Printf("broken TM stopped mid-flight after %d of %d budgeted commits\n", st.Commits, procs*budget)
	fmt.Print(st.Live.Format())
	if st.Live.Opacity.Holds || !st.Stopped {
		return fmt.Errorf("stop without a violation verdict: %+v", st.Live.Opacity)
	}
	fmt.Println("the monitor cancelled the run at the first checkable violation — not post-mortem")
	return nil
}
