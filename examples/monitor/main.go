// Monitor: a real-concurrency run, formally checked. A native TL2
// instance runs a contended counter workload on real goroutines with
// history recording on — every read return, write return and
// tryCommit outcome is stamped by one atomic sequence counter at its
// linearization point — and the recorded history streams through the
// online monitor: a segmented opacity check in bounded memory plus
// per-process progress accounting classified against the paper's
// liveness lattice. This closes the loop the paper is about: the
// formal machinery of §2.4 applied to what the hardware actually did,
// not to a simulation of it.
package main

import (
	"fmt"
	"os"

	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/monitor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
}

func run() error {
	e, ok := engine.Lookup("native-tl2")
	if !ok {
		return fmt.Errorf("native-tl2 not registered")
	}

	// 1. Record a native run: 3 real goroutines increment a shared
	// counter. QuiesceEvery plants the quiescent cuts the streaming
	// checker segments at.
	const procs, rounds = 3, 30
	st, err := e.Run(engine.RunConfig{
		Procs: procs, Vars: 1,
		OpsPerProc: rounds, Record: true, QuiesceEvery: 3,
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
	fmt.Printf("recorded native-tl2 run: %d goroutines × %d rounds, %d commits, %d aborts, %d events\n",
		procs, rounds, st.Commits, st.Aborts, len(st.History))

	if err := model.CheckWellFormed(st.History); err != nil {
		return fmt.Errorf("recorded history malformed: %w", err)
	}

	// 2. Stream it through the online monitor, event by event, exactly
	// as `livetm record ... | livetm monitor -file -` would.
	m, err := monitor.New(monitor.Config{SegmentTxns: 48, TailWindow: 128})
	if err != nil {
		return err
	}
	for _, ev := range st.History {
		if err := m.Observe(ev); err != nil {
			return fmt.Errorf("monitor rejected the run: %w", err)
		}
	}
	report := m.Report()
	fmt.Print(report.Format())

	// 3. The verdicts are the paper's: the real execution was opaque,
	// and with every process committing its budget the run sits at the
	// top of the liveness lattice.
	if !report.Checked || !report.Opacity.Holds {
		return fmt.Errorf("native run failed the opacity check: %s", report.Opacity.Reason)
	}
	for _, v := range report.Verdicts {
		if !v.Holds {
			return fmt.Errorf("%s violated on a fully progressing run", v.Property)
		}
	}
	// The counter proves the committed effects line up too: with every
	// committed transaction incrementing once, the largest committed
	// write equals the commit count.
	txns, err := model.Transactions(st.History)
	if err != nil {
		return err
	}
	final := model.Value(0)
	for _, txn := range txns {
		if txn.Status != model.Committed {
			continue
		}
		for _, v := range txn.WriteSet() {
			if v > final {
				final = v
			}
		}
	}
	if final != model.Value(st.Commits) {
		return fmt.Errorf("final counter value %d, want %d", final, st.Commits)
	}
	fmt.Printf("final counter value %d matches %d committed increments\n", final, st.Commits)
	return nil
}
