// Crossengine: one workload, two substrates. The same transactional
// body — declared once against the engine API — runs on a simulated
// TM under the deterministic cooperative scheduler (where the history
// is recorded and checked for opacity) and on its native counterpart
// across real goroutines (where throughput and abort pressure are
// wall-clock real). This is the repository's two-substrate
// architecture in one page; see internal/engine's package
// documentation for when to use which.
package main

import (
	"fmt"
	"os"

	"livetm/internal/engine"
	"livetm/internal/safety"
	"livetm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crossengine:", err)
		os.Exit(1)
	}
}

func run() error {
	// One workload point from the declared matrix: 2 processes, an
	// update mix, hot contention, shared variables.
	var spec workload.Spec
	for _, s := range workload.Matrix([]int{2}) {
		if s.Mix.Name == "update" && s.Contention.Name == "hot" && s.Sharing == workload.Shared {
			spec = s
			break
		}
	}
	fmt.Printf("workload %q on both substrates of algorithm tl2:\n\n", spec.Name)

	// 1. The simulated substrate: deterministic, recordable — ask the
	// safety checker about the exact run.
	simEngine, ok := engine.Lookup("sim-tl2")
	if !ok {
		return fmt.Errorf("sim-tl2 not registered")
	}
	simStats, err := simEngine.Run(engine.RunConfig{
		Procs: spec.Procs, Vars: spec.Vars,
		Seed: 42, OpsPerProc: 4, SimSteps: 20000, Record: true,
	}, spec.Body())
	if err != nil {
		return err
	}
	res, err := safety.CheckOpacity(simStats.History)
	if err != nil {
		return err
	}
	if !res.Holds {
		return fmt.Errorf("simulated history not opaque: %s", res.Reason)
	}
	fmt.Printf("  %-12s %3d commits, %2d aborts in %4d scheduler steps; recorded history of %d events is opaque\n",
		simEngine.Name(), simStats.Commits, simStats.Aborts, simStats.Steps, len(simStats.History))

	// 2. The native substrate: the same body on real cores, here with
	// recording off — the payoff is wall-clock scalability (see
	// examples/monitor for a recorded and checked native run).
	nativeEngine, ok := engine.Lookup("native-tl2")
	if !ok {
		return fmt.Errorf("native-tl2 not registered")
	}
	nativeStats, err := nativeEngine.Run(engine.RunConfig{
		Procs: spec.Procs, Vars: spec.Vars, OpsPerProc: 500,
	}, spec.Body())
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %3d commits, %2d aborts across %d real goroutines (abort rate %.1f%%)\n\n",
		nativeEngine.Name(), nativeStats.Commits, nativeStats.Aborts,
		spec.Procs, 100*nativeStats.AbortRate())

	// 3. The same spec across every engine of both substrates — the
	// cross-engine workload matrix in miniature.
	results, err := workload.RunMatrix(engine.Engines(false), []workload.Spec{spec},
		workload.Budget{SimSteps: 1500, NativeOps: 200}, workload.Options{})
	if err != nil {
		return err
	}
	fmt.Print(workload.FormatResults(results))
	return nil
}
