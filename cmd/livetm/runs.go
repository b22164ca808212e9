package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"livetm/internal/core"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/workload"
)

// The engine subcommands: run and workloads execute workload-matrix
// cells, and tms and engines list what they can run on.

func setupRun(fs *flag.FlagSet) func() error {
	lookup := cellFlags(fs, "native engine to run (see `livetm engines`)", "procs", 4, "process count")
	ops := fs.Int("ops", 200, "rounds per process")
	quiesce := fs.Int("quiesce", 0, "quiescent-cut interval: a session pause after every N × workers completed transactions (0 = the live default of 4, -1 = never)")
	out := fs.String("out", "", "also retain the history and write it as a JSON Lines trace file")
	return func() error {
		e, spec, err := lookup()
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		st, runErr := e.Run(engine.RunConfig{
			Procs:        spec.Procs,
			Vars:         spec.Vars,
			OpsPerProc:   *ops,
			Live:         true,
			Record:       *out != "",
			QuiesceEvery: *quiesce,
		}, spec.Body())
		fmt.Printf("live %s on %s: commits=%d aborts=%d no-commits=%d stopped=%v\n",
			spec.Name, e.Name(), st.Commits, st.Aborts, st.NoCommits, st.Stopped)
		printReport(st.Live)
		fmt.Printf("  backoff cap=%d bias=%v recorder chunks=%d\n", st.BackoffCap, st.BackoffBias, st.RecorderChunks)
		if *out != "" && st.History != nil {
			if err := model.SaveTrace(*out, st.History); err != nil {
				return err
			}
			fmt.Printf("trace written to %s (%d events)\n", *out, len(st.History))
		}
		return runErr
	}
}

func setupWorkloads(fs *flag.FlagSet) func() error {
	procsArg := fs.String("procs", "1,2,4", "comma-separated process counts")
	simSteps := fs.Int("simsteps", 2000, "scheduler steps per simulated cell")
	ops := fs.Int("ops", 500, "committed transactions per process per native cell")
	ablations := fs.Bool("ablations", false, "include the simulated ablation variants")
	record := fs.Bool("record", false, "record each cell's history")
	check := fs.Bool("check", false, "verify each recorded history through the online monitor (implies -record)")
	live := fs.Bool("live", false, "run native cells under the in-process monitor (mid-flight stop, starvation-aware backoff, per-cell liveness class)")
	quiesce := fs.Int("quiesce", 4, "quiescent-cut interval of recorded native cells: a session pause after every N × workers completed transactions (0 = never)")
	return func() error {
		quiesceOpt := *quiesce
		if quiesceOpt <= 0 {
			quiesceOpt = -1 // "never" in workload.Options
		}
		var procs []int
		for _, part := range strings.Split(*procsArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("workloads: bad process count %q", part)
			}
			procs = append(procs, n)
		}
		engines := engine.Engines(*ablations)
		specs := workload.Matrix(procs)
		fmt.Printf("running %d workloads × %d engines...\n", len(specs), len(engines))
		results, err := workload.RunMatrix(engines, specs,
			workload.Budget{SimSteps: *simSteps, NativeOps: *ops},
			workload.Options{Record: *record, Check: *check, Live: *live, QuiesceEvery: quiesceOpt})
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatResults(results))
		if *check {
			checked := 0
			for _, r := range results {
				if r.Checked {
					checked++
				}
			}
			fmt.Printf("checked %d of %d cells well-formed and opaque (the rest undecided within the cut budget)\n",
				checked, len(results))
		}
		return nil
	}
}

func setupTMs(*flag.FlagSet) func() error {
	return func() error {
		for _, nf := range core.Registry(true) {
			kind := "paper system"
			if nf.Ablation {
				kind = "ablation variant"
			}
			fmt.Printf("%-16s %s  (expected: fault-free=%v crash=%v parasitic=%v)\n",
				nf.Name, kind,
				nf.Expected.LocalFaultFree, nf.Expected.SoloUnderCrash, nf.Expected.SoloUnderParasitic)
		}
		return nil
	}
}

func setupEngines(*flag.FlagSet) func() error {
	return func() error {
		plain := map[string]bool{}
		for _, e := range engine.Engines(false) {
			plain[e.Name()] = true
		}
		for _, e := range engine.Engines(true) {
			caps := e.Capabilities()
			note := ""
			if !plain[e.Name()] {
				note = "  (ablation variant; excluded unless `workloads -ablations`)"
			}
			fmt.Printf("%-20s substrate=%-6s nonblocking=%-5v%s\n",
				e.Name(), caps.Substrate, caps.Nonblocking, note)
		}
		return nil
	}
}
