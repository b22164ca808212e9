package main

import (
	"flag"
	"fmt"

	"livetm/internal/automaton"
	"livetm/internal/core"
	"livetm/internal/fgp"
	"livetm/internal/model"
)

// The paper's experiments. Each has one code path, which its own
// subcommand and `livetm report` both call.

func setupMatrix(fs *flag.FlagSet) func() error {
	ablations := fs.Bool("ablations", true, "include ablation variants")
	steps := fs.Int("steps", 2000, "scheduler steps per scenario")
	return func() error { return matrix(*steps, *ablations) }
}

// matrix runs the liveness matrix (E20) and fails on any row that
// disagrees with the paper's §3.2.3 claims.
func matrix(steps int, ablations bool) error {
	rows := core.RunMatrix(core.MatrixConfig{Steps: steps, Ablations: ablations})
	fmt.Print(core.FormatMatrix(rows))
	for _, r := range rows {
		if !r.Match() {
			return fmt.Errorf("matrix mismatch for %s", r.Name)
		}
	}
	return nil
}

func setupTheorem1(fs *flag.FlagSet) func() error {
	rounds := fs.Int("rounds", 10, "p2 commits per run")
	return func() error { return theorem1(*rounds) }
}

// theorem1 runs both strategies against every registered TM (E17),
// failing if p1 ever commits, and prints the Theorem 2 evidence.
func theorem1(rounds int) error {
	outs := core.Theorem1Evidence(rounds, true)
	fmt.Print(core.FormatTheorem1(outs))
	for _, o := range outs {
		if !o.Starved {
			return fmt.Errorf("%s/%s: p1 committed", o.TM, o.Strategy)
		}
	}
	for _, note := range core.Theorem2Evidence() {
		fmt.Println("theorem 2:", note)
	}
	return nil
}

func setupTheorem3(fs *flag.FlagSet) func() error {
	schedules := fs.Int("schedules", 25, "random schedules to check")
	ops := fs.Int("ops", 200, "operations per schedule")
	return func() error { return theorem3(*schedules, *ops) }
}

// theorem3 validates Fgp (E19): opacity of random-schedule prefixes and
// steady commits under faults.
func theorem3(schedules, ops int) error {
	out := core.Theorem3Evidence(schedules, ops)
	if out.Violation != "" {
		return fmt.Errorf("theorem 3 violated: %s", out.Violation)
	}
	fmt.Printf("theorem 3: %d schedules checked, %d opaque prefixes, %d commits — Fgp ensures opacity and global progress\n",
		out.SchedulesChecked, out.PrefixesOpaque, out.Commits)
	return nil
}

func setupLattice(fs *flag.FlagSet) func() error {
	samples := fs.Int("samples", 5000, "random lassos to sample")
	return func() error { return lattice(*samples) }
}

// lattice samples the TM-liveness property lattice (E25).
func lattice(samples int) error {
	fmt.Print(core.BuildPropertyLattice(samples).Format())
	return nil
}

func setupExplore(fs *flag.FlagSet) func() error {
	tmName := fs.String("tm", "tl2", "TM implementation (see `livetm tms`)")
	depth := fs.Int("depth", 14, "schedule step bound")
	procs := fs.Int("procs", 2, "process count (each runs one increment transaction)")
	return func() error { return explore(*tmName, *depth, *procs) }
}

// explore model-checks one TM exhaustively (E26).
func explore(tmName string, depth, procs int) error {
	nf, ok := core.Lookup(tmName)
	if !ok {
		return fmt.Errorf("unknown TM %q", tmName)
	}
	stats, err := core.ExhaustiveOpacity(nf.Factory, procs, depth)
	if err != nil {
		return fmt.Errorf("exhaustive check of %s FAILED: %w", nf.Name, err)
	}
	fmt.Printf("exhaustively verified %s: %d schedules (deepest %d), every reachable history opaque\n",
		nf.Name, stats.Schedules, stats.Deepest)
	return nil
}

func setupReport(fs *flag.FlagSet) func() error {
	quick := fs.Bool("quick", false, "smaller budgets for a fast smoke report")
	return func() error {
		steps, rounds, samples, depth := 2000, 10, 5000, 14
		if *quick {
			steps, rounds, samples, depth = 800, 4, 800, 10
		}
		fmt.Println("# livetm experiment report")
		fmt.Println()
		fmt.Println("Reproduction of Bushkov, Guerraoui, Kapałka: On the Liveness of")
		fmt.Println("Transactional Memory (PODC 2012). All runs are deterministic.")
		sections := []struct {
			heading string
			run     func() error
		}{
			{"E20 — liveness matrix (§3.2.3 claims)", func() error { return matrix(steps, true) }},
			{"E17 — Theorem 1 (impossibility of local progress)", func() error { return theorem1(rounds) }},
			{"E19 — Theorem 3 (Fgp: opacity + global progress)", func() error { return theorem3(25, 200) }},
			{"E25 — TM-liveness property lattice", func() error { return lattice(samples) }},
			{"E26 — exhaustive model checking", func() error {
				for _, name := range core.ExploredTMs {
					if err := explore(name, depth, 2); err != nil {
						return err
					}
				}
				return nil
			}},
		}
		for _, s := range sections {
			fmt.Printf("\n## %s\n\n```\n", s.heading)
			if err := s.run(); err != nil {
				return err
			}
			fmt.Println("```")
		}
		fmt.Println("\nreport complete: all experiments match the paper's claims.")
		return nil
	}
}

func setupFgpStates(fs *flag.FlagSet) func() error {
	procs := fs.Int("procs", 1, "process count")
	vars := fs.Int("vars", 1, "t-variable count")
	variantName := fs.String("variant", "faithful", "faithful or corrected")
	limit := fs.Int("limit", 2000, "state budget")
	return func() error {
		variant := fgp.Faithful
		if *variantName == "corrected" {
			variant = fgp.Corrected
		} else if *variantName != "faithful" {
			return fmt.Errorf("variant must be faithful or corrected")
		}
		a, err := fgp.New(*procs, *vars, variant)
		if err != nil {
			return err
		}
		states, err := automaton.Explore(a.IOAutomaton(), a.Alphabet([]model.Value{0, 1}), *limit)
		if err != nil {
			return fmt.Errorf("explore: %w (found %d states)", err, len(states))
		}
		fmt.Printf("Fgp procs=%d vars=%d variant=%s: %d reachable states\n", *procs, *vars, variant, len(states))
		for i, s := range states {
			fmt.Printf("  s%-3d = %s\n", i+1, s.(*fgp.State))
		}
		return nil
	}
}

func setupFgpDOT(fs *flag.FlagSet) func() error {
	procs := fs.Int("procs", 1, "process count")
	vars := fs.Int("vars", 1, "t-variable count")
	limit := fs.Int("limit", 2000, "state budget")
	return func() error {
		a, err := fgp.New(*procs, *vars, fgp.Faithful)
		if err != nil {
			return err
		}
		alphabet := a.Alphabet([]model.Value{0, 1})
		states, err := automaton.Explore(a.IOAutomaton(), alphabet, *limit)
		if err != nil {
			return fmt.Errorf("explore: %w", err)
		}
		edges := automaton.Edges(a.IOAutomaton(), states, alphabet)
		fmt.Print(automaton.DOT(states, edges))
		return nil
	}
}
