// Adversary: watch the Theorem 1 impossibility happen live, on both
// substrates. The environment strategy from the paper's proof starves
// process p1 against every opaque TM — p2 commits round after round
// while p1 is aborted forever (or, with a blocking TM, everyone
// blocks). The same strategy logic drives the deterministic simulated
// TMs and, through the linearization-point hooks, the five native
// (real-goroutine) algorithms — so the proof's infinite histories and
// real hardware starvation sit in one table.
package main

import (
	"fmt"
	"os"

	"livetm/internal/adversary"
	"livetm/internal/core"
	"livetm/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adversary:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("Theorem 1: no TM ensures both opacity and local progress.")
	fmt.Println("Running the proof's environment strategy against every simulated TM:")
	fmt.Println()
	fmt.Printf("%-14s %-10s %-10s %-10s %-10s\n", "tm", "strategy", "p1-commit", "p2-commit", "outcome")

	for _, nf := range core.Registry(false) {
		for _, alg := range []int{1, 2} {
			cfg := adversary.Config{Rounds: 10, MaxSteps: 40000, Seed: 3}
			res := adversary.NewSimDriver(nf.Factory, cfg).Run(adversary.Strategy{Algorithm: alg})
			outcome := "p1 starved"
			if res.Rounds == 0 {
				outcome = "blocked"
			}
			if res.P1Committed {
				outcome = "P1 COMMITTED (!)"
			}
			fmt.Printf("%-14s alg%-7d %-10d %-10d %-10s\n",
				nf.Name, alg, res.Stats.Commits[1], res.Stats.Commits[2], outcome)
		}
	}

	fmt.Println("\nThe same strategies against the native TMs (real goroutines, gated")
	fmt.Println("through the linearization-point hooks, monitored while they run):")
	fmt.Println()
	cells, err := adversary.RunMatrix(adversary.Config{Rounds: 6})
	if err != nil {
		return err
	}
	fmt.Print(adversary.FormatCells(cells))
	for _, c := range cells {
		if !c.Dichotomy() {
			return fmt.Errorf("%s on %s: p1 committed", c.Strategy, c.Engine)
		}
	}

	fmt.Println("\nA sample starving run against dstm (Figure 10's shape — p1 aborted forever):")
	nf, ok := core.Lookup("dstm")
	if !ok {
		return fmt.Errorf("dstm not registered")
	}
	res := adversary.NewSimDriver(nf.Factory, adversary.Config{Rounds: 4, Seed: 3}).Run(adversary.Strategy{Algorithm: 1})
	h := res.History
	if len(h) > 40 {
		h = h[len(h)-40:]
	}
	fmt.Print(trace.Render(h))
	return nil
}
