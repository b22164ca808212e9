package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"livetm/internal/adversary"
	"livetm/internal/adversary/live"
	"livetm/internal/core"
	"livetm/internal/model"
	"livetm/internal/native"
	"livetm/internal/trace"
)

func setupAdversary(fs *flag.FlagSet) func() error {
	tmName := fs.String("tm", "dstm", "simulated TM implementation (see `livetm tms`)")
	engineName := fs.String("engine", "", "registry engine to drive instead of -tm (see `livetm engines`; native engines run the real-concurrency driver)")
	matrix := fs.Bool("matrix", false, "run every strategy variant against every native algorithm and its simulated counterpart")
	alg := fs.Int("alg", 1, "strategy: 1 (parasitic-free case) or 2 (crash-free case)")
	crash := fs.Bool("crash", false, "crash p1 after its first read (Figure 9; algorithm 1)")
	parasitic := fs.Bool("parasitic", false, "make p1 parasitic (Figure 12; algorithm 2)")
	rounds := fs.Int("rounds", 10, "p2 commits before stopping")
	tail := fs.Int("tail", 48, "events of the history suffix to print")
	out := fs.String("out", "", "write the full history as a JSON Lines trace file")
	artifact := fs.String("artifact", "", "with -matrix: write the cross-substrate starvation comparison as a JSON artifact")
	return func() error {
		cfg := adversary.Config{Rounds: *rounds, Seed: 3}
		strategy := adversary.Strategy{Algorithm: *alg, Crash: *crash, Parasitic: *parasitic}
		if *matrix {
			// Flags the matrix runs all combinations of (or cannot honour)
			// are rejected, not silently dropped.
			if conflict := setFlags(fs, "tm", "engine", "alg", "crash", "parasitic", "tail", "out"); len(conflict) > 0 {
				return fmt.Errorf("adversary: %s cannot be combined with -matrix (it runs every strategy variant against every engine)", strings.Join(conflict, ", "))
			}
			return adversaryMatrix(cfg, *artifact)
		}
		if *artifact != "" {
			return fmt.Errorf("adversary: -artifact needs -matrix")
		}
		if *alg != 1 && *alg != 2 {
			return fmt.Errorf("alg must be 1 or 2")
		}
		switch {
		case strings.HasPrefix(*engineName, "native-"):
			return adversaryNative(*engineName, strategy, cfg, *tail, *out)
		case strings.HasPrefix(*engineName, "sim-"):
			*tmName = strings.TrimPrefix(*engineName, "sim-")
		case *engineName != "":
			return fmt.Errorf("adversary: engine %q is neither native-* nor sim-*", *engineName)
		}
		nf, ok := core.Lookup(*tmName)
		if !ok {
			return fmt.Errorf("unknown TM %q", *tmName)
		}
		res := adversary.NewSimDriver(nf.Factory, cfg).Run(strategy)
		fmt.Printf("adversary algorithm %d vs %s: rounds=%d p1Committed=%v steps=%d\n",
			*alg, nf.Name, res.Rounds, res.P1Committed, res.Steps)
		fmt.Printf("commits: p1=%d p2=%d   aborts: p1=%d p2=%d\n",
			res.Stats.Commits[1], res.Stats.Commits[2], res.Stats.Aborts[1], res.Stats.Aborts[2])
		return adversaryHistory(res.History, *tail, *out, res.P1Committed)
	}
}

// adversaryMatrix runs every strategy variant against every native
// algorithm and its simulated counterpart, and optionally writes the
// comparison as the starvation artifact.
func adversaryMatrix(cfg adversary.Config, artifact string) error {
	cells, err := live.RunMatrix(cfg)
	if err != nil {
		return err
	}
	fmt.Print(adversary.FormatCells(cells))
	for _, c := range cells {
		if !c.Dichotomy() {
			return fmt.Errorf("%s on %s: p1 committed — safety or strategy violation", c.Strategy, c.Engine)
		}
	}
	if artifact != "" {
		if err := adversary.WriteStarvationArtifact(artifact, cfg.Rounds, cells); err != nil {
			return err
		}
		fmt.Printf("starvation artifact written to %s (%d cells)\n", artifact, len(cells))
	}
	return nil
}

// adversaryNative drives one strategy against a native engine through
// the real-concurrency driver and prints the monitor's starvation
// harvest alongside the history suffix.
func adversaryNative(engineName string, s adversary.Strategy, cfg adversary.Config, tail int, out string) error {
	algs := native.Algorithms()
	i := slices.IndexFunc(algs, func(a native.Info) bool { return a.Name == engineName })
	if i < 0 {
		return fmt.Errorf("unknown native engine %q (see `livetm engines`)", engineName)
	}
	info := algs[i]
	res, err := live.RunNative(info, s, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("adversary %s vs %s: rounds=%d p1Committed=%v blocked=%v\n",
		s.Name(), info.Name, res.Rounds, res.P1Committed, res.Blocked)
	fmt.Printf("tm stats: commits=%d aborts=%d   backoff bias=%v (over %d changes)\n",
		res.Stats.Commits, res.Stats.Aborts, res.Stats.BackoffBias, len(res.BiasTrajectory))
	printReport(&res.Report)
	err = adversaryHistory(res.History, tail, out, res.P1Committed)
	if res.Violation != nil {
		return fmt.Errorf("monitor found a safety violation: %w", res.Violation)
	}
	return err
}

// adversaryHistory prints the last tail events of an adversary run's
// history and its summary, writes the whole history to out when set,
// and fails if p1 committed.
func adversaryHistory(h model.History, tail int, out string, p1Committed bool) error {
	suffix := h
	if len(suffix) > tail {
		fmt.Printf("history suffix (last %d of %d events):\n", tail, len(h))
		suffix = suffix[len(suffix)-tail:]
	}
	fmt.Print(trace.Render(suffix))
	fmt.Print(trace.Summary(h))
	if out != "" {
		if err := model.SaveTrace(out, h); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events)\n", out, len(h))
	}
	if p1Committed {
		return fmt.Errorf("p1 committed: safety or strategy violation")
	}
	return nil
}
