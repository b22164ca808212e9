package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"livetm/internal/engine"
	"livetm/internal/liveness"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/safety"
	"livetm/internal/trace"
)

// The trace subcommands: record writes a JSON Lines history, and check,
// monitor and classify judge one.

// loadTraceArg reads a JSON Lines trace from the -file argument, with
// "-" meaning stdin so traces pipe between subcommands without a temp
// file.
func loadTraceArg(file string) (model.History, error) {
	if file == "-" {
		return model.ReadTrace(os.Stdin)
	}
	return model.LoadTrace(file)
}

func setupCheck(fs *flag.FlagSet) func() error {
	file := fs.String("file", "", "JSON Lines trace file, or - for stdin (see `livetm adversary -out`, `livetm record`)")
	render := fs.Bool("render", true, "render the history")
	return func() error {
		if *file == "" {
			return fmt.Errorf("check: -file is required")
		}
		h, err := loadTraceArg(*file)
		if err != nil {
			return err
		}
		if err := model.CheckWellFormed(h); err != nil {
			return fmt.Errorf("trace is not well-formed: %w", err)
		}
		if *render {
			fmt.Print(trace.Render(h))
			fmt.Print(trace.Summary(h))
		}
		op, err := checkVerdict(h, false)
		if err != nil {
			return err
		}
		ss, err := checkVerdict(h, true)
		if err != nil {
			return err
		}
		fmt.Printf("events=%d opaque=%s strictly-serializable=%s\n", len(h), op.word, ss.word)
		switch op.word {
		case "false":
			fmt.Println("opacity violation:", op.reason)
		case "undecided":
			fmt.Println("opacity undecided:", op.reason)
		}
		if ss.word == "undecided" {
			fmt.Println("strict serializability undecided:", ss.reason)
		}
		if len(op.witness) > 0 {
			fmt.Println("witness serialization:")
			for _, t := range op.witness {
				fmt.Println("  ", t)
			}
		}
		return nil
	}
}

// verdict is check's answer for one property: "true", "false" or
// "undecided", the reason for the latter two, and the witness when the
// search found one.
type verdict struct {
	word, reason string
	witness      []*model.Transaction
}

// checkVerdict decides opacity of h, or with strict its strict
// serializability. A history with no quiescent cut where the search
// needs one is undecided, never false.
func checkVerdict(h model.History, strict bool) (verdict, error) {
	decide := safety.CheckOpacity
	if strict {
		decide = safety.CheckStrictSerializability
	}
	res, err := decide(h)
	switch {
	case errors.Is(err, safety.ErrNoQuiescentCut):
		return verdict{word: "undecided", reason: err.Error()}, nil
	case err != nil:
		return verdict{}, err
	case !res.Holds:
		return verdict{word: "false", reason: res.Reason}, nil
	}
	return verdict{word: "true", witness: res.Witness}, nil
}

func setupClassify(fs *flag.FlagSet) func() error {
	file := fs.String("file", "", "JSON Lines trace file, or - for stdin")
	split := fs.Int("split", -1, "prefix length; the rest is read as the repeating tail (default: half)")
	return func() error {
		if *file == "" {
			return fmt.Errorf("classify: -file is required")
		}
		h, err := loadTraceArg(*file)
		if err != nil {
			return err
		}
		at := *split
		if at < 0 {
			at = liveness.SplitHalf(h)
		}
		l, err := liveness.ClassifyRun(h, at, nil)
		if err != nil {
			return err
		}
		fmt.Printf("read as: %d-event prefix + %d-event tail repeated forever\n", len(l.Prefix), len(l.Cycle))
		for _, p := range l.Procs {
			class := "correct"
			switch {
			case l.Crashes(p):
				class = "crashed"
			case l.Parasitic(p):
				class = "parasitic"
			case l.Starving(p):
				class = "starving"
			}
			fmt.Printf("  p%d: %-10s progress=%v\n", p, class, l.MakesProgress(p))
		}
		fmt.Printf("local=%v global=%v solo=%v 2-progress=%v\n",
			liveness.LocalProgress.Contains(l),
			liveness.GlobalProgress.Contains(l),
			liveness.SoloProgress.Contains(l),
			liveness.KProgress(2).Contains(l))
		return nil
	}
}

func setupRecord(fs *flag.FlagSet) func() error {
	lookup := cellFlags(fs, "engine to run (see `livetm engines`)", "procs", 2, "process count")
	ops := fs.Int("ops", 50, "rounds per process (native), round budget (sim)")
	simSteps := fs.Int("simsteps", 20000, "scheduler step budget (simulated engines)")
	seed := fs.Uint64("seed", 1, "scheduler seed (simulated engines)")
	out := fs.String("out", "-", "trace file, or - for stdout")
	return func() error {
		e, spec, err := lookup()
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		cfg := engine.RunConfig{
			Procs:      spec.Procs,
			Vars:       spec.Vars,
			Seed:       *seed,
			OpsPerProc: *ops,
			Record:     true,
		}
		if e.Capabilities().Substrate == engine.Simulated {
			cfg.SimSteps = *simSteps
		}
		st, err := e.Run(cfg, spec.Body())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %s on %s: %d events, commits=%d aborts=%d\n",
			spec.Name, e.Name(), len(st.History), st.Commits, st.Aborts)
		if *out == "-" {
			return model.WriteTrace(os.Stdout, st.History)
		}
		if err := model.SaveTrace(*out, st.History); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *out)
		return nil
	}
}

func setupMonitor(fs *flag.FlagSet) func() error {
	file := fs.String("file", "", "JSON Lines trace file, or - for stdin")
	segment := fs.Int("segment", 48, "streaming opacity segment budget (transactions)")
	window := fs.Int("window", 256, "tail window (events) for liveness classification")
	every := fs.Int("every", 0, "print a progress line every N events (0 = only the final report)")
	approx := fs.Bool("approx", false, "degrade cut-starved streams to approximate verdicts instead of refusing")
	return func() error {
		if *file == "" {
			return fmt.Errorf("monitor: -file is required (an in-process run under the monitor is livetm run)")
		}
		in := os.Stdin
		if *file != "-" {
			f, err := os.Open(*file)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		m, err := monitor.New(monitor.Config{SegmentTxns: *segment, TailWindow: *window, Approx: *approx})
		if err != nil {
			return err
		}
		// Event i is observed before event i+1 is asked for: the reader
		// takes what a pipe has, never waiting for more than one event.
		tr := model.NewTraceReader(in)
		var firstErr error
		for i := 0; ; i++ {
			e, err := tr.Next()
			if err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("monitor: decode event %d: %w", i, err)
			}
			// Terminal safety errors land in the report; the liveness half
			// keeps accounting, which is the point of monitoring live.
			if err := m.Observe(e); err != nil && firstErr == nil {
				firstErr = err
				fmt.Fprintf(os.Stderr, "after event %d: %v\n", i+1, err)
			}
			if *every > 0 && (i+1)%*every == 0 {
				fmt.Fprintf(os.Stderr, "observed %d events...\n", i+1)
			}
		}
		fmt.Print(m.Report().Format())
		return nil
	}
}
