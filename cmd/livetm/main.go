// Command livetm is the experiment driver for the reproduction of
// "On the Liveness of Transactional Memory" (PODC 2012): it reruns the
// paper's experiments, records and checks TM histories, and serves
// native TMs as long-lived monitored sessions.
//
// Run `livetm help` for the subcommands and `livetm help <subcommand>`
// for a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"livetm/internal/engine"
	"livetm/internal/monitor"
	"livetm/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "livetm:", err)
		os.Exit(1)
	}
}

// subcommand is one entry of the dispatch table. setup declares the
// subcommand's flags on the FlagSet the runner hands it and returns the
// action the runner calls once they are parsed.
type subcommand struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func() error
}

// subcommands is the single dispatch table: the runner parses every
// subcommand's flags, and help is generated from it.
var subcommands = []subcommand{
	{"matrix", "Run the liveness matrix (E20): each TM × fault model, compared against the paper's §3.2.3 claims.", setupMatrix},
	{"run", "Run one workload-matrix cell on a native engine under the in-process monitor and print its report and liveness class;\na safety violation stops the run mid-flight, and measured starvation rebiases the retry backoff.", setupRun},
	{"serve", "Serve a native engine as one long-lived monitored session until SIGINT/SIGTERM or -duration, printing progress lines and the final report;\n-listen puts the session on the wire API v1 and -metrics serves its telemetry.", setupServe},
	{"client", "Drive a served session (`livetm serve -listen`) over the wire: increment load with 429-aware backoff,\nor a Theorem 1 environment strategy as network clients (-strategy).", setupClient},
	{"loadgen", "Drive a declarative open-loop scenario against a served (-addr) or in-process session and emit its provenance-stamped artifact.\n`livetm loadgen gate -artifact FILE` re-judges a saved artifact against its embedded gates.", setupLoadgen},
	{"check", "Decide opacity and strict serializability of a JSON Lines trace; past 64 transactions it decides segment by segment at quiescent cuts.", setupCheck},
	{"classify", "Read a trace as an infinite history (its tail repeated forever) and report the paper's process classes and TM-liveness verdicts.", setupClassify},
	{"adversary", "Run a Theorem 1 environment strategy against a TM and print the history suffix (Figures 9, 10, 12, 13);\n-matrix compares every strategy against every native algorithm and its simulated counterpart.", setupAdversary},
	{"theorem1", "Run both Theorem 1 strategies against every registered TM (E17), then check the Theorem 2 generalization.", setupTheorem1},
	{"theorem3", "Validate Fgp (E19): opacity of random-schedule prefixes and steady commits under faults.", setupTheorem3},
	{"fgp-states", "Enumerate the reachable states of a small Fgp instance (Figure 15 is -procs 1 -vars 1 -variant faithful).", setupFgpStates},
	{"fgp-dot", "Emit the Fgp state graph as Graphviz DOT (Figure 15's diagram).", setupFgpDOT},
	{"explore", "Exhaustively model-check a TM (E26): every schedule of the increment scenario up to the bound, each reachable history checked for opacity.", setupExplore},
	{"lattice", "Sample the inclusion lattice of the TM-liveness properties (E25), with a witness for every separation.", setupLattice},
	{"report", "Regenerate every experiment (E20, E17, E19, E25, E26) in one pass as a markdown report.", setupReport},
	{"record", "Run one workload-matrix cell on any engine with history recording and write the JSON Lines trace (it pipes into check and monitor).", setupRecord},
	{"monitor", "Stream a trace through the online monitor: incremental opacity checking plus per-process progress classified against the liveness lattice.", setupMonitor},
	{"tms", "List the registered simulated TM implementations.", setupTMs},
	{"engines", "List every (algorithm, substrate) engine behind the unified engine API with its capabilities.", setupEngines},
	{"workloads", "Run the declared workload matrix on every engine of both substrates and print the result table.", setupWorkloads},
}

// loadgenGate is `livetm loadgen gate`: gate is the CLI's one
// positional word.
var loadgenGate = subcommand{"loadgen gate", "Re-judge a saved loadgen artifact (schema livetm/loadgen/v2) against its embedded gates; exits non-zero if any gate fails.", setupLoadgenGate}

// run is the one runner: it resolves the subcommand, parses its flags,
// rejects stray arguments, and calls its action. `-h` prints the
// subcommand's usage and succeeds; `help [subcommand]` prints it to
// stdout.
func run(args []string) error {
	if len(args) == 0 {
		overview(os.Stderr)
		return errors.New("missing subcommand")
	}
	help := false
	switch args[0] {
	case "help", "-h", "--help":
		if len(args) == 1 {
			overview(os.Stdout)
			return nil
		}
		help, args = true, args[1:]
	}
	sc, rest, ok := find(args)
	if !ok {
		overview(os.Stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	fs := flag.NewFlagSet(sc.name, flag.ContinueOnError)
	action := sc.setup(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: livetm %s [flags]\n\n%s\n\n", sc.name, sc.summary)
		fs.PrintDefaults()
	}
	if help { // `help <subcommand>` is `<subcommand> -h` on stdout
		fs.SetOutput(os.Stdout)
		rest = append([]string{"-h"}, rest...)
	}
	switch err := fs.Parse(rest); {
	case errors.Is(err, flag.ErrHelp):
		return nil
	case err != nil:
		return err
	case fs.NArg() > 0:
		return fmt.Errorf("%s: unexpected arguments %v", sc.name, fs.Args())
	}
	return action()
}

// find resolves the subcommand that args name, returning the arguments
// left for its flags.
func find(args []string) (subcommand, []string, bool) {
	if len(args) > 1 && args[0] == "loadgen" && args[1] == "gate" {
		return loadgenGate, args[2:], true
	}
	i := slices.IndexFunc(subcommands, func(sc subcommand) bool { return sc.name == args[0] })
	if i < 0 {
		return subcommand{}, nil, false
	}
	return subcommands[i], args[1:], true
}

// overview lists the subcommands with their summaries.
func overview(w io.Writer) {
	fmt.Fprint(w, "livetm reproduces \"On the Liveness of Transactional Memory\" (PODC 2012).\n\nusage: livetm <subcommand> [flags]\n\n")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "%s\n\t%s\n", sc.name, strings.ReplaceAll(sc.summary, "\n", "\n\t"))
	}
	fmt.Fprint(w, "\nRun `livetm help <subcommand>` for its flags.\n")
}

// setFlags returns those of names that the command line set, as -name.
func setFlags(fs *flag.FlagSet, names ...string) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// cellFlags declares the flags of the workload-matrix cell that run,
// record and serve execute — the engine, the process count (serve's
// -workers) and the cell's mix, contention and sharing — and returns
// the lookup of the engine and the matrix cell they name. The cell is
// selected from the declared matrix rather than rebuilt, so traces and
// live runs always match the matrix cell of the same name.
func cellFlags(fs *flag.FlagSet, engineHelp, procsFlag string, procs int, procsHelp string) func() (engine.Engine, workload.Spec, error) {
	name := fs.String("engine", "native-tl2", engineHelp)
	n := fs.Int(procsFlag, procs, procsHelp)
	mix := fs.String("mix", "update", "read/write mix: update, readheavy or writeheavy")
	contention := fs.String("contention", "hot", "contention level: hot or cold")
	sharing := fs.String("sharing", "shared", "variable sharing: shared or disjoint")
	return func() (engine.Engine, workload.Spec, error) {
		e, ok := engine.Lookup(*name)
		if !ok {
			return nil, workload.Spec{}, fmt.Errorf("unknown engine %q", *name)
		}
		for _, s := range workload.Matrix([]int{*n}) {
			if s.Mix.Name == *mix && s.Contention.Name == *contention && string(s.Sharing) == *sharing {
				return e, s, nil
			}
		}
		return nil, workload.Spec{}, fmt.Errorf("no matrix cell with mix %q, contention %q, sharing %q", *mix, *contention, *sharing)
	}
}

// printReport prints a monitor report with its liveness class and each
// process's starvation intervals; a nil report prints nothing.
func printReport(rep *monitor.Report) {
	if rep == nil {
		return
	}
	fmt.Print(rep.Format())
	fmt.Printf("  liveness class: %s\n", rep.LivenessClass())
	intervals := rep.StarvationIntervals()
	for _, p := range rep.Procs {
		if iv := intervals[p.Proc]; len(iv) > 0 {
			fmt.Printf("  p%d starvation intervals (events): %v\n", p.Proc, iv)
		}
	}
}
