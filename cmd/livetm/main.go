// Command livetm is the experiment driver for the reproduction of
// "On the Liveness of Transactional Memory" (PODC 2012).
//
// Subcommands:
//
//	livetm matrix [-ablations] [-steps N]
//	    Run the liveness matrix (DESIGN.md E20): each TM × fault
//	    model, compared against the paper's §3.2.3 claims.
//
//	livetm run -engine NAME [-procs N] [-ops N] [-mix M] [-contention C] [-sharing S] [-quiesce N] [-out FILE]
//	    Run one workload cell on a native engine with the in-process
//	    monitor attached: events stream into the checker while the
//	    cell executes, an opacity violation stops the run mid-flight,
//	    and the measured per-process starvation rebiases the retry
//	    backoff (starved processes back off less). Prints the monitor
//	    report and liveness class. A plain recorded run is
//	    `livetm record`.
//
//	livetm serve -engine NAME [-workers N] [-submitters N] [-mix M] [-contention C] [-sharing S] [-duration D] [-progress D] [-metrics ADDR] [-flight FILE [-flight-every D]] [-listen ADDR [-max-inflight N] [-retry-after D]]
//	    Run a native engine as a long-lived service: one session whose
//	    worker pool serves transactions submitted by concurrent client
//	    goroutines, with the in-process monitor resident for the
//	    session's whole lifetime — the soak mode for native TMs.
//	    Prints a progress line every -progress interval (throughput,
//	    abort-cause breakdown, checker lag, backoff
//	    bias) and drains cleanly on SIGINT/SIGTERM (or after
//	    -duration), printing the final monitor report and liveness
//	    class. A safety violation stops the service mid-flight with a
//	    non-zero exit. -metrics ADDR serves the session's live
//	    telemetry registry over HTTP — Prometheus text exposition at
//	    /metrics, an indented JSON snapshot at /snapshot, and
//	    net/http/pprof at /debug/pprof/ — and -flight FILE appends a
//	    JSONL registry snapshot every -flight-every (default 1s) for
//	    offline trajectory analysis. -listen ADDR additionally puts
//	    the session on the wire (internal/server): the HTTP/JSON wire
//	    API v1 under /v1/ serves remote clients (blocking Exec
//	    programs, async Submit/Wait, interactive transactions, remote
//	    drain) on the same listener as the telemetry endpoints, with
//	    per-client fair admission (-max-inflight caps concurrent
//	    submissions; refusals answer 429 with a Retry-After of
//	    -retry-after) — in this mode -submitters defaults to 0 (remote
//	    clients are the load) and quiescent cuts are disabled unless
//	    explicitly configured, since a parked interactive transaction
//	    must not block a cut.
//
//	livetm client [-addr ADDR] [-name ID] [-clients N] [-ops N] [-strategy NAME [-rounds N] [-block-timeout D]] [-drain]
//	    Drive a served session (`livetm serve -listen`) over the wire
//	    API. Default mode is load: -clients connections each run -ops
//	    increment programs, backing off on 429 exactly as the server's
//	    Retry-After hints say, then print the commit/backoff tally and
//	    the server's stats. -strategy runs a Theorem 1 environment
//	    strategy (alg1, alg1-crash, alg2, alg2-parasitic) as a true
//	    network client — each process an interactive wire transaction —
//	    and prints the observed no-local-progress outcome. -drain asks
//	    the server to drain and prints the session's final monitor
//	    report, liveness class, and per-process starvation intervals.
//
//	livetm loadgen -scenario FILE [-addr ADDR] [-plan] [-out FILE] [-drain] [-gate]
//	    Drive a declarative open-loop scenario (internal/loadgen):
//	    Poisson or bursty arrivals at fixed seed, weighted
//	    workload-matrix cell mixes, warmup/inject/recovery phases with
//	    adversary strategies as the inject faults, and ramp schedules
//	    growing the worker pool under load. -addr targets a served
//	    session (`livetm serve -listen`); without it the scenario's
//	    session block opens an in-process one (ramps are in-process
//	    only, faults wire-only). -plan prints the materialized
//	    schedule — a pure function of (file, seed), byte-identical
//	    across runs — and exits. The run emits a provenance-stamped
//	    artifact (scenario hash, seed, plan digest, git describe,
//	    per-phase p50/p95/p99, abort and overload-refusal rates,
//	    fault outcomes; -drain folds in the final monitor report's
//	    liveness class and checked-throughput); -out writes it, and
//	    -gate evaluates the scenario's release gates immediately
//	    (non-zero exit on failure).
//
//	livetm loadgen gate -artifact FILE
//	    Re-judge a saved loadgen artifact (schema livetm/loadgen/v2)
//	    against its embedded gates: p99 latency, abort rate,
//	    overload-refusal rate, throughput floor and minimum liveness
//	    class. Prints one verdict line per gate; exits non-zero if any
//	    gate fails — the CI regression gate.
//
//	livetm adversary [-tm NAME | -engine NAME | -matrix] [-alg 1|2] [-crash] [-parasitic] [-rounds N] [-out FILE] [-artifact FILE]
//	    Run the Theorem 1 environment strategy against a TM and print
//	    the resulting history suffix (Figures 9, 10, 12, 13). -tm picks
//	    a simulated TM; -engine picks a registry engine on either
//	    substrate ("native-tl2" drives the strategy against the real
//	    goroutines through the linearization-point hooks, streaming the
//	    run through the online monitor); -matrix runs every strategy
//	    variant against every native algorithm and its simulated
//	    counterpart, printing the cross-substrate starvation comparison
//	    and optionally writing it as the -artifact JSON (schema
//	    livetm/adversary-starvation/v1).
//
//	livetm check -file FILE
//	    Load a JSON Lines trace ("-" reads stdin) and decide opacity
//	    and strict serializability. A trace of at most 64 transactions
//	    is decided in one search, and an opaque one prints its witness
//	    serialization. A longer trace is decided segment by segment at
//	    quiescent cuts, without a witness, and is undecided when a
//	    stretch of more than 64 transactions has no cut.
//
//	livetm record -engine NAME [-procs N] [-ops N] [-mix M] [-contention C] [-sharing S] [-out FILE]
//	    Run any engine (native algorithms included)
//	    with history recording and write the history as a JSON Lines
//	    trace ("-" writes stdout, so it pipes into check/monitor).
//
//	livetm monitor -file FILE [-segment N] [-window N] [-every N] [-approx]
//	    Stream a trace ("-" reads stdin, live from a pipe) through the
//	    online monitor: incremental opacity checking plus per-process
//	    progress accounting classified against the liveness lattice.
//	    -approx degrades cut-starved streams to an explicit
//	    approximate verdict (forced serialization frontiers) instead
//	    of refusing them. An in-process native run under the monitor
//	    is `livetm run`.
//
//	livetm classify -file FILE [-split N]
//	    Read a trace as an infinite history (observed tail repeated
//	    forever) and report the paper's process classes and
//	    TM-liveness verdicts.
//
//	livetm theorem1 [-rounds N]
//	    Run both strategies against every registered TM (E17).
//
//	livetm theorem3 [-schedules N]
//	    Validate Fgp: opacity of random-schedule prefixes and steady
//	    commits under faults (E19).
//
//	livetm fgp-states [-procs N] [-vars N] [-variant faithful|corrected]
//	    Enumerate the reachable state space of a small Fgp instance
//	    (Figure 15 is -procs 1 -vars 1 -variant faithful).
//
//	livetm fgp-dot [-procs N] [-vars N]
//	    Emit the Fgp state graph as Graphviz DOT (Figure 15's diagram).
//
//	livetm explore -tm NAME [-depth N] [-procs N]
//	    Exhaustively model-check a TM: enumerate every schedule of the
//	    increment scenario up to the bound and verify opacity of each
//	    reachable history.
//
//	livetm lattice [-samples N]
//	    Sample the inclusion lattice of the TM-liveness properties
//	    (local/k/global/solo/priority progress) with witnesses.
//
//	livetm report [-quick]
//	    Regenerate every experiment in one pass as a markdown report.
//
//	livetm tms
//	    List the registered TM implementations.
//
//	livetm engines
//	    List every (algorithm, substrate) engine behind the unified
//	    engine API with its capabilities.
//
//	livetm workloads [-procs LIST] [-simsteps N] [-ops N] [-ablations] [-record] [-check] [-live] [-quiesce N]
//	    Run the declared workload matrix on every engine of both
//	    substrates and print the result table; it writes no file.
//	    -record captures each cell's history, -check verifies it
//	    through the online monitor and prints how many cells it
//	    decided, and -live runs native cells under the in-process
//	    monitor (per-cell liveness class and quiescent-cut summary,
//	    starvation-aware backoff).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/adversary/netadv"
	"livetm/internal/automaton"
	"livetm/internal/client"
	"livetm/internal/core"
	"livetm/internal/engine"
	"livetm/internal/explore"
	"livetm/internal/fgp"
	"livetm/internal/liveness"
	"livetm/internal/loadgen"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/safety"
	"livetm/internal/server"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/telemetry"
	"livetm/internal/trace"
	"livetm/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "livetm:", err)
		os.Exit(1)
	}
}

// subcommands is the single dispatch table; usage() derives the
// synopsis from it, so adding a subcommand here is the whole job.
var subcommands = []struct {
	name string
	run  func(args []string) error
}{
	{"matrix", cmdMatrix},
	{"run", cmdRun},
	{"serve", cmdServe},
	{"client", cmdClient},
	{"loadgen", cmdLoadgen},
	{"check", cmdCheck},
	{"classify", cmdClassify},
	{"adversary", cmdAdversary},
	{"theorem1", cmdTheorem1},
	{"theorem3", cmdTheorem3},
	{"fgp-states", cmdFgpStates},
	{"fgp-dot", cmdFgpDOT},
	{"explore", cmdExplore},
	{"lattice", cmdLattice},
	{"report", cmdReport},
	{"record", cmdRecord},
	{"monitor", cmdMonitor},
	{"tms", cmdTMs},
	{"engines", cmdEngines},
	{"workloads", cmdWorkloads},
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage()
		return nil
	}
	for _, sc := range subcommands {
		if sc.name == args[0] {
			return sc.run(args[1:])
		}
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	names := make([]string, len(subcommands))
	for i, sc := range subcommands {
		names[i] = sc.name
	}
	fmt.Fprintf(os.Stderr, "usage: livetm <%s> [flags]\n", strings.Join(names, "|"))
}

// loadTraceArg reads a JSON Lines trace from the -file argument, with
// "-" meaning stdin so traces pipe between subcommands without a temp
// file.
func loadTraceArg(file string) (model.History, error) {
	if file == "-" {
		return model.ReadTrace(os.Stdin)
	}
	return model.LoadTrace(file)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	file := fs.String("file", "", "JSON Lines trace file, or - for stdin (see `livetm adversary -out`, `livetm record`)")
	render := fs.Bool("render", true, "render the history")
	if err := fs.Parse(args); err != nil {
		return err
	}
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

func cmdMatrix(args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	ablations := fs.Bool("ablations", true, "include ablation variants")
	steps := fs.Int("steps", 2000, "scheduler steps per scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows := core.RunMatrix(core.MatrixConfig{Steps: *steps, Ablations: *ablations})
	fmt.Print(core.FormatMatrix(rows))
	for _, r := range rows {
		if !r.Match() {
			return fmt.Errorf("matrix mismatch for %s", r.Name)
		}
	}
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	file := fs.String("file", "", "JSON Lines trace file, or - for stdin")
	split := fs.Int("split", -1, "prefix length; the rest is read as the repeating tail (default: half)")
	if err := fs.Parse(args); err != nil {
		return err
	}
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

func cmdAdversary(args []string) error {
	fs := flag.NewFlagSet("adversary", flag.ContinueOnError)
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := adversary.Config{Rounds: *rounds, Seed: 3}
	strategy := adversary.Strategy{Algorithm: *alg, Crash: *crash, Parasitic: *parasitic}
	if *matrix {
		// Flags the matrix runs all combinations of (or cannot honour)
		// are rejected, not silently dropped.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tm", "engine", "alg", "crash", "parasitic", "tail", "out":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("adversary: %s cannot be combined with -matrix (it runs every strategy variant against every engine)", strings.Join(conflict, ", "))
		}
		cells, err := adversary.RunMatrix(cfg)
		if err != nil {
			return err
		}
		fmt.Print(adversary.FormatCells(cells))
		for _, c := range cells {
			if !c.Dichotomy() {
				return fmt.Errorf("%s on %s: p1 committed — safety or strategy violation", c.Strategy, c.Engine)
			}
		}
		if *artifact != "" {
			if err := adversary.WriteStarvationArtifact(*artifact, *rounds, cells); err != nil {
				return err
			}
			fmt.Printf("starvation artifact written to %s (%d cells)\n", *artifact, len(cells))
		}
		return nil
	}
	if *artifact != "" {
		return fmt.Errorf("adversary: -artifact needs -matrix")
	}
	if *alg != 1 && *alg != 2 {
		return fmt.Errorf("alg must be 1 or 2")
	}
	if *engineName != "" && strings.HasPrefix(*engineName, "native-") {
		return adversaryNative(*engineName, strategy, cfg, *tail, *out)
	}
	if *engineName != "" {
		name, ok := strings.CutPrefix(*engineName, "sim-")
		if !ok {
			return fmt.Errorf("adversary: engine %q is neither native-* nor sim-*", *engineName)
		}
		*tmName = name
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
	h := res.History
	if len(h) > *tail {
		fmt.Printf("history suffix (last %d of %d events):\n", *tail, len(h))
		h = h[len(h)-*tail:]
	}
	fmt.Print(trace.Render(h))
	fmt.Print(trace.Summary(res.History))
	if *out != "" {
		if err := model.SaveTrace(*out, res.History); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events)\n", *out, len(res.History))
	}
	if res.P1Committed {
		return fmt.Errorf("p1 committed: safety or strategy violation")
	}
	return nil
}

// adversaryNative drives one strategy against a native engine through
// the real-concurrency driver and prints the monitor's starvation
// harvest alongside the history suffix.
func adversaryNative(engineName string, s adversary.Strategy, cfg adversary.Config, tail int, out string) error {
	var info native.Info
	found := false
	for _, i := range native.Algorithms() {
		if i.Name == engineName {
			info, found = i, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown native engine %q (see `livetm engines`)", engineName)
	}
	res, err := adversary.RunNative(info, s, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("adversary %s vs %s: rounds=%d p1Committed=%v blocked=%v\n",
		s.Name(), info.Name, res.Rounds, res.P1Committed, res.Blocked)
	fmt.Printf("tm stats: commits=%d aborts=%d   backoff bias=%v (over %d rebias snapshots)\n",
		res.TMStats.Commits, res.TMStats.Aborts, res.BackoffBias, len(res.BiasTrajectory))
	fmt.Print(res.Report.Format())
	fmt.Printf("  liveness class: %s\n", res.Report.LivenessClass())
	intervals := res.Report.StarvationIntervals()
	for _, p := range res.Report.Procs {
		fmt.Printf("  p%d starvation intervals: %v\n", p.Proc, intervals[p.Proc])
	}
	h := res.History
	if len(h) > tail {
		fmt.Printf("history suffix (last %d of %d events):\n", tail, len(h))
		h = h[len(h)-tail:]
	}
	fmt.Print(trace.Render(h))
	if out != "" {
		if err := model.SaveTrace(out, res.History); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events)\n", out, len(res.History))
	}
	if res.Violation != nil {
		return fmt.Errorf("monitor found a safety violation: %w", res.Violation)
	}
	if res.P1Committed {
		return fmt.Errorf("p1 committed: safety or strategy violation")
	}
	return nil
}

func cmdTheorem1(args []string) error {
	fs := flag.NewFlagSet("theorem1", flag.ContinueOnError)
	rounds := fs.Int("rounds", 10, "p2 commits per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	outs := core.Theorem1Evidence(*rounds, true)
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

func cmdTheorem3(args []string) error {
	fs := flag.NewFlagSet("theorem3", flag.ContinueOnError)
	schedules := fs.Int("schedules", 25, "random schedules to check")
	ops := fs.Int("ops", 200, "operations per schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out := core.Theorem3Evidence(*schedules, *ops)
	if out.Violation != "" {
		return fmt.Errorf("theorem 3 violated: %s", out.Violation)
	}
	fmt.Printf("theorem 3: %d schedules checked, %d opaque prefixes, %d commits — Fgp ensures opacity and global progress\n",
		out.SchedulesChecked, out.PrefixesOpaque, out.Commits)
	return nil
}

func cmdFgpStates(args []string) error {
	fs := flag.NewFlagSet("fgp-states", flag.ContinueOnError)
	procs := fs.Int("procs", 1, "process count")
	vars := fs.Int("vars", 1, "t-variable count")
	variantName := fs.String("variant", "faithful", "faithful or corrected")
	limit := fs.Int("limit", 2000, "state budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
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

func cmdFgpDOT(args []string) error {
	fs := flag.NewFlagSet("fgp-dot", flag.ContinueOnError)
	procs := fs.Int("procs", 1, "process count")
	vars := fs.Int("vars", 1, "t-variable count")
	limit := fs.Int("limit", 2000, "state budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
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

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	tmName := fs.String("tm", "tl2", "TM implementation (see `livetm tms`)")
	depth := fs.Int("depth", 14, "schedule step bound")
	procs := fs.Int("procs", 2, "process count (each runs one increment transaction)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nf, ok := core.Lookup(*tmName)
	if !ok {
		return fmt.Errorf("unknown TM %q", *tmName)
	}
	sc := explore.Scenario{
		NProcs:  *procs,
		NVars:   1,
		Factory: nf.Factory,
		Body: func(tm stm.TM, p model.Proc) func(*sim.Env) {
			return func(env *sim.Env) {
				v, st := tm.Read(env, 0)
				if st != stm.OK {
					return
				}
				if tm.Write(env, 0, v+1) != stm.OK {
					return
				}
				tm.TryCommit(env)
			}
		},
	}
	stats, err := explore.Run(sc, *depth, func(schedule []model.Proc, h model.History) error {
		res, cerr := safety.CheckOpacity(h)
		if cerr != nil {
			return cerr
		}
		if !res.Holds {
			return fmt.Errorf("not opaque: %s", res.Reason)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("exhaustive check FAILED: %w", err)
	}
	fmt.Printf("exhaustively verified %s: %d schedules (deepest %d), every reachable history opaque\n",
		nf.Name, stats.Schedules, stats.Deepest)
	return nil
}

// cmdReport regenerates every experiment in one pass and emits a
// self-contained markdown report — the "rerun the paper" command.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "smaller budgets for a fast smoke report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	steps, rounds, samples, depth := 2000, 10, 5000, 14
	if *quick {
		steps, rounds, samples, depth = 800, 4, 800, 10
	}

	fmt.Println("# livetm experiment report")
	fmt.Println()
	fmt.Println("Reproduction of Bushkov, Guerraoui, Kapałka: On the Liveness of")
	fmt.Println("Transactional Memory (PODC 2012). All runs are deterministic.")

	fmt.Println("\n## E20 — liveness matrix (§3.2.3 claims)\n\n```")
	rows := core.RunMatrix(core.MatrixConfig{Steps: steps, Ablations: true})
	fmt.Print(core.FormatMatrix(rows))
	fmt.Println("```")
	for _, r := range rows {
		if !r.Match() {
			return fmt.Errorf("matrix mismatch for %s", r.Name)
		}
	}

	fmt.Println("\n## E17 — Theorem 1 (impossibility of local progress)\n\n```")
	outs := core.Theorem1Evidence(rounds, true)
	fmt.Print(core.FormatTheorem1(outs))
	fmt.Println("```")
	for _, o := range outs {
		if !o.Starved {
			return fmt.Errorf("%s/%s: p1 committed", o.TM, o.Strategy)
		}
	}
	for _, note := range core.Theorem2Evidence() {
		fmt.Println("- Theorem 2:", note)
	}

	fmt.Println("\n## E19 — Theorem 3 (Fgp: opacity + global progress)")
	t3 := core.Theorem3Evidence(25, 200)
	if t3.Violation != "" {
		return fmt.Errorf("theorem 3 violated: %s", t3.Violation)
	}
	fmt.Printf("\n%d random fault-injected schedules; %d opaque prefixes; %d commits.\n",
		t3.SchedulesChecked, t3.PrefixesOpaque, t3.Commits)

	fmt.Println("\n## E25 — TM-liveness property lattice\n\n```")
	fmt.Print(core.BuildPropertyLattice(samples).Format())
	fmt.Println("```")

	fmt.Println("\n## E26 — exhaustive model checking")
	fmt.Println()
	for _, name := range []string{"tinystm", "tl2", "norec", "dstm", "ostm", "fgp"} {
		nf, ok := core.Lookup(name)
		if !ok {
			return fmt.Errorf("%s not registered", name)
		}
		sc := explore.Scenario{NProcs: 2, NVars: 1, Factory: nf.Factory,
			Body: func(tm stm.TM, p model.Proc) func(*sim.Env) {
				return func(env *sim.Env) {
					v, st := tm.Read(env, 0)
					if st != stm.OK {
						return
					}
					if tm.Write(env, 0, v+1) != stm.OK {
						return
					}
					tm.TryCommit(env)
				}
			}}
		stats, err := explore.Run(sc, depth, func(schedule []model.Proc, h model.History) error {
			res, cerr := safety.CheckOpacity(h)
			if cerr != nil {
				return cerr
			}
			if !res.Holds {
				return fmt.Errorf("not opaque: %s", res.Reason)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s failed exhaustive verification: %w", name, err)
		}
		fmt.Printf("- %s: %d schedules (deepest %d), every reachable history opaque\n",
			name, stats.Schedules, stats.Deepest)
	}
	fmt.Println("\nreport complete: all experiments match the paper's claims.")
	return nil
}

func cmdLattice(args []string) error {
	fs := flag.NewFlagSet("lattice", flag.ContinueOnError)
	samples := fs.Int("samples", 5000, "random lassos to sample")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lat := core.BuildPropertyLattice(*samples)
	fmt.Print(lat.Format())
	return nil
}

func cmdTMs(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("tms: unexpected arguments %v", args)
	}
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

func cmdEngines(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("engines: unexpected arguments %v", args)
	}
	ablation := map[string]bool{}
	for _, nf := range core.Registry(true) {
		if nf.Ablation {
			ablation["sim-"+nf.Name] = true
		}
	}
	for _, e := range engine.Engines(true) {
		caps := e.Capabilities()
		note := ""
		if ablation[e.Name()] {
			note = "  (ablation variant; excluded unless `workloads -ablations`)"
		}
		fmt.Printf("%-20s substrate=%-6s nonblocking=%-5v%s\n",
			e.Name(), caps.Substrate, caps.Nonblocking, note)
	}
	return nil
}

func cmdWorkloads(args []string) error {
	fs := flag.NewFlagSet("workloads", flag.ContinueOnError)
	procsArg := fs.String("procs", "1,2,4", "comma-separated process counts")
	simSteps := fs.Int("simsteps", 2000, "scheduler steps per simulated cell")
	ops := fs.Int("ops", 500, "committed transactions per process per native cell")
	ablations := fs.Bool("ablations", false, "include the simulated ablation variants")
	record := fs.Bool("record", false, "record each cell's history")
	check := fs.Bool("check", false, "verify each recorded history through the online monitor (implies -record)")
	live := fs.Bool("live", false, "run native cells under the in-process monitor (mid-flight stop, starvation-aware backoff, per-cell liveness class)")
	quiesce := fs.Int("quiesce", 4, "quiescent-cut interval of recorded native cells: a session pause after every N × workers completed transactions (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
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

// matrixCell selects the declared matrix cell with the given mix,
// contention and sharing for one process count, so traces and live
// runs always match the matrix cell of the same name.
func matrixCell(procs int, mix, contention, sharing string) (workload.Spec, error) {
	for _, s := range workload.Matrix([]int{procs}) {
		if s.Mix.Name == mix && s.Contention.Name == contention && string(s.Sharing) == sharing {
			return s, nil
		}
	}
	return workload.Spec{}, fmt.Errorf("no matrix cell with mix %q, contention %q, sharing %q", mix, contention, sharing)
}

// cmdRun runs one workload cell under the in-process monitor: events
// stream into the checker while the cell executes, a safety violation
// stops the run mid-flight, and measured starvation rebiases the
// native backoff loop. It prints the run's stats and the monitor's
// report.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("engine", "native-tl2", "native engine to run (see `livetm engines`)")
	procsN := fs.Int("procs", 4, "process count")
	ops := fs.Int("ops", 200, "rounds per process")
	mixName := fs.String("mix", "update", "read/write mix: update, readheavy or writeheavy")
	contentionName := fs.String("contention", "hot", "contention level: hot or cold")
	sharing := fs.String("sharing", "shared", "variable sharing: shared or disjoint")
	quiesce := fs.Int("quiesce", 0, "quiescent-cut interval: a session pause after every N × workers completed transactions (0 = the live default of 4, -1 = never)")
	out := fs.String("out", "", "also retain the history and write it as a JSON Lines trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, ok := engine.Lookup(*name)
	if !ok {
		return fmt.Errorf("run: unknown engine %q", *name)
	}
	spec, err := matrixCell(*procsN, *mixName, *contentionName, *sharing)
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
	if st.Live != nil {
		fmt.Print(st.Live.Format())
		fmt.Printf("  liveness class: %s\n", st.Live.LivenessClass())
	}
	fmt.Printf("  backoff cap=%d bias=%v recorder chunks=%d\n", st.BackoffCap, st.BackoffBias, st.RecorderChunks)
	if *out != "" && st.History != nil {
		if err := model.SaveTrace(*out, st.History); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events)\n", *out, len(st.History))
	}
	return runErr
}

// cmdServe runs a native engine as a long-lived service: one session
// whose worker pool serves matrix-cell transactions submitted by
// concurrent client goroutines, the in-process monitor resident for
// the session's lifetime, periodic progress lines, and a SIGTERM-clean
// shutdown that drains in-flight transactions and prints the final
// monitor report.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("engine", "native-tl2", "native engine to serve (see `livetm engines`)")
	workers := fs.Int("workers", 4, "worker pool size (the session's process count)")
	submitters := fs.Int("submitters", 8, "concurrent client goroutines submitting transactions")
	mixName := fs.String("mix", "update", "read/write mix: update, readheavy or writeheavy")
	contentionName := fs.String("contention", "hot", "contention level: hot or cold")
	sharing := fs.String("sharing", "shared", "variable sharing: shared or disjoint")
	live := fs.Bool("live", true, "keep the in-process monitor resident (mid-flight violation stop + starvation-aware backoff)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = serve until SIGINT/SIGTERM)")
	progress := fs.Duration("progress", 2*time.Second, "progress line interval")
	quiesce := fs.Int("quiesce", 0, "quiescent-cut interval: a session pause after every N × workers completed transactions (0 = the live default of 4, -1 = never)")
	listen := fs.String("listen", "", "serve the wire API v1 on this address (livetm client / internal/client); telemetry rides the same listener at /metrics. Defaults -submitters to 0 and -quiesce to -1 (network clients park transactions across round trips, which would stall a cut) unless set explicitly")
	maxInflight := fs.Int("max-inflight", 256, "wire admission cap: total submissions in flight across all clients, shared fairly (0 = unbounded; -listen only)")
	retryAfter := fs.Duration("retry-after", 50*time.Millisecond, "backoff hint attached to wire overload refusals (-listen only)")
	metricsAddr := fs.String("metrics", "", "serve live telemetry on this address: Prometheus text at /metrics, JSON at /snapshot, pprof at /debug/pprof/ (empty = no endpoint)")
	flight := fs.String("flight", "", "flight recorder: append a JSONL registry snapshot to this file every -flight-every (empty = off)")
	flightEvery := fs.Duration("flight-every", time.Second, "flight-recorder snapshot interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flightEvery <= 0 {
		return fmt.Errorf("serve: -flight-every must be positive, got %v", *flightEvery)
	}
	if *progress <= 0 {
		return fmt.Errorf("serve: -progress must be positive, got %v", *progress)
	}
	if *listen == "" {
		var wireOnly []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "max-inflight", "retry-after":
				wireOnly = append(wireOnly, "-"+f.Name)
			}
		})
		if len(wireOnly) > 0 {
			return fmt.Errorf("serve: %s only applies with -listen (wire admission control)", strings.Join(wireOnly, ", "))
		}
	} else {
		// A wire service defaults to no local submitters (the load comes
		// from the network) and, on a live session, to cuts disabled: a
		// network client parks its transaction inside the body between
		// round trips, and a quiescent cut would wait on it forever.
		subSet, quiesceSet := false, false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "submitters":
				subSet = true
			case "quiesce":
				quiesceSet = true
			}
		})
		if !subSet {
			*submitters = 0
		}
		if !quiesceSet && *live {
			*quiesce = -1
		}
	}
	// A -quiesce that only the resident monitor honours reaches
	// engine.Open, which rejects it on a session with -live=false.
	spec, err := matrixCell(*workers, *mixName, *contentionName, *sharing)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The soak service always registers its instruments: the progress
	// lines read the registry, and the overhead budget the root
	// BenchmarkTelemetryOverhead enforces keeps it cheap either way.
	reg := telemetry.NewRegistry()
	s, err := engine.Open(engine.SessionConfig{
		Engine:       *name,
		Workers:      *workers,
		Vars:         spec.Vars,
		Live:         *live,
		QuiesceEvery: *quiesce,
		Telemetry:    reg,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var wsrv *server.Server
	if *listen != "" {
		wsrv = server.New(s, server.Config{
			MaxInflight: *maxInflight,
			RetryAfter:  *retryAfter,
			Registry:    reg,
			Info: server.InfoResponse{
				Engine: s.Name(), Workers: *workers, Vars: spec.Vars, Live: *live,
			},
		})
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			_, _ = s.Close()
			return fmt.Errorf("serve: -listen: %w", err)
		}
		hsrv := &http.Server{Handler: wsrv.Handler()}
		go func() { _ = hsrv.Serve(ln) }()
		defer hsrv.Close()
		fmt.Printf("serve: wire API v1 on http://%s/v1/ (max-inflight=%d, telemetry at /metrics)\n", ln.Addr(), *maxInflight)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			_, _ = s.Close()
			return fmt.Errorf("serve: -metrics: %w", err)
		}
		srv := &http.Server{Handler: telemetry.Handler(reg)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Printf("serve: telemetry on http://%s/metrics (JSON at /snapshot, pprof at /debug/pprof/)\n", ln.Addr())
	}
	if *flight != "" {
		f, err := os.OpenFile(*flight, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			_, _ = s.Close()
			return fmt.Errorf("serve: -flight: %w", err)
		}
		fr := telemetry.NewFlightRecorder(reg, f, *flightEvery)
		fr.Start()
		defer func() { fr.Stop(); f.Close() }()
		fmt.Printf("serve: flight recorder appending to %s every %v\n", *flight, *flightEvery)
	}
	fmt.Printf("serve: %s serving %s with %d workers, %d submitters (live=%v)\n",
		s.Name(), spec.Name, *workers, *submitters, *live)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		var timeout <-chan time.Time
		if *duration > 0 {
			timeout = time.After(*duration)
		}
		select {
		case sig := <-sigc:
			fmt.Printf("serve: caught %v — draining\n", sig)
		case <-timeout:
			fmt.Printf("serve: duration %v elapsed — draining\n", *duration)
		case <-ctx.Done():
		}
		cancel()
	}()

	body := spec.Body()
	errc := make(chan error, *submitters)
	var wg sync.WaitGroup
	for i := 0; i < *submitters; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The workload body's variable choice is a function of its
			// process index, so the submission is pinned to the worker
			// with that identity: submitters sharing a worker serialize
			// on its lane, and a disjoint cell stays disjoint.
			proc := id % *workers
			for round := 0; ctx.Err() == nil; round++ {
				r := round
				err := s.ExecOn(ctx, proc, func(tx engine.Tx) error { return body(proc, r, tx) })
				switch {
				case err == nil, errors.Is(err, engine.ErrNoCommit):
				case errors.Is(err, context.Canceled):
					return
				default:
					errc <- err
					cancel()
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	submittersDone := (<-chan struct{})(done)
	var idleStop <-chan struct{}
	if *submitters == 0 {
		// No local submitters: the load is remote, so the instantly-empty
		// WaitGroup must not end the serving loop — the signal handler
		// (via ctx) or a remote drain does. With local submitters ctx
		// stays out of the select: they observe the cancellation
		// themselves and the loop ends on their clean exit.
		submittersDone = nil
		idleStop = ctx.Done()
	}
	var remoteDrained <-chan struct{}
	if wsrv != nil {
		remoteDrained = wsrv.Done()
	}

	start := time.Now()
	tick := time.NewTicker(*progress)
	defer tick.Stop()
serving:
	for {
		select {
		case <-tick.C:
			st := s.Stats()
			snap := reg.Snapshot()
			fmt.Printf("serve: t=%-8s workers=%d submitted=%d completed=%d commits=%d aborts=%d (%.1f%%)%s%s bias=%v\n",
				time.Since(start).Round(time.Second), st.Workers, st.Submitted, st.Completed,
				st.Commits, st.Aborts, 100*st.AbortRate(),
				abortCauseSummary(snap), laneLagSummary(snap), st.BackoffBias)
		case <-submittersDone:
			break serving
		case <-remoteDrained:
			fmt.Println("serve: drained remotely (POST /v1/drain)")
			break serving
		case <-idleStop:
			break serving
		}
	}

	var (
		rep  *monitor.Report
		st   engine.SessionStats
		cerr error
	)
	if wsrv != nil {
		// Drain through the wire server so parked interactive
		// transactions are abandoned before the session closes; a remote
		// drain already ran this and the call just returns its outcome.
		dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
		res, derr := wsrv.Drain(dctx)
		dcancel()
		rep, st, cerr = res.Report, res.Stats, derr
	} else {
		rep, cerr = s.Close()
		st = s.Stats()
	}
	fmt.Printf("serve: final report after %s: commits=%d aborts=%d (%.1f%%) no-commits=%d over %d workers\n",
		time.Since(start).Round(time.Millisecond), st.Commits, st.Aborts, 100*st.AbortRate(), st.NoCommits, st.Workers)
	if rep != nil {
		fmt.Print(rep.Format())
		fmt.Printf("  liveness class: %s\n", rep.LivenessClass())
	}
	if cerr != nil {
		return fmt.Errorf("serve: %w", cerr)
	}
	select {
	case err := <-errc:
		return fmt.Errorf("serve: submitter failed: %w", err)
	default:
	}
	return nil
}

// cmdClient drives a served session (livetm serve -listen) over the
// wire: either as a load generator — concurrent connections
// submitting increment programs with a 429-aware backoff loop — or,
// with -strategy, as the network adversary (the paper's environment
// strategies executed as wire clients through
// internal/adversary/netadv). -drain asks the server for a graceful
// drain afterwards and prints the final monitor report.
func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8722", "server address (livetm serve -listen)")
	name := fs.String("name", "", "client identity for per-client fairness accounting (default livetm-<pid>)")
	clients := fs.Int("clients", 4, "concurrent load connections")
	ops := fs.Int("ops", 200, "programs each connection submits (load mode)")
	strategyName := fs.String("strategy", "", "run this adversary strategy over the wire instead of load: alg1, alg1-crash, alg2 or alg2-parasitic")
	rounds := fs.Int("rounds", 10, "p2 commits to sample (-strategy)")
	blockTimeout := fs.Duration("block-timeout", 5*time.Second, "per-action budget before the TM counts as blocking (-strategy)")
	drain := fs.Bool("drain", false, "after the run, gracefully drain the server and print its final monitor report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ident := *name
	if ident == "" {
		ident = fmt.Sprintf("livetm-%d", os.Getpid())
	}
	c := client.New(client.Config{Addr: *addr, Name: ident})
	ctx := context.Background()
	info, err := c.Info(ctx)
	if err != nil {
		return fmt.Errorf("client: %s: %w", *addr, err)
	}
	fmt.Printf("client: %s serving %s (%d workers, %d vars, live=%v)\n",
		*addr, info.Engine, info.Workers, info.Vars, info.Live)

	if *strategyName != "" {
		var strat adversary.Strategy
		found := false
		for _, s := range adversary.Variants() {
			if s.Name() == *strategyName {
				strat, found = s, true
				break
			}
		}
		if !found {
			return fmt.Errorf("client: unknown strategy %q (alg1, alg1-crash, alg2, alg2-parasitic)", *strategyName)
		}
		if info.Workers < 2 {
			return fmt.Errorf("client: the adversary needs 2 workers, the server has %d", info.Workers)
		}
		outcome, err := netadv.RunNetwork(c, strat, adversary.Config{
			Rounds: *rounds, BlockTimeout: *blockTimeout,
		})
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		fmt.Printf("client: strategy %s: rounds=%d p1-committed=%v blocked=%v local-progress-violated=%v\n",
			strat.Name(), outcome.Rounds, outcome.P1Committed, outcome.Blocked, outcome.LocalProgressViolated())
	} else {
		if *clients <= 0 || *ops <= 0 {
			return fmt.Errorf("client: -clients and -ops must be positive")
		}
		var committed, retries atomic.Uint64
		var wg sync.WaitGroup
		errc := make(chan error, *clients)
		start := time.Now()
		for i := 0; i < *clients; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cc := client.New(client.Config{Addr: *addr, Name: fmt.Sprintf("%s-%d", ident, id)})
				v := id % info.Vars
				prog := []server.Op{{Kind: server.OpIncr, Var: v, Val: 1}}
				var backoff client.Backoff
				for n := 0; n < *ops; n++ {
					for {
						res, err := cc.Exec(ctx, engine.AnyWorker, prog)
						if err == nil {
							if res.Committed {
								committed.Add(1)
							}
							backoff.Reset()
							break
						}
						var werr *client.Error
						if errors.Is(err, engine.ErrOverloaded) && errors.As(err, &werr) {
							// The 429 path: the server's hint floors the
							// wait, jitter above it de-herds the retries.
							retries.Add(1)
							time.Sleep(backoff.Next(werr.RetryAfter))
							continue
						}
						errc <- fmt.Errorf("connection %d: %w", id, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		select {
		case err := <-errc:
			return fmt.Errorf("client: %w", err)
		default:
		}
		elapsed := time.Since(start)
		fmt.Printf("client: %d connections committed %d/%d programs in %v (%d overload retries)\n",
			*clients, committed.Load(), *clients**ops, elapsed.Round(time.Millisecond), retries.Load())
		st, err := c.Stats(ctx)
		if err != nil {
			return fmt.Errorf("client: stats: %w", err)
		}
		fmt.Printf("client: server stats: submitted=%d completed=%d commits=%d aborts=%d (%.1f%%)\n",
			st.Submitted, st.Completed, st.Commits, st.Aborts, 100*st.AbortRate())
	}

	if *drain {
		dctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		res, err := c.Drain(dctx)
		if err != nil {
			return fmt.Errorf("client: drain: %w", err)
		}
		fmt.Printf("client: server drained: commits=%d aborts=%d no-commits=%d\n",
			res.Stats.Commits, res.Stats.Aborts, res.Stats.NoCommits)
		if res.Report != nil {
			fmt.Print(res.Report.Format())
			fmt.Printf("  liveness class: %s\n", res.Report.LivenessClass())
			intervals := res.Report.StarvationIntervals()
			procs := make([]model.Proc, 0, len(intervals))
			for proc := range intervals {
				procs = append(procs, proc)
			}
			sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
			for _, proc := range procs {
				if iv := intervals[proc]; len(iv) > 0 {
					fmt.Printf("  p%d starvation intervals (events): %v\n", proc, iv)
				}
			}
		}
		if res.Code != "" {
			return fmt.Errorf("client: server closed with %s: %s", res.Code, res.Error)
		}
	}
	return nil
}

// cmdLoadgen drives a declarative open-loop scenario against an
// in-process session or a served one, emits the provenance-stamped
// artifact, and optionally evaluates the release gates in place. The
// "gate" word re-judges a saved artifact instead (the CI entry
// point).
func cmdLoadgen(args []string) error {
	if len(args) > 0 && args[0] == "gate" {
		return cmdLoadgenGate(args[1:])
	}
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	scenarioFile := fs.String("scenario", "", "scenario JSON file (required; see internal/loadgen's package docs for the schema)")
	addr := fs.String("addr", "", "address of a served session (livetm serve -listen); empty opens the scenario's in-process session block")
	planOnly := fs.Bool("plan", false, "print the materialized arrival schedule (deterministic JSON) and exit without running")
	out := fs.String("out", "", "write the run artifact JSON to this file")
	drainFlag := fs.Bool("drain", false, "drain the wire target after the run so the artifact carries the final monitor report (in-process runs always close and fold it)")
	ident := fs.String("name", "loadgen", "client identity prefix; arrivals rotate through <name>-0..<clients-1>")
	gateFlag := fs.Bool("gate", false, "evaluate the scenario's gates against the artifact; non-zero exit on failure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioFile == "" {
		return fmt.Errorf("loadgen: -scenario is required")
	}
	sc, hash, err := loadgen.Load(*scenarioFile)
	if err != nil {
		return err
	}
	if *planOnly {
		plan, err := sc.Plan()
		if err != nil {
			return err
		}
		b, err := plan.Encode()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var art *loadgen.Artifact
	if *addr != "" {
		c := client.New(client.Config{Addr: *addr, Name: *ident})
		tgt, err := loadgen.NewWireTarget(ctx, c)
		if err != nil {
			return err
		}
		fmt.Printf("loadgen: scenario %s (seed %d) against %s, %d workers, %d vars\n",
			sc.Name, sc.Seed, *addr, tgt.Workers(), tgt.Vars())
		if art, err = loadgen.Run(ctx, tgt, sc, hash, loadgen.Options{ClientPrefix: *ident}); err != nil {
			return err
		}
		if *drainFlag {
			dctx, cancel := context.WithTimeout(ctx, time.Minute)
			res, derr := c.Drain(dctx)
			cancel()
			if derr != nil {
				return fmt.Errorf("loadgen: drain: %w", derr)
			}
			art.AttachReport(res.Report)
		}
	} else {
		if sc.Session == nil {
			return fmt.Errorf("loadgen: scenario %s has no session block; give -addr or add one", sc.Name)
		}
		ses := sc.Session
		sess, err := engine.Open(engine.SessionConfig{
			Engine: ses.Engine, Workers: ses.Workers, MaxWorkers: ses.MaxWorkers,
			Vars: ses.Vars, MaxQueue: ses.MaxQueue, Live: ses.Live,
			Record: ses.Live,
		})
		if err != nil {
			return fmt.Errorf("loadgen: open session: %w", err)
		}
		tgt := &loadgen.SessionTarget{S: sess, NVars: ses.Vars}
		fmt.Printf("loadgen: scenario %s (seed %d) in process on %s, %d workers, %d vars\n",
			sc.Name, sc.Seed, sess.Name(), tgt.Workers(), tgt.Vars())
		art, err = loadgen.Run(ctx, tgt, sc, hash, loadgen.Options{ClientPrefix: *ident})
		rep, cerr := sess.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			fmt.Printf("loadgen: session close: %v\n", cerr)
		}
		art.AttachReport(rep)
	}

	for _, p := range art.Phases {
		line := fmt.Sprintf("loadgen: phase %-10s planned=%d dispatched=%d committed=%d p50=%.1fms p95=%.1fms p99=%.1fms abort=%.3f refusal=%.3f",
			p.Name, p.Planned, p.Dispatched, p.Committed, p.P50MS, p.P95MS, p.P99MS, p.AbortRate, p.RefusalRate)
		if p.Shed+p.Dropped+p.Errors > 0 {
			line += fmt.Sprintf(" shed=%d dropped=%d errors=%d", p.Shed, p.Dropped, p.Errors)
		}
		for _, fr := range p.FaultResults {
			line += fmt.Sprintf(" fault=%s runs=%d rounds=%d violations=%d",
				fr.Strategy, fr.Runs, fr.Rounds, fr.Violations)
		}
		fmt.Println(line)
	}
	if art.LivenessClass != "" {
		fmt.Printf("loadgen: liveness class: %s (checked=%v, checked-throughput=%.1f/s)\n",
			art.LivenessClass, art.Checked, art.CheckedThroughput)
	}
	if *out != "" {
		if err := art.Write(*out); err != nil {
			return fmt.Errorf("loadgen: write artifact: %w", err)
		}
		fmt.Printf("loadgen: artifact written to %s\n", *out)
	}
	if *gateFlag {
		if art.Gates == nil {
			return fmt.Errorf("loadgen: -gate set but scenario %s declares no gates", sc.Name)
		}
		return printGateVerdicts(loadgen.Evaluate(art, *art.Gates))
	}
	return nil
}

// cmdLoadgenGate re-judges a saved artifact against its embedded
// gates — the CI regression gate.
func cmdLoadgenGate(args []string) error {
	fs := flag.NewFlagSet("loadgen gate", flag.ContinueOnError)
	artifactFile := fs.String("artifact", "", "loadgen artifact JSON (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *artifactFile == "" {
		return fmt.Errorf("loadgen gate: -artifact is required")
	}
	art, err := loadgen.LoadArtifact(*artifactFile)
	if err != nil {
		return err
	}
	if art.Gates == nil {
		return fmt.Errorf("loadgen gate: artifact %s carries no gates", *artifactFile)
	}
	fmt.Printf("loadgen gate: %s (scenario %s, seed %d, %s)\n",
		*artifactFile, art.Scenario, art.Seed, art.GitDescribe)
	return printGateVerdicts(loadgen.Evaluate(art, *art.Gates))
}

// printGateVerdicts prints one line per gate and errors if any
// failed (the subcommands' non-zero exit).
func printGateVerdicts(results []loadgen.GateResult) error {
	failed := 0
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("loadgen gate: %-4s %-16s %s\n", verdict, r.Gate, r.Detail)
	}
	if len(results) == 0 {
		return fmt.Errorf("loadgen gate: no gates evaluated")
	}
	if failed > 0 {
		return fmt.Errorf("loadgen gate: %d/%d gates failed", failed, len(results))
	}
	return nil
}

// abortCauseSummary renders the retry loop's abort-cause breakdown
// from a registry snapshot (" causes=conflict:N,operation:M,..."),
// listing only non-zero causes; empty before any abort.
func abortCauseSummary(snap telemetry.Snapshot) string {
	f := snap.Family("livetm_tx_aborts_total")
	if f == nil {
		return ""
	}
	var parts []string
	for _, cause := range []string{"conflict", "operation", "abandoned", "stopped"} {
		if v, ok := snap.Value("livetm_tx_aborts_total", "cause", cause); ok && v > 0 {
			parts = append(parts, fmt.Sprintf("%s:%.0f", cause, v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " causes=" + strings.Join(parts, ",")
}

// laneLagSummary renders the streaming checker's backlog from a
// registry snapshot (" lag=N"); empty when no checker telemetry is
// registered.
func laneLagSummary(snap telemetry.Snapshot) string {
	v, ok := snap.Value("livetm_checker_lane_lag")
	if !ok {
		return ""
	}
	return fmt.Sprintf(" lag=%.0f", v)
}

// cmdRecord runs one engine over a workload-matrix
// style body and writes the recorded history as a JSON Lines trace.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	name := fs.String("engine", "native-tl2", "engine to run (see `livetm engines`)")
	procsN := fs.Int("procs", 2, "process count")
	ops := fs.Int("ops", 50, "rounds per process (native), round budget (sim)")
	simSteps := fs.Int("simsteps", 20000, "scheduler step budget (simulated engines)")
	mixName := fs.String("mix", "update", "read/write mix: update, readheavy or writeheavy")
	contentionName := fs.String("contention", "hot", "contention level: hot or cold")
	sharing := fs.String("sharing", "shared", "variable sharing: shared or disjoint")
	quiesce := fs.Int("quiesce", 4, "quiescent-cut interval on native engines: a session pause after every N × workers completed transactions plants the cuts the checkers need (0 = never)")
	seed := fs.Uint64("seed", 1, "scheduler seed (simulated engines)")
	out := fs.String("out", "-", "trace file, or - for stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, ok := engine.Lookup(*name)
	if !ok {
		return fmt.Errorf("record: unknown engine %q", *name)
	}
	caps := e.Capabilities()
	// Select the cell from the declared matrix rather than rebuilding
	// it, so recorded traces always match the matrix cell of the same
	// name.
	spec, err := matrixCell(*procsN, *mixName, *contentionName, *sharing)
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
	if caps.Substrate == engine.Simulated {
		cfg.SimSteps = *simSteps
	} else {
		cfg.QuiesceEvery = *quiesce
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

// cmdMonitor streams a trace — live from a pipe or replayed from a
// file — through the online monitor.
func cmdMonitor(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	file := fs.String("file", "", "JSON Lines trace file, or - for stdin")
	segment := fs.Int("segment", 48, "streaming opacity segment budget (transactions)")
	window := fs.Int("window", 256, "tail window (events) for liveness classification")
	every := fs.Int("every", 0, "print a progress line every N events (0 = only the final report)")
	approx := fs.Bool("approx", false, "degrade cut-starved streams to approximate verdicts instead of refusing")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
