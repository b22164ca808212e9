// Benchmark harness: one benchmark per paper artifact (figures 1–16,
// theorems 1–3), plus the liveness matrix (E20), the scalability/
// resilience experiment (E21), and the design-choice ablations (the
// variants core.Registry flags with Ablation). Each benchmark reports its headline measurement as
// custom metrics, so `go test -bench=. -benchmem` regenerates the
// paper's rows/series.
package livetm_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/automaton"
	"livetm/internal/core"
	"livetm/internal/engine"
	"livetm/internal/fgp"
	"livetm/internal/liveness"
	"livetm/internal/model"
	"livetm/internal/safety"
	"livetm/internal/sim"
	stmpkg "livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/glock"
	"livetm/internal/stm/ostm"
	"livetm/internal/stm/stmtest"
	"livetm/internal/telemetry"
	"livetm/internal/workload"
)

var printOnce sync.Map

// printHeader prints a benchmark's table once per process, keeping
// -bench output readable across b.N calibration runs.
func printHeader(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

// --- Figures 1, 3, 4, 8/11: safety checker verdicts ---

func benchVerdict(b *testing.B, h model.History, wantOpaque, wantSS bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		op, err := safety.CheckOpacity(h)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := safety.CheckStrictSerializability(h)
		if err != nil {
			b.Fatal(err)
		}
		if op.Holds != wantOpaque || ss.Holds != wantSS {
			b.Fatalf("verdicts opaque=%v ss=%v, want %v,%v", op.Holds, ss.Holds, wantOpaque, wantSS)
		}
	}
}

func BenchmarkFig01RetryHistory(b *testing.B) {
	printHeader("fig1", "fig01: retry history — opaque=true strictly-serializable=true\n")
	benchVerdict(b, core.Fig1(), true, true)
}

func BenchmarkFig03NotOpaque(b *testing.B) {
	printHeader("fig3", "fig03: lost update — opaque=false strictly-serializable=false\n")
	benchVerdict(b, core.Fig3(), false, false)
}

func BenchmarkFig04SSNotOpaque(b *testing.B) {
	printHeader("fig4", "fig04: inconsistent aborted read — opaque=false strictly-serializable=true\n")
	benchVerdict(b, core.Fig4(), false, true)
}

func BenchmarkFig08TerminationImpossible(b *testing.B) {
	printHeader("fig8", "fig08/11: adversary termination suffix — opaque=false (Theorem 1's case analysis)\n")
	benchVerdict(b, core.Fig8(0), false, false)
}

// BenchmarkFig11Alg2Termination: Figure 11 has Figure 8's shape.
func BenchmarkFig11Alg2Termination(b *testing.B) {
	benchVerdict(b, core.Fig8(7), false, false)
}

// --- Figure 2: class lattice over the figure lassos ---

func BenchmarkFig02ClassLattice(b *testing.B) {
	printHeader("fig2", "fig02: class lattice — crashed/parasitic ⊂ faulty ⊂ pending holds on all figure lassos\n")
	lassos := []*liveness.Lasso{core.Fig5(), core.Fig6(), core.Fig7(), core.Fig14()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lassos {
			for _, p := range l.Procs {
				if l.Crashes(p) && l.Correct(p) {
					b.Fatal("crashed must imply faulty")
				}
				if l.Parasitic(p) && !l.Pending(p) {
					b.Fatal("parasitic must imply pending")
				}
				if l.Starving(p) && !(l.Correct(p) && l.Pending(p)) {
					b.Fatal("starving must imply correct and pending")
				}
			}
		}
	}
}

// --- Figures 5, 6, 7, 14: liveness property membership ---

func benchLasso(b *testing.B, l *liveness.Lasso, wantLocal, wantGlobal, wantSolo bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if liveness.LocalProgress.Contains(l) != wantLocal ||
			liveness.GlobalProgress.Contains(l) != wantGlobal ||
			liveness.SoloProgress.Contains(l) != wantSolo {
			b.Fatal("liveness verdicts changed")
		}
	}
}

func BenchmarkFig05LocalProgress(b *testing.B) {
	printHeader("fig5", "fig05: local=true global=true solo=true\n")
	benchLasso(b, core.Fig5(), true, true, true)
}

func BenchmarkFig06GlobalProgress(b *testing.B) {
	printHeader("fig6", "fig06: local=false global=true solo=true (witnesses: global progress is not biprogressing)\n")
	benchLasso(b, core.Fig6(), false, true, true)
}

func BenchmarkFig07SoloProgress(b *testing.B) {
	printHeader("fig7", "fig07: crash+parasitic+solo runner — solo=true\n")
	benchLasso(b, core.Fig7(), true, true, true)
}

func BenchmarkFig14Blocking(b *testing.B) {
	printHeader("fig14", "fig14: solo runner starves — violates every nonblocking property\n")
	l := core.Fig14()
	for i := 0; i < b.N; i++ {
		if !liveness.ViolatesNonblocking(l) {
			b.Fatal("figure 14 must violate nonblocking")
		}
	}
}

// --- Figures 9, 10, 12, 13: adversary suffixes ---

func benchAdversary(b *testing.B, s adversary.Strategy, label string) {
	b.Helper()
	factory := func(n, v int) stmpkg.TM { return dstm.New() }
	var rounds, p1aborts int
	for i := 0; i < b.N; i++ {
		res := adversary.NewSimDriver(factory, adversary.Config{Rounds: 6, Seed: 5}).Run(s)
		if res.P1Committed {
			b.Fatal("p1 committed")
		}
		rounds = res.Rounds
		p1aborts = res.Stats.Aborts[1]
	}
	printHeader(label, fmt.Sprintf("%s: p2 commits=%d, p1 commits=0, p1 aborts=%d\n", label, rounds, p1aborts))
	b.ReportMetric(float64(rounds), "p2commits")
}

func BenchmarkFig09Alg1Crash(b *testing.B) {
	benchAdversary(b, adversary.Strategy{Algorithm: 1, Crash: true}, "fig09 (alg1, p1 crashes)")
}

func BenchmarkFig10Alg1NoCrash(b *testing.B) {
	benchAdversary(b, adversary.Strategy{Algorithm: 1}, "fig10 (alg1, p1 correct, starves)")
}

func BenchmarkFig12Alg2Parasitic(b *testing.B) {
	benchAdversary(b, adversary.Strategy{Algorithm: 2, Parasitic: true}, "fig12 (alg2, p1 parasitic)")
}

func BenchmarkFig13Alg2NoParasite(b *testing.B) {
	benchAdversary(b, adversary.Strategy{Algorithm: 2}, "fig13 (alg2, p1 correct, starves)")
}

// --- Figure 15: Fgp state space ---

func BenchmarkFig15FgpStateSpace(b *testing.B) {
	a, err := fgp.New(1, 1, fgp.Faithful)
	if err != nil {
		b.Fatal(err)
	}
	alphabet := a.Alphabet([]model.Value{0, 1})
	var n int
	for i := 0; i < b.N; i++ {
		states, err := automaton.Explore(a.IOAutomaton(), alphabet, 100)
		if err != nil {
			b.Fatal(err)
		}
		if len(states) != 10 {
			b.Fatalf("states = %d, want 10", len(states))
		}
		n = len(states)
	}
	printHeader("fig15", fmt.Sprintf("fig15: Fgp(1 proc, 1 binary var) reachable states = %d (paper: 10)\n", n))
	b.ReportMetric(float64(n), "states")
}

// --- Figure 16: Hex replay ---

func BenchmarkFig16FgpHex(b *testing.B) {
	printHeader("fig16", "fig16: Hex replays through Fgp and is opaque\n")
	a, err := fgp.New(3, 2, fgp.Corrected)
	if err != nil {
		b.Fatal(err)
	}
	hex := core.Fig16Hex()
	io := a.IOAutomaton()
	for i := 0; i < b.N; i++ {
		if _, err := io.Replay(hex); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorems ---

func BenchmarkThm1Impossibility(b *testing.B) {
	var starved int
	for i := 0; i < b.N; i++ {
		outs := core.Theorem1Evidence(3, false)
		starved = 0
		for _, o := range outs {
			if !o.Starved {
				b.Fatalf("%s/%s: p1 committed", o.TM, o.Strategy)
			}
			starved++
		}
	}
	printHeader("thm1", fmt.Sprintf("thm1: %d adversary runs (%d TMs × 2 strategies), p1 starved in all\n", starved, starved/2))
	b.ReportMetric(float64(starved), "starvedruns")
}

// BenchmarkLemma1NProcesses runs the n-process generalization: n-1
// holders and one committer; at most one process progresses.
func BenchmarkLemma1NProcesses(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			factory := func(procs, vars int) stmpkg.TM { return dstm.New() }
			var rounds int
			for i := 0; i < b.N; i++ {
				res := adversary.Lemma1(factory, n, adversary.Config{Rounds: 5, Seed: uint64(n)})
				if res.P1Committed {
					b.Fatal("a holder committed")
				}
				progressing := 0
				for _, c := range res.Stats.Commits {
					if c > 0 {
						progressing++
					}
				}
				if progressing > 1 {
					b.Fatalf("%d processes progressed", progressing)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "committerrounds")
		})
	}
}

func BenchmarkThm2Generalized(b *testing.B) {
	printHeader("thm2", "thm2: starvation and blocking lassos violate biprogressing/nonblocking classes\n")
	for i := 0; i < b.N; i++ {
		notes := core.Theorem2Evidence()
		if len(notes) != 2 {
			b.Fatalf("evidence notes = %v", notes)
		}
	}
}

func BenchmarkThm3FgpOpacity(b *testing.B) {
	var out core.Theorem3Outcome
	for i := 0; i < b.N; i++ {
		out = core.Theorem3Evidence(4, 120)
		if out.Violation != "" {
			b.Fatal(out.Violation)
		}
	}
	printHeader("thm3", fmt.Sprintf("thm3: %d random schedules, all prefixes opaque, %d commits under faults\n",
		out.SchedulesChecked, out.Commits))
	b.ReportMetric(float64(out.Commits), "commits")
}

// --- E20: liveness matrix ---

func BenchmarkLivenessMatrix(b *testing.B) {
	var rows []core.MatrixRow
	for i := 0; i < b.N; i++ {
		rows = core.RunMatrix(core.MatrixConfig{Steps: 800, Sweep: 25, Ablations: true})
		for _, r := range rows {
			if !r.Match() {
				b.Fatalf("%s: measured %+v, expected %+v", r.Name, r.Measured, r.Expected)
			}
		}
	}
	printHeader("matrix", "E20 liveness matrix:\n"+core.FormatMatrix(rows))
	b.ReportMetric(float64(len(rows)), "rows")
}

// --- E21: throughput under contention and faults (footnote 1) ---

func BenchmarkScalability(b *testing.B) {
	type point struct {
		tm      string
		procs   int
		commits int
	}
	var series []point
	for _, nf := range core.Registry(false) {
		nf := nf
		for _, procs := range []int{1, 2, 4, 8} {
			procs := procs
			b.Run(fmt.Sprintf("%s/p%d", nf.Name, procs), func(b *testing.B) {
				var total int
				for i := 0; i < b.N; i++ {
					counts := stmtest.FaultFree(nf.Factory, procs, 4000, 9)
					total = 0
					for _, c := range counts {
						total += c
					}
				}
				series = append(series, point{nf.Name, procs, total})
				b.ReportMetric(float64(total)/4000, "commits/step")
			})
		}
	}
	if len(series) > 0 {
		text := "E21 commit throughput (commits per 4000 fair steps, shared counter):\n"
		for _, p := range series {
			text += fmt.Sprintf("  %-10s procs=%d commits=%d\n", p.tm, p.procs, p.commits)
		}
		printHeader("scal", text)
	}
}

// TestWorkloadMatrixArtifact executes the declared workload matrix
// (internal/workload) across every (algorithm, substrate) pair
// through the engine API with small budgets: one cell per pair, and
// the matrix as a whole commits. It writes nothing.
// BenchmarkWorkloadMatrix is the full-budget, live-monitored version
// of the same run.
func TestWorkloadMatrixArtifact(t *testing.T) {
	engines := engine.Engines(false)
	specs := workload.Matrix([]int{1, 2})
	results, err := workload.RunMatrix(engines, specs, workload.Budget{SimSteps: 600, NativeOps: 50}, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(engines) * len(specs); len(results) != want {
		t.Fatalf("matrix produced %d cells, want %d", len(results), want)
	}
	var commits uint64
	for _, r := range results {
		commits += r.Commits
	}
	if commits == 0 {
		t.Fatal("the matrix committed nothing")
	}
}

// BenchmarkWorkloadMatrix is the wall-clock half of E21 (footnote 1)
// generalized: the declared workload matrix (process count ×
// read/write mix × contention × sharing) on every algorithm of both
// substrates. The native cells run under the in-process monitor, so
// their ops/sec is checked-throughput (live verification overlapped
// with the run) with a liveness class per cell; the simulated cells
// measure commits per deterministic scheduler step.
func BenchmarkWorkloadMatrix(b *testing.B) {
	engines := engine.Engines(false)
	specs := workload.Matrix([]int{1, 2, 4, 8})
	budget := workload.Budget{SimSteps: 4000, NativeOps: 1500}
	var results []workload.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = workload.RunMatrix(engines, specs, budget,
			workload.Options{Live: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	if want := len(engines) * len(specs); len(results) != want {
		b.Fatalf("matrix produced %d cells, want %d", len(results), want)
	}
	var commits, aborts uint64
	for _, r := range results {
		commits += r.Commits
		aborts += r.Aborts
	}
	if commits == 0 {
		b.Fatal("the matrix committed nothing")
	}
	printHeader("wmatrix", fmt.Sprintf(
		"workload matrix: %d engines × %d workloads = %d cells\n",
		len(engines), len(specs), len(results)))
	b.ReportMetric(float64(commits), "commits")
	b.ReportMetric(float64(aborts), "aborts")
}

// --- Recorder overhead: recorded vs unrecorded native runs ---

// BenchmarkRecorderOverhead measures what history recording costs on
// the native hot path: the default workload (4 procs, update mix, hot
// contention, shared variables) on native-tl2, unrecorded vs recorded
// vs live-monitored. Each recorded event is one atomic fetch-add plus
// a process-local chunk append. The live variant writes each event
// into its process's stream ring instead, publishes the ring's tail
// with one atomic store per transaction, and adds the pump goroutine
// that reads the rings in place and feeds the monitor. It must keep
// its allocation capped at one ring per process — asserted here. The
// recorded and live slowdowns are reported, not gated; the gated
// ceiling is overheadBudgetRatio, which BenchmarkTelemetryOverhead
// enforces.
func BenchmarkRecorderOverhead(b *testing.B) {
	var spec workload.Spec
	for _, s := range workload.Matrix([]int{4}) {
		if s.Mix.Name == "update" && s.Contention.Name == "hot" && s.Sharing == workload.Shared {
			spec = s
			break
		}
	}
	e, ok := engine.Lookup("native-tl2")
	if !ok {
		b.Fatal("native-tl2 not registered")
	}
	const ops = 2000
	measure := func(b *testing.B, record, live, instrumented bool) float64 {
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			var reg *telemetry.Registry
			if instrumented {
				reg = telemetry.NewRegistry()
			}
			start := time.Now()
			st, err := e.Run(engine.RunConfig{
				Procs: spec.Procs, Vars: spec.Vars,
				OpsPerProc: ops, Record: record, Live: live,
				Telemetry: reg,
			}, spec.Body())
			if err != nil {
				b.Fatal(err)
			}
			elapsed += time.Since(start)
			if record && len(st.History) == 0 {
				b.Fatal("recording run returned no history")
			}
			if live {
				if !st.Live.Checked {
					b.Fatalf("live run undecided: %s", st.Live.Opacity.Reason)
				}
				// The allocation cap the drop-mode rings buy: one ring
				// per process, however long the run.
				if st.RecorderChunks > spec.Procs {
					b.Fatalf("live run allocated %d chunks, cap is %d (one ring per process)",
						st.RecorderChunks, spec.Procs)
				}
			}
		}
		rate := float64(b.N) * float64(spec.Procs*ops) / elapsed.Seconds()
		b.ReportMetric(rate, "commits/sec")
		return rate
	}
	var raw, recorded, live, instrumented float64
	b.Run("unrecorded", func(b *testing.B) { raw = measure(b, false, false, false) })
	b.Run("recorded", func(b *testing.B) { recorded = measure(b, true, false, false) })
	b.Run("live", func(b *testing.B) { live = measure(b, false, true, false) })
	b.Run("instrumented", func(b *testing.B) { instrumented = measure(b, false, false, true) })
	if raw > 0 && recorded > 0 && live > 0 && instrumented > 0 {
		printHeader("recorder", fmt.Sprintf(
			"recorder overhead (%s on native-tl2): unrecorded %.0f commits/sec, recorded %.0f commits/sec (%.2fx), live-monitored %.0f commits/sec (%.2fx), telemetry-instrumented %.0f commits/sec (%.2fx, budget %.1fx)\n",
			spec.Name, raw, recorded, raw/recorded, live, raw/live,
			instrumented, raw/instrumented, overheadBudgetRatio))
	}
}

// overheadBudgetRatio is the enforced ceiling on instrumented /
// uninstrumented hot-path cost. The measured ratio on the benchmark
// cells sits near 1.0x; the budget is deliberately generous so the CI
// gate trips on structural regressions (a lock or a syscall sneaking
// onto the hot path), not on scheduler noise.
const overheadBudgetRatio = 1.5

// BenchmarkTelemetryOverhead is the enforced telemetry budget: the
// same low-contention native workload with a registered telemetry
// registry versus bare instruments (SessionConfig.Telemetry == nil —
// the identical atomics minus names, labels, and the clock-involving
// Exec-latency/retry histograms). Best-of-three interleaved runs per
// side to shave scheduler noise; the benchmark FAILS if the bare/
// instrumented throughput ratio exceeds overheadBudgetRatio,
// and CI runs it as a gate.
func BenchmarkTelemetryOverhead(b *testing.B) {
	var spec workload.Spec
	for _, s := range workload.Matrix([]int{4}) {
		if s.Mix.Name == "update" && s.Contention.Name == "cold" && s.Sharing == workload.Disjoint {
			spec = s
			break
		}
	}
	if spec.Procs == 0 {
		b.Fatal("p4 update cold disjoint cell not in workload matrix")
	}
	e, ok := engine.Lookup("native-tl2")
	if !ok {
		b.Fatal("native-tl2 not registered")
	}
	const ops = 4000
	run := func(reg *telemetry.Registry) float64 {
		start := time.Now()
		st, err := e.Run(engine.RunConfig{
			Procs: spec.Procs, Vars: spec.Vars, OpsPerProc: ops, Telemetry: reg,
		}, spec.Body())
		if err != nil {
			b.Fatal(err)
		}
		if st.Commits == 0 {
			b.Fatal("run committed nothing")
		}
		return float64(spec.Procs*ops) / time.Since(start).Seconds()
	}
	var bare, instrumented float64
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < 3; rep++ {
			if r := run(nil); r > bare {
				bare = r
			}
			if r := run(telemetry.NewRegistry()); r > instrumented {
				instrumented = r
			}
		}
	}
	ratio := bare / instrumented
	b.ReportMetric(ratio, "overhead-x")
	if ratio > overheadBudgetRatio {
		b.Fatalf("telemetry overhead %.2fx exceeds budget %.1fx (bare %.0f ops/sec, instrumented %.0f ops/sec)",
			ratio, overheadBudgetRatio, bare, instrumented)
	}
	printHeader("teloverhead", fmt.Sprintf(
		"telemetry overhead (%s on native-tl2): bare %.0f ops/sec, instrumented %.0f ops/sec (%.2fx, budget %.1fx)\n",
		spec.Name, bare, instrumented, ratio, overheadBudgetRatio))
}

// --- Ablations (core.Registry's Ablation variants) ---

func BenchmarkAblationCM(b *testing.B) {
	b.Run("abort-other", func(b *testing.B) {
		var worst int
		for i := 0; i < b.N; i++ {
			worst = stmtest.CrashSweep(func(n, v int) stmpkg.TM { return dstm.New() }, 400, 20, 17)
			if worst == 0 {
				b.Fatal("aggressive CM must tolerate crashes")
			}
		}
		b.ReportMetric(float64(worst), "worstsurvivorcommits")
	})
	b.Run("abort-self", func(b *testing.B) {
		var worst int
		for i := 0; i < b.N; i++ {
			worst = stmtest.CrashSweep(func(n, v int) stmpkg.TM { return dstm.NewWithCM(dstm.AbortSelf) }, 400, 20, 17)
			if worst != 0 {
				b.Fatal("polite CM must wedge on a crashed owner")
			}
		}
		b.ReportMetric(float64(worst), "worstsurvivorcommits")
	})
}

func BenchmarkAblationGlockFairness(b *testing.B) {
	measure := func(b *testing.B, factory stmpkg.Factory) (min, max int) {
		counts := stmtest.FaultFree(factory, 3, 6000, 13)
		min, max = -1, 0
		for _, c := range counts {
			if min < 0 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return min, max
	}
	b.Run("fifo", func(b *testing.B) {
		var min, max int
		for i := 0; i < b.N; i++ {
			min, max = measure(b, func(n, v int) stmpkg.TM { return glock.New() })
		}
		b.ReportMetric(float64(min), "mincommits")
		b.ReportMetric(float64(max), "maxcommits")
	})
	b.Run("barging", func(b *testing.B) {
		var min, max int
		for i := 0; i < b.N; i++ {
			min, max = measure(b, func(n, v int) stmpkg.TM { return glock.NewBarging() })
		}
		b.ReportMetric(float64(min), "mincommits")
		b.ReportMetric(float64(max), "maxcommits")
	})
}

func BenchmarkAblationHelping(b *testing.B) {
	b.Run("helping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if worst := stmtest.CrashSweep(func(n, v int) stmpkg.TM { return ostm.New() }, 400, 20, 23); worst == 0 {
				b.Fatal("helping must tolerate crashes")
			}
		}
	})
	b.Run("no-helping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if worst := stmtest.CrashSweep(func(n, v int) stmpkg.TM { return ostm.NewWithoutHelping() }, 400, 20, 23); worst != 0 {
				b.Fatal("without helping a crashed committer must wedge conflicting txns")
			}
		}
	})
}

// --- Checker and TM micro-benchmarks ---

func BenchmarkOpacityCheckerLargerHistory(b *testing.B) {
	// 12 transactions across 3 processes and 2 variables.
	bd := model.NewBuilder()
	for i := 0; i < 12; i++ {
		p := model.Proc(i%3 + 1)
		x := model.TVar(i % 2)
		bd.Read(p, x, model.Value(i/2*2/2*0)) // always read 0: everything stays legal
		bd.Commit(p)
	}
	h := bd.History()
	for i := 0; i < b.N; i++ {
		res, err := safety.CheckOpacity(h)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds {
			b.Fatal("read-only history must be opaque")
		}
	}
}

func BenchmarkTMOperations(b *testing.B) {
	for _, nf := range core.Registry(false) {
		nf := nf
		b.Run(nf.Name, func(b *testing.B) {
			tm := nf.Factory(1, 4)
			env := sim.Background(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, st := tm.Read(env, 0)
				if st != stmpkg.OK {
					continue
				}
				if tm.Write(env, 0, v+1) != stmpkg.OK {
					continue
				}
				tm.TryCommit(env)
			}
		})
	}
}
