// Command bench is the repository's benchmark: four workloads that each
// drive a different stack of livetm's layers through the public API the
// stack's user calls, measured end to end as medians over fresh trials,
// plus a separate traced run that charges the cost of one committed
// transaction to every layer it crosses. See README.md.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	go run ./bench -seed N            # every workload, trials interleaved
//	go run ./bench -trace 1           # the traced run: per-layer metrics
//	go run ./bench -aa                # the suite twice; fails on disagreement
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef declares one metric: the shape BENCHMARK.json lists it in.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, reported by every workload as the
// median over its trials. Bound is the share of the parent's median by
// which a change may worsen the metric: 2% for the counts. setup_s is
// the one timing that has to stay here — the harness that reads
// BENCHMARK.json requires it — and identical code moves it by up to 23%
// between the two passes of -aa, so it carries the widest bound that
// harness allows (README.md).
var endToEnd = []metricDef{
	{Name: "allocs_per_commit", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// timings are the two wall-clock figures a caller sees. On this box
// identical code moves them by more than the issue's 10% between two
// runs (README.md), so by the issue's rule they carry no bound: an
// untraced run prints them with their quartiles, -aa prints their
// disagreement without failing on it, and BENCHMARK.json lists them
// with the per-layer metrics (untraced.commits_per_s,
// engine.exec_p50_us, client.exec_p50_us). exec_p50_us exists only
// where a caller waits on one call: session-live and wire-mixed.
var timings = []metricDef{
	{Name: "commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec_p50_us", Unit: "us", Better: "lower"},
}

// minTrials is the fewest fresh trials a reported median may rest on.
const minTrials = 5

// workload is one named input set and the layers it drives.
type workload struct {
	name, why string
	// full sizes an untraced trial; traced sizes the traced run's trials
	// and rungs, which hold every span in memory.
	full, traced sizes
	// levels names the span recorded at each depth of the traced path.
	levels []string
	trial  func(c trialCfg) trialResult
	// layers computes the per-layer metrics of the traced run.
	layers func(lc *layerCtx)
}

// newWorkloads builds the suite. The names are permanent: BENCHMARK.json
// and every later comparison refer to them.
func newWorkloads() []*workload {
	pin := &replayPin{}
	return []*workload{
		{
			name: "tm-direct",
			why:  "library path: 2 goroutines call TM.Atomically on native-tl2 directly; only internal/native works, so it is the control for recorder, checker and wire changes",
			full: sizes{pool: 65536, warm: 1_700_000, ops: 2_000_000}, traced: sizes{pool: 65536, warm: 50_000, ops: 150_000},
			levels: []string{"native.atomically", "native.attempt"},
			trial:  func(c trialCfg) trialResult { return trialDirect(c, directShape(c.size), nil) },
			layers: layersDirect,
		},
		{
			name: "session-live",
			why:  "livetm run/monitor -live: 2 pinned submitters on a live native-tl2 session, window ends at Close's report; recorder, stream, monitor and checker dominate",
			full: sizes{pool: 65536, warm: 50_000, ops: 125_000}, traced: sizes{pool: 65536, warm: 5_000, ops: 25_000},
			levels: []string{"engine.exec", "native.attempt"},
			trial:  func(c trialCfg) trialResult { return trialSession(c, sessionLive) },
			layers: layersSession,
		},
		{
			name: "check-replay",
			why:  "livetm check -file: a cut-starved 5-process sim-tl2 trace decoded and checked post hoc, single-threaded, forced frontiers; internal/safety alone, no TM, no goroutines",
			full: sizes{pool: 1024, simSteps: 64000, warmSteps: 32000}, traced: sizes{pool: 1024, simSteps: 64000, warmSteps: 32000},
			levels: []string{"bench.replay", ""},
			trial:  func(c trialCfg) trialResult { return trialReplay(c, pin) },
			layers: layersReplay,
		},
		{
			name: "wire-mixed",
			why:  "livetm serve -listen: 2 clients over loopback HTTP/JSON on a non-live session, half reads half updates; client, server codec, admission and net/http dominate",
			full: sizes{pool: 65536, warm: 16_000, ops: 30_000}, traced: sizes{pool: 65536, warm: 2_000, ops: 10_000},
			levels: []string{"client.exec", "client.roundtrip", "server.handler", "engine.exec", "native.attempt"},
			trial:  trialWire,
			layers: layersWire,
		},
	}
}

// provenance stamps a report and its trace files.
type provenance struct {
	GitDescribe string         `json:"git_describe"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	CPUModel    string         `json:"cpu_model"`
	Seed        uint64         `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trials      map[string]int `json:"trials,omitempty"`
}

func stampProvenance(seed uint64, seconds int) provenance {
	p := provenance{
		GitDescribe: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Seed: seed, Seconds: seconds, Trials: map[string]int{},
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		p.GitDescribe = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// outcome is one workload's result over a run.
type outcome struct {
	trials            int
	attempted, failed int
	problems          []string
	values            map[string]float64 // reported value per metric
	dists             map[string]dist    // trial-to-trial distribution (untraced run)
}

// samplesOf derives one trial's sample of every endToEnd and timings
// metric. A trial that failed before its window opened measured
// nothing and yields none; its failures are still counted.
func samplesOf(r trialResult) map[string]float64 {
	if r.window <= 0 {
		return nil
	}
	commits := float64(max(r.commits, 1))
	out := map[string]float64{
		"setup_s":                r.setup.Seconds(),
		"commits_per_s":          commits / r.window.Seconds(),
		"allocs_per_commit":      float64(r.allocs) / commits,
		"alloc_bytes_per_commit": float64(r.allocBytes) / commits,
	}
	if r.lat != nil {
		out["exec_p50_us"] = percentile(pooledLatency(r.lat), 50) / 1e3
	}
	return out
}

// measure runs fresh untraced trials of the workloads round-robin —
// so each workload's trials span the whole run instead of one window
// of neighbour drift — until every workload has used its seconds
// budget and has at least trials trials.
func measure(ws []*workload, seed uint64, seconds float64, trials int, outDir string, progress io.Writer) map[string]*outcome {
	out := map[string]*outcome{}
	per := map[string]map[string][]float64{}
	spent := map[string]float64{}
	for _, w := range ws {
		out[w.name] = &outcome{values: map[string]float64{}, dists: map[string]dist{}}
		per[w.name] = map[string][]float64{}
	}
	for remaining := len(ws); remaining > 0; {
		remaining = 0
		for _, w := range ws {
			o := out[w.name]
			if o.trials >= trials && spent[w.name] >= seconds {
				continue
			}
			remaining++
			start := time.Now()
			r := w.trial(trialCfg{seed: seed, size: w.full, outDir: outDir})
			spent[w.name] += time.Since(start).Seconds()
			o.trials++
			o.attempted += r.attempted
			o.failed += r.failed
			o.problems = append(o.problems, r.problems...)
			for name, v := range samplesOf(r) {
				per[w.name][name] = append(per[w.name][name], v)
			}
			fmt.Fprintf(progress, "# %s trial %d: setup %.3fs window %.3fs commits %d failed %d\n",
				w.name, o.trials, r.setup.Seconds(), r.window.Seconds(), r.commits, r.failed)
		}
	}
	for name, o := range out {
		for metric, samples := range per[name] {
			d := summarize(samples)
			o.dists[metric] = d
			o.values[metric] = d.Median
		}
	}
	return out
}

// printOutcome prints every metric the outcome holds by name with its
// unit and, for medians over trials, the sample count, quartiles,
// trial-to-trial spread and bound.
func printOutcome(w io.Writer, name string, o *outcome, defs []metricDef) {
	fmt.Fprintf(w, "\n== %s: %d trials, %d operations attempted, %d failed\n", name, o.trials, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", p)
	}
	for _, m := range defs {
		v, ok := o.values[m.Name]
		if !ok {
			continue
		}
		d, isMedian := o.dists[m.Name]
		if !isMedian {
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", m.Name, v, m.Unit)
			continue
		}
		gate := "not gated"
		if m.Bound > 0 {
			gate = fmt.Sprintf("bound=%g%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "   %-26s %14.6g %-6s n=%-3d q1=%-12.6g q3=%-12.6g spread=%5.2f%% %s (%s is better)\n",
			m.Name, v, m.Unit, d.N, d.Q1, d.Q3, 100*d.Spread(), gate, m.Better)
	}
}

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(w io.Writer, o *outcome, defs []metricDef) error {
	line := resultLine{Correct: len(o.problems) == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		line.Metrics[m.Name] = metricValue{Value: o.values[m.Name], Unit: m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// worse reports by what share b is worse than a in the metric's
// direction (negative when b is better).
func worse(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the A/A check: the suite twice back to back, the second
// pass in reverse workload order, failing when any end-to-end pair
// disagrees by more than the metric's bound. The timings are compared
// too, for the record, but decide nothing.
func runAA(ws []*workload, seed uint64, seconds float64, trials int, outDir string) bool {
	a := measure(ws, seed, seconds, trials, outDir, os.Stdout)
	rev := slices.Clone(ws)
	slices.Reverse(rev)
	b := measure(rev, seed, seconds, trials, outDir, os.Stdout)
	ok := true
	fmt.Printf("\n== A/A: two passes of identical code, seed %d\n", seed)
	for _, w := range ws {
		for _, m := range slices.Concat(endToEnd, timings) {
			va, measured := a[w.name].values[m.Name]
			vb := b[w.name].values[m.Name]
			if !measured {
				continue
			}
			diff := max(worse(m, va, vb), worse(m, vb, va))
			verdict := fmt.Sprintf("bound=%g%% ok", 100*m.Bound)
			switch {
			case m.Bound == 0:
				verdict = "not gated"
			case diff > m.Bound:
				verdict, ok = fmt.Sprintf("bound=%g%% DISAGREE", 100*m.Bound), false
			}
			fmt.Printf("   %-13s %-24s %14.6g %14.6g  diff=%5.2f%% %s\n", w.name, m.Name, va, vb, 100*diff, verdict)
		}
		if a[w.name].failed+b[w.name].failed > 0 {
			ok = false
		}
	}
	return ok
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run (tm-direct, session-live, check-replay, wire-mixed, or all)")
		seed         = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 25, "wall-clock budget per workload; fresh fixed-size trials start until it is spent")
		trace        = flag.Int("trace", 0, "1 makes the traced run (per-layer metrics, trace files) instead of the end-to-end one")
		trials       = flag.Int("trials", minTrials, "fewest trials per workload")
		aa           = flag.Bool("aa", false, "run the suite twice and fail if any end-to-end pair disagrees by more than its bound")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for trace files and failure evidence")
	)
	flag.Parse()
	if *trials < minTrials {
		fmt.Fprintf(os.Stderr, "bench: -trials %d refused: a median needs at least %d fresh trials\n", *trials, minTrials)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	ws := newWorkloads()
	if *workloadName != "all" {
		ws = slices.DeleteFunc(ws, func(w *workload) bool { return w.name != *workloadName })
		if len(ws) == 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
	}
	prov := stampProvenance(*seed, *seconds)
	provJSON, _ := json.Marshal(prov) // plain struct of strings and ints: cannot fail
	fmt.Printf("# livetm bench provenance %s\n", provJSON)
	fmt.Printf("# nothing is discarded: every trial run is counted in the medians below\n")

	switch {
	case *aa:
		if !runAA(ws, *seed, float64(*seconds), *trials, *outDir) {
			os.Exit(1)
		}
	case *trace == 1:
		failed := 0
		var last *outcome
		for _, w := range ws {
			o, err := runTraced(w, *seed, float64(*seconds), *outDir, prov)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			printOutcome(os.Stdout, w.name+" (traced run)", o, perLayer)
			failed += o.failed
			last = o
		}
		if len(ws) == 1 {
			if err := printResultLine(os.Stdout, last, perLayer); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		if failed > 0 {
			os.Exit(1)
		}
	default:
		out := measure(ws, *seed, float64(*seconds), *trials, *outDir, os.Stdout)
		failed := 0
		for _, w := range ws {
			printOutcome(os.Stdout, w.name, out[w.name], slices.Concat(endToEnd, timings))
			failed += out[w.name].failed
		}
		if len(ws) == 1 {
			if err := printResultLine(os.Stdout, out[ws[0].name], endToEnd); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
}
