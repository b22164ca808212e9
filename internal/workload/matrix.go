package workload

import (
	"errors"
	"fmt"
	"time"

	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/safety"
)

// The workload matrix is declared once — process count × read/write
// mix × contention level × disjoint/shared variable sharing — and
// executed against every (algorithm, substrate) pair through the
// engine API. The benchmark harness (bench_test.go) and the livetm
// workloads subcommand both run exactly this declaration, so the
// matrix cannot drift between the two.

// Mix is the read/write composition of one transaction.
type Mix struct {
	Name   string
	Reads  int
	Writes int
}

// Mixes are the matrix's read/write compositions.
func Mixes() []Mix {
	return []Mix{
		{Name: "update", Reads: 1, Writes: 1},
		{Name: "readheavy", Reads: 8, Writes: 1},
		{Name: "writeheavy", Reads: 1, Writes: 4},
	}
}

// Sharing says whether processes share variables or work on disjoint
// partitions.
type Sharing string

// Sharing levels.
const (
	Disjoint Sharing = "disjoint"
	Shared   Sharing = "shared"
)

// Contention scales the variable set: few variables mean hot
// conflicts, many mean cold.
type Contention struct {
	Name        string
	VarsPerProc int
}

// Contentions are the matrix's contention levels.
func Contentions() []Contention {
	return []Contention{
		{Name: "hot", VarsPerProc: 1},
		{Name: "cold", VarsPerProc: 16},
	}
}

// Spec is one point of the workload matrix.
type Spec struct {
	Name       string
	Procs      int
	Vars       int
	Mix        Mix
	Contention Contention
	Sharing    Sharing
}

// Matrix declares the full workload matrix for the given process
// counts: procs × mixes × contentions × sharings.
func Matrix(procs []int) []Spec {
	var specs []Spec
	for _, p := range procs {
		for _, mix := range Mixes() {
			for _, c := range Contentions() {
				for _, sh := range []Sharing{Disjoint, Shared} {
					specs = append(specs, Spec{
						Name:       fmt.Sprintf("p%d/%s/%s/%s", p, mix.Name, c.Name, sh),
						Procs:      p,
						Vars:       p * c.VarsPerProc,
						Mix:        mix,
						Contention: c,
						Sharing:    sh,
					})
				}
			}
		}
	}
	return specs
}

// Body returns the spec's transaction body: Mix.Reads reads followed
// by Mix.Writes read-modify-writes over the spec's variable range —
// the whole range when Shared, the process's own partition when
// Disjoint. Variable choice is a pure function of (proc, round), so
// the body is idempotent across retries and identical on both
// substrates.
func (s Spec) Body() engine.TxBody {
	perProc := s.Vars / s.Procs
	if perProc == 0 {
		// Vars < Procs cannot give every process a disjoint
		// partition; degrade to one variable per process so the
		// engine reports a clean out-of-range error for the excess
		// processes instead of this body dividing by zero.
		perProc = 1
	}
	return func(proc, round int, tx engine.Tx) error {
		h := uint64(proc)*2654435761 + uint64(round)*97 + 1
		pick := func() int {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			if s.Sharing == Disjoint {
				return proc*perProc + int(h%uint64(perProc))
			}
			return int(h % uint64(s.Vars))
		}
		for r := 0; r < s.Mix.Reads; r++ {
			if _, err := tx.Read(pick()); err != nil {
				return err
			}
		}
		for w := 0; w < s.Mix.Writes; w++ {
			i := pick()
			v, err := tx.Read(i)
			if err != nil {
				return err
			}
			if err := tx.Write(i, v+1); err != nil {
				return err
			}
		}
		return nil
	}
}

// Budget sizes one matrix cell per substrate.
type Budget struct {
	// SimSteps is the cooperative-scheduler step budget for simulated
	// engines.
	SimSteps int
	// NativeOps is the committed-transaction budget per process for
	// native engines.
	NativeOps int
}

// Result is one (engine, workload) cell of an executed matrix.
type Result struct {
	Engine    string
	Algorithm string
	Substrate string
	Workload  string
	Procs     int
	Vars      int
	Commits   uint64
	Aborts    uint64
	AbortRate float64
	// OpsPerSec is wall-clock committed transactions per second —
	// meaningful on the native substrate only.
	OpsPerSec float64
	// CommitsPerStep normalizes simulated throughput by scheduler
	// steps — the substrate's deterministic time unit.
	CommitsPerStep float64
	// Recorded and Checked report the Options.Record/Check path: the
	// cell ran with history recording, and the recorded history passed
	// the monitor's well-formedness and opacity checks. A check
	// failure aborts the matrix instead of landing here as false.
	Recorded bool
	Checked  bool
	// Live reports the cell ran under the in-process monitor
	// (Options.Live): events streamed into the checker mid-run, with
	// starvation-aware backoff feedback active.
	Live bool
	// LivenessClass is the strongest liveness-lattice property the
	// live monitor's lasso reading of the cell satisfied ("local
	// progress" … "none"); empty for non-live cells.
	LivenessClass string
	// ApproxVerdict marks a Checked verdict that rests on forced
	// serialization frontiers (the cut-starved fallback) rather than
	// exact quiescent cuts.
	ApproxVerdict bool
	// Cuts, CutP50ns and CutP99ns summarize the cell's forced cuts:
	// how many the session forced and their pause-latency percentiles
	// in nanoseconds. A session forces a cut only when its stream has
	// gone a whole cut interval without quiescing by itself, so most
	// cells force none; Segments says how often the stream quiesced.
	Cuts     uint64
	CutP50ns int64
	CutP99ns int64
	// Segments counts the segments the live checker decided the cell
	// in: one per quiescent point of the stream, natural or forced,
	// plus any forced frontier. 0 when the cell did not run live.
	Segments int
}

// Options selects the optional record/check path of a matrix run.
type Options struct {
	// Record runs every cell with history recording.
	Record bool
	// Check feeds each recorded history through the online monitor
	// (implies Record): a malformed or non-opaque history fails the
	// run. Cells the streaming checker refuses to decide (no quiescent
	// cuts within budget) are reported with Checked=false rather than
	// failing.
	Check bool
	// Live runs native cells under the in-process monitor: events
	// stream into the checker while the cell executes, a violation
	// stops the cell mid-flight (failing the matrix), and measured
	// starvation rebiases the retry backoff. Live cells report their
	// liveness class, and under Check their verdict comes from the
	// live monitor itself rather than a post-hoc replay. Simulated
	// cells are unaffected (their substrate rejects Live).
	Live bool
}

func (o Options) withDefaults() Options {
	if o.Check {
		o.Record = true
	}
	return o
}

// RunMatrix executes every spec on every engine and returns the
// result cells in declaration order. The zero Options runs plain
// cells; with opts.Record, every cell captures its history, and with opts.Check each history must satisfy
// well-formedness and the streaming opacity check.
func RunMatrix(engines []engine.Engine, specs []Spec, budget Budget, opts Options) ([]Result, error) {
	opts = opts.withDefaults()
	var out []Result
	for _, e := range engines {
		caps := e.Capabilities()
		for _, spec := range specs {
			live := opts.Live && caps.Substrate == engine.Native
			cfg := engine.RunConfig{
				Procs:  spec.Procs,
				Vars:   spec.Vars,
				Seed:   uint64(len(out) + 1),
				Record: opts.Record,
				Live:   live,
			}
			if caps.Substrate == engine.Simulated {
				cfg.SimSteps = budget.SimSteps
			} else {
				cfg.OpsPerProc = budget.NativeOps
			}
			r, err := runCell(e, caps, spec, cfg, opts, live)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// runCell executes one (engine, spec) cell.
func runCell(e engine.Engine, caps engine.Capabilities, spec Spec, cfg engine.RunConfig, opts Options, live bool) (Result, error) {
	start := time.Now()
	st, err := e.Run(cfg, spec.Body())
	if err != nil {
		return Result{}, fmt.Errorf("workload %s on %s: %w", spec.Name, e.Name(), err)
	}
	elapsed := time.Since(start).Seconds()
	r := Result{
		Engine:    e.Name(),
		Algorithm: e.Algorithm(),
		Substrate: string(caps.Substrate),
		Workload:  spec.Name,
		Procs:     spec.Procs,
		Vars:      spec.Vars,
		Commits:   st.Commits,
		Aborts:    st.Aborts,
		AbortRate: st.AbortRate(),
		Recorded:  st.History != nil,
		Live:      live,
	}
	if live && st.Live != nil {
		r.LivenessClass = st.Live.LivenessClass()
		r.ApproxVerdict = st.Live.Opacity.Approx
		r.Segments = st.Live.Opacity.Segments
		if opts.Check {
			// The live monitor already checked the cell as it
			// ran — a violation would have stopped it and failed
			// the matrix above — so its verdict is the cell's.
			r.Checked = st.Live.Checked && st.Live.Opacity.Holds
		}
	} else if opts.Check && r.Recorded {
		// The post-hoc verification is part of the cell's
		// checked-throughput figure: the live path pays its
		// checker inside the run (overlapped on other cores), so
		// the replayed check must stay on the clock too or the
		// two would not be comparable.
		t0 := time.Now()
		checked, err := checkCell(st.History)
		if err != nil {
			return Result{}, fmt.Errorf("workload %s on %s: %w", spec.Name, e.Name(), err)
		}
		r.Checked = checked
		elapsed += time.Since(t0).Seconds()
	}
	if caps.Substrate == engine.Simulated {
		if st.Steps > 0 {
			r.CommitsPerStep = float64(st.Commits) / float64(st.Steps)
		}
	} else if elapsed > 0 {
		// Checked-throughput when the cell was checked (live or
		// post-hoc), raw throughput otherwise.
		r.OpsPerSec = float64(st.Commits) / elapsed
	}
	r.Cuts = st.CutLatency.Count
	r.CutP50ns = st.CutLatency.P50ns
	r.CutP99ns = st.CutLatency.P99ns
	return r, nil
}

// checkSegmentTxns is the post-hoc monitor's per-segment transaction
// budget for checked cells.
const checkSegmentTxns = 48

// checkCell verifies one recorded cell through the online monitor.
// False (with nil error) means the streaming checker could not decide
// the cell within its cut budget.
func checkCell(h model.History) (bool, error) {
	if err := model.CheckWellFormed(h); err != nil {
		return false, fmt.Errorf("recorded history malformed: %w", err)
	}
	m, err := monitor.New(monitor.Config{SegmentTxns: checkSegmentTxns})
	if err != nil {
		return false, err
	}
	obsErr := m.ObserveHistory(h)
	rep := m.Report()
	if !rep.Checked {
		// Undecided, not wrong: the streaming checker ran out of
		// quiescent cuts or search budget, possibly only at Finish
		// time (obsErr nil, reason in the report). Anything else —
		// e.g. a malformed stream, which CheckWellFormed above should
		// have caught — is a real failure.
		if obsErr == nil || errors.Is(obsErr, safety.ErrNoQuiescentCut) || errors.Is(obsErr, safety.ErrTooManyTransactions) {
			return false, nil
		}
		return false, fmt.Errorf("monitor could not decide the cell: %v", obsErr)
	}
	if !rep.Opacity.Holds {
		return false, fmt.Errorf("recorded history not opaque: %s", rep.Opacity.Reason)
	}
	return true, nil
}

// FormatResults renders the cells as an aligned text table. The
// liveness column appears once any cell carries a liveness
// classification (live matrix runs); the cut columns — forced cuts,
// their p99 pause and the live checker's segments, which count every
// quiescent point — appear once any cell ran live or forced a cut.
func FormatResults(results []Result) string {
	classes, cuts := false, false
	for _, r := range results {
		if r.LivenessClass != "" {
			classes = true
		}
		if r.Live || r.Cuts > 0 {
			cuts = true
		}
	}
	out := fmt.Sprintf("%-16s %-24s %10s %10s %7s %12s %14s",
		"engine", "workload", "commits", "aborts", "abrt%", "ops/sec", "commits/step")
	if classes {
		out += fmt.Sprintf(" %-18s", "liveness")
	}
	if cuts {
		out += fmt.Sprintf(" %11s %12s %9s", "forced-cuts", "cut-p99", "segments")
	}
	out += "\n"
	for _, r := range results {
		rate := ""
		if r.OpsPerSec > 0 {
			rate = fmt.Sprintf("%12.0f", r.OpsPerSec)
		} else {
			rate = fmt.Sprintf("%12s", "-")
		}
		cps := ""
		if r.CommitsPerStep > 0 {
			cps = fmt.Sprintf("%14.4f", r.CommitsPerStep)
		} else {
			cps = fmt.Sprintf("%14s", "-")
		}
		out += fmt.Sprintf("%-16s %-24s %10d %10d %6.1f%% %s %s",
			r.Engine, r.Workload, r.Commits, r.Aborts, 100*r.AbortRate, rate, cps)
		if classes {
			class := r.LivenessClass
			if class == "" {
				class = "-"
			} else if r.ApproxVerdict {
				class += "~"
			}
			out += fmt.Sprintf(" %-18s", class)
		}
		if cuts {
			lat, segs := "-", "-"
			if r.Cuts > 0 {
				lat = (time.Duration(r.CutP99ns) * time.Nanosecond).String()
			}
			if r.Live {
				segs = fmt.Sprint(r.Segments)
			}
			out += fmt.Sprintf(" %11d %12s %9s", r.Cuts, lat, segs)
		}
		out += "\n"
	}
	return out
}
