package adversary

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/glock"
	"livetm/internal/stm/norec"
	"livetm/internal/stm/tiny"
	"livetm/internal/stm/tl2"
)

// The cross-substrate adversary matrix: every strategy variant against
// every native algorithm and its simulated counterpart, each cell
// harvested into the same starvation metrics so the two substrates
// compare like for like. The mapping pairs each native algorithm with
// the simulated TM it reproduces (mutex with the global-lock TM — both
// are the coarse blocking baseline).

// simCounterpart names a native algorithm's simulated twin: the
// registered sim TM (its core/engine-registry name, so matrix output
// drills straight into `livetm adversary -engine sim-<name>`) and its
// factory.
type simCounterpart struct {
	name    string
	factory stm.Factory
}

// simCounterparts maps the substrate-independent algorithm name to its
// simulated counterpart. The mutex pairs with the global-lock TM —
// both are the coarse blocking baseline — under its registry name
// "glock".
func simCounterparts() map[string]simCounterpart {
	return map[string]simCounterpart{
		"mutex":   {"glock", func(n, v int) stm.TM { return glock.New() }},
		"tl2":     {"tl2", func(n, v int) stm.TM { return tl2.New() }},
		"norec":   {"norec", func(n, v int) stm.TM { return norec.New() }},
		"tinystm": {"tinystm", func(n, v int) stm.TM { return tiny.New() }},
		"dstm":    {"dstm", func(n, v int) stm.TM { return dstm.New() }},
	}
}

// ProcStarvation is one process's starvation figures in one cell, in
// global events.
type ProcStarvation struct {
	// Intervals are the process's starvation intervals: every closed
	// commit gap plus the still-open gap at the end of the run. A
	// process that never committed contributes one interval — the whole
	// run.
	Intervals []int `json:"intervals"`
	// Open is the still-open commit gap at the end of the run.
	Open int `json:"open"`
	// Max is the longest interval.
	Max int `json:"max"`
}

// Cell is one (strategy, engine) cell of the cross-substrate adversary
// matrix.
type Cell struct {
	Strategy  string `json:"strategy"`
	Engine    string `json:"engine"`
	Algorithm string `json:"algorithm"`
	Substrate string `json:"substrate"`
	// Rounds is the number of completed p2 commits; P1Committed must be
	// false against every correct TM, and Blocked marks the cells where
	// the dichotomy's other branch fired (nobody commits).
	Rounds      int  `json:"rounds"`
	P1Committed bool `json:"p1_committed"`
	Blocked     bool `json:"blocked"`
	// Events is the number of recorded events the monitor observed.
	Events int `json:"events"`
	// LivenessClass is the strongest liveness-lattice property the
	// monitor's lasso reading of the cell satisfied.
	LivenessClass string `json:"liveness_class"`
	// Classes maps "p1"/"p2" to the monitor's process classification.
	Classes map[string]string `json:"classes"`
	// RoundsToFirstStarvation counts the p2 commits that preceded p1's
	// first starvation-witnessing abort — how many rounds the adversary
	// needed before the victim visibly starved. -1 when p1 never
	// starved: the crash and blocked cells, where p1 just stops or
	// waits (the single trailing abort a released native p1 records at
	// teardown does not count).
	RoundsToFirstStarvation int `json:"rounds_to_first_starvation"`
	// Starvation holds the per-process interval distributions.
	Starvation map[string]ProcStarvation `json:"starvation"`
	// BackoffBias and BiasTrajectory carry the starvation-aware
	// backoff's final per-process bias and its snapshot at every rebias
	// (native cells only; the simulated substrate has no backoff loop).
	BackoffBias    []int   `json:"backoff_bias,omitempty"`
	BiasTrajectory [][]int `json:"bias_trajectory,omitempty"`
}

// Dichotomy reports whether the cell witnessed the paper's
// no-local-progress dichotomy: p1 never commits, or nobody does.
func (c Cell) Dichotomy() bool {
	return !c.P1Committed
}

// roundsToFirstStarvation counts p2 commit events before p1's first
// starvation-witnessing abort, or -1 when p1 never aborts. An abort
// witnesses starvation only when the strategy observed it and went on
// (p1 has later events) or it ended a commit attempt (a write or tryC
// invocation preceded it): the native driver's teardown abandon also
// records one trailing p1 abort on crash/blocked cells — p1 stopped or
// waited, it did not starve — and that artifact must not count, or the
// native cells would disagree with their simulated twins.
func roundsToFirstStarvation(h model.History) int {
	commits := 0
	attempted := false // p1 invoked a write or tryC before this point
	lastP1 := -1
	for i, e := range h {
		if e.Proc == 1 {
			lastP1 = i
		}
	}
	for i, e := range h {
		switch {
		case e.Proc == 1 && e.Kind == model.RespAbort:
			if attempted || i < lastP1 {
				return commits
			}
		case e.Proc == 1 && (e.Kind == model.InvWrite || e.Kind == model.InvTryCommit):
			attempted = true
		case e.Proc == 2 && e.Kind == model.RespCommit:
			commits++
		}
	}
	return -1
}

// harvest folds a monitor report and outcome into one matrix cell.
func harvest(strategy Strategy, engineName, algorithm, substrate string, o Outcome, h model.History, rep monitor.Report) Cell {
	cell := Cell{
		Strategy:                strategy.Name(),
		Engine:                  engineName,
		Algorithm:               algorithm,
		Substrate:               substrate,
		Rounds:                  o.Rounds,
		P1Committed:             o.P1Committed,
		Blocked:                 o.Blocked,
		Events:                  rep.Events,
		LivenessClass:           rep.LivenessClass(),
		Classes:                 make(map[string]string, len(rep.Procs)),
		RoundsToFirstStarvation: roundsToFirstStarvation(h),
		Starvation:              make(map[string]ProcStarvation, len(rep.Procs)),
	}
	intervals := rep.StarvationIntervals()
	for _, p := range rep.Procs {
		key := fmt.Sprintf("p%d", p.Proc)
		cell.Classes[key] = p.Class
		iv := intervals[p.Proc]
		max := 0
		for _, g := range iv {
			if g > max {
				max = g
			}
		}
		cell.Starvation[key] = ProcStarvation{Intervals: iv, Open: p.OpenGap, Max: max}
	}
	return cell
}

// NativeCell runs one strategy against one native algorithm and
// harvests the cell.
func NativeCell(info native.Info, s Strategy, cfg Config) (Cell, error) {
	res, err := RunNative(info, s, cfg)
	if err != nil {
		return Cell{}, err
	}
	if res.Violation != nil {
		return Cell{}, fmt.Errorf("adversary: %s under %s violated safety: %w", info.Name, s.Name(), res.Violation)
	}
	algorithm := strings.TrimPrefix(info.Name, "native-")
	return harvest(s, info.Name, algorithm, "native", res.Outcome, res.History, res.Report), nil
}

// SimCell runs one strategy against one simulated TM and harvests the
// cell through the same monitor pipeline, so the two substrates report
// identical metrics.
func SimCell(name string, factory stm.Factory, s Strategy, cfg Config) (Cell, error) {
	cfg = cfg.withDefaults()
	if err := s.validate(); err != nil {
		return Cell{}, err
	}
	res := NewSimDriver(factory, cfg).Run(s)
	mon, err := monitor.New(monitor.Config{
		Procs:      []model.Proc{1, 2},
		Approx:     true,
		RecordGaps: true,
	})
	if err != nil {
		return Cell{}, err
	}
	// The simulated histories are deterministic and complete, so the
	// monitor replays them event by event — the same accounting the
	// native pump performs live. A terminal safety error would mean the
	// simulated TM is broken; surface it.
	if err := mon.ObserveHistory(res.History); err != nil {
		return Cell{}, fmt.Errorf("adversary: sim-%s under %s violated safety: %w", name, s.Name(), err)
	}
	return harvest(s, "sim-"+name, name, "sim", res.Outcome, res.History, mon.Report()), nil
}

// RunMatrix runs every strategy variant against every native algorithm
// and its simulated counterpart, returning the cells grouped by
// algorithm (native cell, then sim cell) so the cross-substrate
// comparison reads side by side.
func RunMatrix(cfg Config) ([]Cell, error) {
	sims := simCounterparts()
	var out []Cell
	for _, s := range Variants() {
		for _, info := range native.Algorithms() {
			cell, err := NativeCell(info, s, cfg)
			if err != nil {
				return out, err
			}
			out = append(out, cell)
			algorithm := strings.TrimPrefix(info.Name, "native-")
			sc, ok := sims[algorithm]
			if !ok {
				// The matrix's contract is strict native/sim pairing —
				// consumers index the cells two at a time — so a native
				// algorithm without a registered counterpart must fail
				// loudly, not skip silently.
				return out, fmt.Errorf("adversary: no simulated counterpart registered for %s", info.Name)
			}
			simCell, err := SimCell(sc.name, sc.factory, s, cfg)
			if err != nil {
				return out, err
			}
			// The pairing key across substrates is the native algorithm
			// name, even where the sim twin is registered differently
			// (mutex ↔ glock); Engine keeps the registry name so the
			// table drills into `livetm adversary -engine sim-<name>`.
			simCell.Algorithm = algorithm
			out = append(out, simCell)
		}
	}
	return out, nil
}

// StarvationArtifactSchema versions the starvation-comparison artifact
// written alongside BENCH_native.json.
const StarvationArtifactSchema = "livetm/adversary-starvation/v1"

// StarvationArtifact is the machine-readable cross-substrate
// starvation comparison.
type StarvationArtifact struct {
	Schema string `json:"schema"`
	Rounds int    `json:"rounds"`
	Cells  []Cell `json:"cells"`
}

// WriteStarvationArtifact writes the matrix cells and the round budget
// they were measured under as a JSON artifact.
func WriteStarvationArtifact(path string, rounds int, cells []Cell) error {
	data, err := json.MarshalIndent(StarvationArtifact{
		Schema: StarvationArtifactSchema,
		Rounds: rounds,
		Cells:  cells,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatCells renders the matrix cells as an aligned text table.
func FormatCells(cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-16s %7s %8s %8s %7s %9s %-16s %s\n",
		"strategy", "engine", "rounds", "p1-cmt", "blocked", "events", "starve@", "liveness", "p1-starvation")
	for _, c := range cells {
		starve := "-"
		if c.RoundsToFirstStarvation >= 0 {
			starve = fmt.Sprintf("%d", c.RoundsToFirstStarvation)
		}
		p1 := c.Starvation["p1"]
		b.WriteString(fmt.Sprintf("%-16s %-16s %7d %8v %8v %7d %9s %-16s max=%d n=%d\n",
			c.Strategy, c.Engine, c.Rounds, c.P1Committed, c.Blocked, c.Events,
			starve, c.LivenessClass, p1.Max, len(p1.Intervals)))
	}
	return b.String()
}
