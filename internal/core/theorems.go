package core

import (
	"fmt"
	"math/rand"
	"strings"

	"livetm/internal/adversary"
	"livetm/internal/fgp"
	"livetm/internal/liveness"
	"livetm/internal/model"
	"livetm/internal/safety"
)

// Theorem1Outcome is the result of the impossibility adversary against
// one TM.
type Theorem1Outcome struct {
	TM       string
	Strategy string // "algorithm1" or "algorithm2"
	Result   adversary.Result
	// Starved reports the expected outcome: p1 never committed.
	Starved bool
	// Blocked reports that the TM blocked the adversary (the global
	// lock case): no rounds completed and someone is stuck inside an
	// operation.
	Blocked bool
}

// Theorem1Evidence runs both adversary strategies against every TM in
// the registry and reports whether local progress failed everywhere —
// the operational content of Theorem 1.
func Theorem1Evidence(rounds int, ablations bool) []Theorem1Outcome {
	var out []Theorem1Outcome
	for _, nf := range Registry(ablations) {
		for alg := 1; alg <= 2; alg++ {
			cfg := adversary.Config{Rounds: rounds, MaxSteps: 4000 * rounds, Seed: 3}
			res := adversary.NewSimDriver(nf.Factory, cfg).Run(adversary.Strategy{Algorithm: alg})
			blocked := res.Rounds == 0 && anyPending(res)
			out = append(out, Theorem1Outcome{
				TM:       nf.Name,
				Strategy: fmt.Sprintf("algorithm%d", alg),
				Result:   res,
				Starved:  !res.P1Committed,
				Blocked:  blocked,
			})
		}
	}
	return out
}

func anyPending(res adversary.Result) bool {
	for _, pending := range res.Stats.PendingInv {
		if pending {
			return true
		}
	}
	return false
}

// FormatTheorem1 renders the evidence table.
func FormatTheorem1(outs []Theorem1Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %-8s %-10s %-10s %-8s\n",
		"tm", "strategy", "rounds", "p1-commits", "p2-commits", "mode")
	for _, o := range outs {
		mode := "starved"
		if o.Blocked {
			mode = "blocked"
		}
		if !o.Starved {
			mode = "P1-COMMITTED(!)"
		}
		fmt.Fprintf(&b, "%-16s %-12s %-8d %-10d %-10d %-8s\n",
			o.TM, o.Strategy, o.Result.Rounds,
			o.Result.Stats.Commits[1], o.Result.Stats.Commits[2], mode)
	}
	b.WriteString("\nTheorem 1: against every opaque TM, p1 never commits — local progress fails\n" +
		"either by starvation (p1 aborted forever) or by blocking (nobody progresses).\n")
	return b.String()
}

// Theorem2Evidence checks the generalization: the histories produced
// by the Theorem 1 runs, continued forever, violate every nonblocking
// and biprogressing property. Operationally we re-express each run as
// a lasso shape — p2 committing forever while p1 aborts forever (or
// both block) — and evaluate the class predicates of §5.
func Theorem2Evidence() []string {
	var notes []string
	// The starvation shape: p1 aborted forever, p2 committing forever
	// (Figures 10/13) — two correct processes, one progressing.
	starve := mustLasso(nil, model.NewBuilder().
		Read(2, 0, 0).Write(2, 0, 1).Commit(2).
		Read(1, 0, 1).WriteAbort(1, 0, 2).
		Read(2, 0, 1).Write(2, 0, 0).Commit(2).
		Read(1, 0, 0).WriteAbort(1, 0, 1).
		History(), nil)
	if liveness.ViolatesBiprogressing(starve) {
		notes = append(notes, "starvation run: ≥2 correct processes, <2 progressing — no biprogressing property contains it")
	}
	if liveness.LocalProgress.Contains(starve) {
		notes = append(notes, "ERROR: starvation run must not ensure local progress")
	}
	// The blocking shape: one process commits nothing and hangs inside
	// an operation, while the other also cannot proceed (the glock
	// case) — the solo runner starves.
	block := mustLasso(
		model.NewBuilder().Read(1, 0, 0).History(),             // p1 holds the lock, then crashes
		model.History{model.Read(2, 0)}.Append(model.Abort(2)), // p2 aborted/blocked forever
		nil)
	if p, ok := block.RunsAlone(); ok && !block.MakesProgress(p) {
		notes = append(notes, "blocking run: the solo correct process starves — no nonblocking property contains it")
	}
	return notes
}

// FormalVerdicts evaluates the named TM-liveness properties on an
// adversary run, read as an infinite history via ClassifyRun (the
// observed tail repeats forever). It closes the loop between the
// empirical Theorem 1 runs and the formal property definitions: for
// every aborting TM the run's lasso fails local progress and
// 2-progress while satisfying global progress.
//
// Runs against blocking TMs have an empty tail (every process is
// parked inside an operation) and cannot be classified this way;
// ClassifyRun's error is propagated.
func FormalVerdicts(res adversary.Result) (map[string]bool, error) {
	l, err := liveness.ClassifyRun(res.History, liveness.SplitHalf(res.History), nil)
	if err != nil {
		return nil, fmt.Errorf("formalize adversary run: %w", err)
	}
	return map[string]bool{
		"local":      liveness.LocalProgress.Contains(l),
		"global":     liveness.GlobalProgress.Contains(l),
		"solo":       liveness.SoloProgress.Contains(l),
		"2-progress": liveness.KProgress(2).Contains(l),
	}, nil
}

// Theorem3Outcome summarizes the Fgp validation (E19).
type Theorem3Outcome struct {
	SchedulesChecked int
	PrefixesOpaque   int
	Commits          int
	Violation        string // non-empty on failure
}

// Theorem3Evidence validates the corrected Fgp automaton: opacity of
// every checked prefix over random schedules, and steady commits
// (global progress) in long runs with random crash/parasitic faults.
func Theorem3Evidence(schedules int, opsPerRun int) Theorem3Outcome {
	out := Theorem3Outcome{}
	for seed := int64(1); seed <= int64(schedules); seed++ {
		eng, err := fgp.NewEngine(3, 2, fgp.Corrected)
		if err != nil {
			out.Violation = err.Error()
			return out
		}
		rng := rand.New(rand.NewSource(seed))
		crashed := map[model.Proc]bool{}
		for i := 0; i < opsPerRun; i++ {
			p := model.Proc(rng.Intn(3) + 1)
			if crashed[p] {
				continue
			}
			if rng.Intn(50) == 0 {
				crashed[p] = true // crash: p stops invoking forever
				continue
			}
			switch rng.Intn(4) {
			case 0, 1:
				_, _, err = eng.Read(p, model.TVar(rng.Intn(2)))
			case 2:
				_, err = eng.Write(p, model.TVar(rng.Intn(2)), model.Value(rng.Intn(3)))
			case 3:
				var ok bool
				ok, err = eng.TryCommit(p)
				if ok {
					out.Commits++
				}
			}
			if err != nil {
				out.Violation = fmt.Sprintf("engine error: %v", err)
				return out
			}
		}
		out.SchedulesChecked++
		h := eng.History()
		if len(h) > 44 {
			h = h[:44] // keep the opacity check tractable
		}
		res, err := safety.CheckOpacity(h)
		if err != nil {
			out.Violation = err.Error()
			return out
		}
		if !res.Holds {
			out.Violation = fmt.Sprintf("seed %d: non-opaque prefix: %s", seed, res.Reason)
			return out
		}
		out.PrefixesOpaque++
	}
	return out
}
