// Package explore is a stateless model checker for TM scenarios: it
// systematically enumerates *every* schedule of a deterministic
// scenario up to a step bound and checks a predicate (typically
// opacity) on each reachable history.
//
// Where the randomized conformance tests sample interleavings, explore
// covers them exhaustively — the strongest safety evidence this
// repository produces short of proof. The technique is stateless:
// process state cannot be checkpointed, so each explored schedule
// prefix is re-executed from scratch with a fixed schedule; the
// scheduler's determinism makes replay exact.
package explore

import (
	"fmt"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// Scenario describes a deterministic multi-process workload over a
// fresh TM instance. Bodies must be deterministic functions of the
// schedule (no randomness, no shared mutable state outside the TM).
type Scenario struct {
	// NProcs is the number of processes, identified 1..NProcs.
	NProcs int
	// NVars is the t-variable count handed to the factory.
	NVars int
	// Factory creates the TM under test.
	Factory stm.Factory
	// Body returns the process body for p, given the recorder-wrapped
	// TM for this run.
	Body func(tm stm.TM, p model.Proc) func(*sim.Env)
}

// Stats reports what an exploration covered.
type Stats struct {
	// Schedules is the number of maximal schedules explored (leaves).
	Schedules int
	// Histories is the number of distinct histories checked (equal to
	// the number of check invocations that ran).
	Histories int
	// Deepest is the longest schedule reached.
	Deepest int
}

// CheckFunc inspects the history of one explored schedule. Returning
// an error aborts the exploration and surfaces the schedule.
type CheckFunc func(schedule []model.Proc, h model.History) error

// ScheduleError wraps a check failure with the schedule that caused
// it, so the exact interleaving can be replayed.
type ScheduleError struct {
	Schedule []model.Proc
	Err      error
}

func (e *ScheduleError) Error() string {
	return fmt.Sprintf("schedule %v: %v", e.Schedule, e.Err)
}

func (e *ScheduleError) Unwrap() error { return e.Err }

// Run explores all schedules of up to maxSteps scheduler steps,
// invoking check at every leaf (schedules that end early because all
// processes finished are also leaves). It returns coverage statistics
// and the first check failure, if any.
func Run(sc Scenario, maxSteps int, check CheckFunc) (Stats, error) {
	return RunWithCrashes(sc, maxSteps, nil, check)
}

// RunWithCrashes additionally branches on crash injection: at every
// frontier, each process in crashable may crash (at most one crash per
// process per schedule). This covers all placements of crashes within
// all interleavings — the exhaustive version of the crash-point sweep.
// Crash choices are encoded in the reported schedule as the negated
// process id.
func RunWithCrashes(sc Scenario, maxSteps int, crashable []model.Proc, check CheckFunc) (Stats, error) {
	if sc.NProcs <= 0 || sc.Factory == nil || sc.Body == nil {
		return Stats{}, fmt.Errorf("explore: scenario needs processes, a factory, and bodies")
	}
	if sc.NProcs > model.MaxProc {
		return Stats{}, fmt.Errorf("explore: %d processes, above model.MaxProc (%d)", sc.NProcs, model.MaxProc)
	}
	if maxSteps <= 0 {
		return Stats{}, fmt.Errorf("explore: maxSteps must be positive")
	}
	e := &explorer{sc: sc, maxSteps: maxSteps, check: check}
	for _, p := range crashable {
		if p < 1 || int(p) > sc.NProcs {
			return Stats{}, fmt.Errorf("explore: crashable process %d out of range", p)
		}
		e.crashable = append(e.crashable, p)
	}
	err := e.dfs(nil)
	return e.stats, err
}

type explorer struct {
	sc        Scenario
	maxSteps  int
	check     CheckFunc
	crashable []model.Proc
	stats     Stats
}

// A schedule is a sequence of choices: p > 0 steps process p; p < 0
// crashes process -p at that point.
func steps(schedule []model.Proc) int {
	n := 0
	for _, c := range schedule {
		if c > 0 {
			n++
		}
	}
	return n
}

// dfs extends the schedule prefix by every runnable step choice and
// every not-yet-used crash choice. Each call replays the scenario from
// scratch along the prefix — stateless model checking — then inspects
// the frontier.
func (e *explorer) dfs(prefix []model.Proc) error {
	h, runnable, err := e.replay(prefix)
	if err != nil {
		return err
	}
	if n := steps(prefix); n > e.stats.Deepest {
		e.stats.Deepest = n
	}
	if steps(prefix) >= e.maxSteps || len(runnable) == 0 {
		// A leaf: bound reached or every process finished/crashed.
		e.stats.Schedules++
		e.stats.Histories++
		if e.check != nil {
			if cerr := e.check(prefix, h); cerr != nil {
				return &ScheduleError{Schedule: append([]model.Proc(nil), prefix...), Err: cerr}
			}
		}
		return nil
	}
	for _, p := range runnable {
		if err := e.dfs(append(prefix, p)); err != nil {
			return err
		}
	}
	for _, p := range e.crashable {
		if crashed(prefix, p) || !contains(runnable, p) {
			continue
		}
		if err := e.dfs(append(prefix, -p)); err != nil {
			return err
		}
	}
	return nil
}

func crashed(schedule []model.Proc, p model.Proc) bool {
	for _, c := range schedule {
		if c == -p {
			return true
		}
	}
	return false
}

func contains(ps []model.Proc, p model.Proc) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// replay executes the scenario along the schedule (steps and crash
// injections) and returns the recorded history plus the runnable
// frontier.
func (e *explorer) replay(schedule []model.Proc) (model.History, []model.Proc, error) {
	rec := stm.NewRecorder(e.sc.Factory(e.sc.NProcs, e.sc.NVars))
	stepsOnly := make([]model.Proc, 0, len(schedule))
	for _, c := range schedule {
		if c > 0 {
			stepsOnly = append(stepsOnly, c)
		}
	}
	s := sim.New(&sim.Fixed{Schedule: stepsOnly})
	defer s.Close()
	for i := 1; i <= e.sc.NProcs; i++ {
		p := model.Proc(i)
		if err := s.Spawn(p, e.sc.Body(rec, p)); err != nil {
			return nil, nil, fmt.Errorf("explore: %w", err)
		}
	}
	for _, c := range schedule {
		if c < 0 {
			s.Crash(-c)
			continue
		}
		if !s.Step() {
			// Everything finished before consuming the prefix; the
			// frontier is empty and dfs treats this as a leaf.
			return rec.History(), nil, nil
		}
	}
	return rec.History(), s.Runnable(), nil
}
