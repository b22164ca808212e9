package engine

import (
	"errors"
	"fmt"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// Sim adapts a simulated TM (an stm.Factory driven by the
// cooperative scheduler) to the Engine interface. Simulated engines
// run batches only: Run is one deterministic loop, and there is no
// Session on this substrate.
type Sim struct {
	algorithm   string
	factory     stm.Factory
	nonblocking bool
}

var _ Engine = (*Sim)(nil)

// NewSim wraps a simulated TM factory. nonblocking mirrors the
// paper's resilience claim for the algorithm (core.Registry's
// SoloUnderCrash expectation).
func NewSim(algorithm string, factory stm.Factory, nonblocking bool) *Sim {
	return &Sim{algorithm: algorithm, factory: factory, nonblocking: nonblocking}
}

// Name implements Engine.
func (e *Sim) Name() string { return "sim-" + e.algorithm }

// Algorithm implements Engine.
func (e *Sim) Algorithm() string { return e.algorithm }

// Capabilities implements Engine.
func (e *Sim) Capabilities() Capabilities {
	return Capabilities{Substrate: Simulated, Nonblocking: e.nonblocking}
}

// simTx adapts the request/response operational interface to the
// engine's error-based one. After any abort the handle is dead until
// Run hands it, one per process, to the process's next attempt.
type simTx struct {
	tm      stm.TM
	env     *sim.Env
	vars    int
	aborted bool
}

func (tx *simTx) Read(i int) (int64, error) {
	if tx.aborted {
		return 0, ErrAborted
	}
	if i < 0 || i >= tx.vars {
		return 0, fmt.Errorf("engine: variable %d out of range", i)
	}
	v, st := tx.tm.Read(tx.env, model.TVar(i))
	if st != stm.OK {
		tx.aborted = true
		return 0, ErrAborted
	}
	return int64(v), nil
}

func (tx *simTx) Write(i int, v int64) error {
	if tx.aborted {
		return ErrAborted
	}
	if i < 0 || i >= tx.vars {
		return fmt.Errorf("engine: variable %d out of range", i)
	}
	if tx.tm.Write(tx.env, model.TVar(i), model.Value(v)) != stm.OK {
		tx.aborted = true
		return ErrAborted
	}
	return nil
}

// Run implements Engine as one deterministic loop: it spawns
// cfg.Procs simulated processes, each running its rounds (all of them
// when OpsPerProc is 0) through the retry logic, and steps the seeded
// scheduler until SimSteps is spent, a body fails terminally, or
// nothing is runnable.
//
// A terminal body error has no abort request to issue for the
// implicit transaction, so the process ends like a crash, holding
// whatever it holds, and the run stops at that step. A declined round
// (ErrNoCommit) leaves the implicit transaction live, the parasitic
// behaviour of §3.1, and yields so a body that issued no operation
// cannot monopolize the scheduler.
func (e *Sim) Run(cfg RunConfig, body TxBody) (Stats, error) {
	if err := cfg.validateSim(); err != nil {
		return Stats{}, err
	}
	tm := e.factory(cfg.Procs, cfg.Vars)
	var rec *stm.Recorder
	if cfg.Record {
		rec = stm.NewRecorder(tm)
		tm = rec
	}
	sched := sim.New(sim.NewSeeded(cfg.Seed))
	st := Stats{SessionStats: SessionStats{PerWorkerCommits: make([]uint64, cfg.Procs)}}
	var fatal error
	for p := range cfg.Procs {
		err := sched.Spawn(model.Proc(p+1), func(env *sim.Env) {
			tx := &simTx{tm: tm, env: env, vars: cfg.Vars}
			for round := 0; cfg.OpsPerProc == 0 || round < cfg.OpsPerProc; round++ {
				for {
					tx.aborted = false
					err := body(p, round, tx)
					if errors.Is(err, ErrNoCommit) {
						st.NoCommits++
						env.Yield()
						break
					}
					if err == nil && !tx.aborted {
						if tm.TryCommit(env) == stm.OK {
							st.PerWorkerCommits[p]++
							break
						}
					} else if err != nil && !errors.Is(err, ErrAborted) {
						fatal = err
						return
					}
					st.Aborts++
				}
			}
		})
		if err != nil {
			sched.Close()
			return Stats{}, err
		}
	}
	for st.Steps < cfg.SimSteps && fatal == nil && sched.Step() {
		st.Steps++
	}
	sched.Close()
	for _, c := range st.PerWorkerCommits {
		st.Commits += c
	}
	if rec != nil {
		st.History = rec.History()
	}
	return st, fatal
}
