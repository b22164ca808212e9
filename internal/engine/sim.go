package engine

import (
	"fmt"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// Sim adapts a simulated TM (an stm.Factory driven by the
// cooperative scheduler) to the Engine interface. Open starts a
// long-lived demand-driven Session (see Session); Run is the batch
// convenience wrapper over one.
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
	return Capabilities{
		Substrate:           Simulated,
		RealConcurrency:     false,
		DeterministicReplay: true,
		HistoryRecording:    true,
		Nonblocking:         e.nonblocking,
	}
}

// simTx adapts the request/response operational interface to the
// engine's error-based one. After any abort the handle is dead.
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

// Open implements Engine: it starts a demand-driven session under the
// deterministic cooperative scheduler on a fresh TM instance.
func (e *Sim) Open(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(Simulated); err != nil {
		return nil, err
	}
	b, err := openSimSession(e.Name(), e.factory, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{name: e.Name(), b: b}, nil
}

// Run implements Engine as a batch wrapper over Open: one session,
// cfg.Procs workers, OpsPerProc pinned rounds per worker (0 keeps
// every worker loaded until the step budget runs out).
func (e *Sim) Run(cfg RunConfig, body TxBody) (Stats, error) {
	if err := cfg.validate(Simulated); err != nil {
		return Stats{}, err
	}
	return runOnSession(e, cfg, body)
}
