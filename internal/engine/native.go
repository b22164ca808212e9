package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"livetm/internal/native"
)

// NativeEngine adapts a native (real-concurrency) TM to the Engine
// interface: workers are goroutines, the budget is transaction rounds,
// and throughput is wall-clock real. Open starts a long-lived Session
// on a fresh TM instance; Run is the batch convenience wrapper over
// one (open → run each process's OpsPerProc rounds → close). With
// SessionConfig.Record the run is observed at its linearization points
// through internal/record, so the history reaching Stats.History is
// checkable like a simulated one.
type NativeEngine struct {
	info native.Info
}

var _ Engine = (*NativeEngine)(nil)

// NewNative wraps a native algorithm.
func NewNative(info native.Info) *NativeEngine {
	return &NativeEngine{info: info}
}

// Name implements Engine. Native algorithm names already carry the
// substrate prefix ("native-tl2").
func (e *NativeEngine) Name() string { return e.info.Name }

// Algorithm implements Engine.
func (e *NativeEngine) Algorithm() string {
	const prefix = "native-"
	if len(e.info.Name) > len(prefix) && e.info.Name[:len(prefix)] == prefix {
		return e.info.Name[len(prefix):]
	}
	return e.info.Name
}

// Capabilities implements Engine.
func (e *NativeEngine) Capabilities() Capabilities {
	return Capabilities{Substrate: Native, Nonblocking: e.info.Nonblocking}
}

// Run implements Engine as a batch wrapper over Open: one session
// with cfg.Procs workers and one goroutine per process, which runs its
// OpsPerProc rounds as blocking ExecOn calls pinned to its own worker —
// the inline path, since nothing else submits to that worker. A
// declined round (ErrNoCommit) goes on to the next; a stop ends the
// process's rounds quietly (the violation surfaces from Close); any
// other error ends them and is kept. Run returns Close's error, else
// the error of the lowest-numbered process that failed.
func (e *NativeEngine) Run(cfg RunConfig, body TxBody) (Stats, error) {
	if cfg.OpsPerProc <= 0 {
		return Stats{}, fmt.Errorf("engine: native runs need a positive OpsPerProc budget")
	}
	s, err := e.Open(SessionConfig{
		Workers:   cfg.Procs,
		Vars:      cfg.Vars,
		Record:    cfg.Record,
		Live:      cfg.Live,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return Stats{}, err
	}
	errs := make([]error, cfg.Procs)
	var wg sync.WaitGroup
	wg.Add(cfg.Procs)
	for p := range cfg.Procs {
		go func() {
			defer wg.Done()
			for round := range cfg.OpsPerProc {
				err := s.ExecOn(context.Background(), p, func(tx Tx) error { return body(p, round, tx) })
				switch {
				case err == nil, errors.Is(err, ErrNoCommit):
				case errors.Is(err, ErrStopped):
					return
				default:
					errs[p] = err
					return
				}
			}
		}()
	}
	wg.Wait()

	rep, err := s.Close()
	st := Stats{SessionStats: s.Stats(), History: s.History(), Live: rep}
	for _, perr := range errs {
		if err == nil {
			err = perr
		}
	}
	return st, err
}
