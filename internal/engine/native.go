package engine

import (
	"errors"
	"fmt"
	"sync"

	"livetm/internal/native"
)

// NativeEngine adapts a native (real-concurrency) TM to the Engine
// interface: workers are goroutines, the budget is transaction rounds,
// and throughput is wall-clock real. Open starts a long-lived Session
// on a fresh TM instance; Run is the batch convenience wrapper over
// one (open → submit the Procs × OpsPerProc budget → close). With
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

// nativeTx translates the native handle's sentinel error into the
// engine's, so bodies observe one abort vocabulary on either
// substrate.
type nativeTx struct {
	tx native.Txn
}

func (t nativeTx) Read(i int) (int64, error) {
	v, err := t.tx.Read(i)
	if errors.Is(err, native.ErrAborted) {
		return 0, ErrAborted
	}
	return v, err
}

func (t nativeTx) Write(i int, v int64) error {
	if err := t.tx.Write(i, v); errors.Is(err, native.ErrAborted) {
		return ErrAborted
	} else {
		return err
	}
}

// Run implements Engine as a batch wrapper over Open: one session
// with cfg.Procs workers, each worker's lane kept topped up with one of
// its OpsPerProc pinned rounds at a time (so a terminal body error
// stops that worker's remaining rounds), then Close, with the session's
// counters refolded into Stats.
func (e *NativeEngine) Run(cfg RunConfig, body TxBody) (Stats, error) {
	if cfg.OpsPerProc <= 0 {
		return Stats{}, fmt.Errorf("engine: native runs need a positive OpsPerProc budget")
	}
	s, err := e.Open(SessionConfig{
		Workers:      cfg.Procs,
		Vars:         cfg.Vars,
		Record:       cfg.Record,
		QuiesceEvery: cfg.QuiesceEvery,
		Live:         cfg.Live,
		Telemetry:    cfg.Telemetry,
	})
	if err != nil {
		return Stats{}, err
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// expected classifies a pump result that ends a worker's rounds
	// without being a body error: the session stopped (the violation
	// surfaces from Close).
	expected := func(err error) bool {
		return errors.Is(err, ErrStopped) || errors.Is(err, ErrClosed)
	}
	wg.Add(cfg.Procs)
	var pump func(p, round int)
	pump = func(p, round int) {
		if round >= cfg.OpsPerProc {
			wg.Done()
			return
		}
		err := s.SubmitOn(p, func(tx Tx) error { return body(p, round, tx) }, func(res error) {
			switch {
			case res == nil, errors.Is(res, ErrNoCommit):
				pump(p, round+1)
			default:
				if !expected(res) {
					fail(res)
				}
				wg.Done()
			}
		})
		if err != nil {
			if !expected(err) {
				fail(err)
			}
			wg.Done()
		}
	}
	for p := 0; p < cfg.Procs; p++ {
		pump(p, 0)
	}
	wg.Wait()

	rep, cerr := s.Close()
	sst := s.Stats()
	st := Stats{
		Commits:        sst.Commits,
		Aborts:         sst.Aborts,
		NoCommits:      sst.NoCommits,
		PerProcCommits: sst.PerWorkerCommits,
		History:        s.History(),
		Live:           rep,
		Stopped:        sst.Stopped,
		BackoffCap:     sst.BackoffCap,
		BackoffBias:    sst.BackoffBias,
		RecorderChunks: sst.RecorderChunks,
		Truncated:      sst.Truncated,
		CutLatency:     sst.CutLatency,
	}
	if cerr != nil {
		return st, cerr
	}
	if firstErr != nil {
		return st, firstErr
	}
	return st, nil
}
