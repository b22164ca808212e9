package engine

import (
	"errors"

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

// Open starts a long-lived Session: a fresh TM instance with a worker
// pool of real goroutines serving client-submitted transactions until
// Close. Any number of sessions may be open concurrently; cfg.Engine
// is ignored (the receiver is the engine).
func (e *NativeEngine) Open(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b, err := openNativeSession(e.info, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{name: e.info.Name, b: b}, nil
}

// Run implements Engine as a batch wrapper over Open: one session,
// cfg.Procs workers, OpsPerProc pinned rounds per worker.
func (e *NativeEngine) Run(cfg RunConfig, body TxBody) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	return runOnSession(e, cfg, body)
}
