package loadgen

import (
	"context"
	"errors"
	"fmt"

	"livetm/internal/adversary"
	"livetm/internal/adversary/live"
	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/server"
)

// Target is where the driver lands arrivals: an in-process session or
// a served one over the wire, behind one submission surface. Exec
// runs one program under the given client identity and reports
// whether it committed (declined, ErrNoCommit, is a clean false);
// overload refusals surface as errors matching engine.ErrOverloaded
// so the retry loop treats both targets alike.
type Target interface {
	Exec(ctx context.Context, clientName string, ops []server.Op) (committed bool, err error)
	Stats(ctx context.Context) (engine.SessionStats, error)
	// Workers and Vars shape the generated programs.
	Workers() int
	Vars() int
	// Describe names the target in the artifact.
	Describe() string
}

// WorkerAdder is the optional ramp capability (in-process targets).
type WorkerAdder interface {
	AddWorkers(n int) error
}

// FaultDriver is the optional fault-injection capability: one run of
// an adversary strategy against the target (wire targets, where the
// strategies exist as real network clients).
type FaultDriver interface {
	Fault(s adversary.Strategy, cfg adversary.Config) (adversary.Outcome, error)
}

// SessionTarget drives an in-process engine.Session through ExecOn on
// any worker. With the session's MaxQueue set, a full lane refuses a
// program at once with ErrOverloaded (hint-less — the backoff falls
// back to its base), which keeps the driver open-loop; without it a
// program waits for room on its lane, and the driver's outstanding cap
// sheds instead.
type SessionTarget struct {
	S     *engine.Session
	NVars int
}

// Exec runs the program and waits for its result.
func (t *SessionTarget) Exec(ctx context.Context, _ string, ops []server.Op) (bool, error) {
	var reads []int64
	err := t.S.ExecOn(ctx, engine.AnyWorker, server.ProgramBody(ops, &reads))
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, engine.ErrNoCommit):
		return false, nil
	default:
		return false, err
	}
}

// Stats snapshots the session.
func (t *SessionTarget) Stats(context.Context) (engine.SessionStats, error) {
	return t.S.Stats(), nil
}

// AddWorkers grows the session's pool (the ramp capability).
func (t *SessionTarget) AddWorkers(n int) error { return t.S.AddWorkers(n) }

// Workers reports the current pool size.
func (t *SessionTarget) Workers() int { return t.S.Stats().Workers }

// Vars reports the session's variable count.
func (t *SessionTarget) Vars() int { return t.NVars }

// Describe names the target.
func (t *SessionTarget) Describe() string { return "session/" + t.S.Name() }

// WireTarget drives a served session through internal/client. Each
// arrival's identity fans out of one shared transport via WithName,
// so rotating identities cost nothing per name while still exercising
// the server's per-client admission (and its eviction path).
type WireTarget struct {
	C    *client.Client
	Info server.InfoResponse
}

// NewWireTarget connects and snapshots the server's shape.
func NewWireTarget(ctx context.Context, c *client.Client) (*WireTarget, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: info: %w", err)
	}
	return &WireTarget{C: c, Info: info}, nil
}

// Exec runs the program over the wire under the given identity.
func (t *WireTarget) Exec(ctx context.Context, clientName string, ops []server.Op) (bool, error) {
	res, err := t.C.WithName(clientName).Exec(ctx, engine.AnyWorker, ops)
	if err != nil {
		return false, err
	}
	return res.Committed, nil
}

// Stats snapshots the served session.
func (t *WireTarget) Stats(ctx context.Context) (engine.SessionStats, error) {
	return t.C.Stats(ctx)
}

// Fault runs one round-trip batch of the adversary strategy as
// network clients against the server (the inject phase's fault
// injector). The served session needs at least two workers.
func (t *WireTarget) Fault(s adversary.Strategy, cfg adversary.Config) (adversary.Outcome, error) {
	if t.Info.Workers < 2 {
		return adversary.Outcome{}, fmt.Errorf("loadgen: fault %s needs 2 workers, the server has %d", s.Name(), t.Info.Workers)
	}
	return live.RunNetwork(t.C, s, cfg)
}

// Workers reports the served pool size.
func (t *WireTarget) Workers() int { return t.Info.Workers }

// Vars reports the served variable count.
func (t *WireTarget) Vars() int { return t.Info.Vars }

// Describe names the target.
func (t *WireTarget) Describe() string { return "wire/" + t.Info.Engine }
