// Package live runs the adversary strategies of internal/adversary
// against real concurrency, through the one interactive-transaction
// driver (adversary.TxDriver) and two thin adapters: a native session
// in process (RunNative, NativeCell, RunMatrix) and a served session
// over the wire (RunNetwork). Either way the engine parks each
// process's transaction body on a session worker between operations,
// so the adversary holds p1's transaction open while p2 commits. It
// lives outside internal/adversary only to break the import cycle
// adversary -> engine -> core -> adversary.
package live

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"livetm/internal/adversary"
	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/server"
)

// sessionTxns opens the driver's transactions on a session in process.
type sessionTxns struct{ s *engine.Session }

func (t sessionTxns) Begin(_ context.Context, worker int) (adversary.Txn, error) {
	tx, err := t.s.Begin(worker, nil)
	if err != nil {
		return nil, err
	}
	return sessionTx{tx}, nil
}

type sessionTx struct{ *engine.Interactive }

func (t sessionTx) Commit(ctx context.Context) (committed, retrying bool, err error) {
	retrying, err = t.Finish(ctx, true)
	return err == nil && !retrying, retrying, err
}

func (t sessionTx) Abandon(ctx context.Context) error {
	t.Interactive.Abandon()
	_ = t.Wait(ctx) // the driver needs the transaction gone, not its result
	return ctx.Err()
}

// wireTxns opens the driver's transactions over the wire.
type wireTxns struct{ c *client.Client }

func (t wireTxns) Begin(ctx context.Context, worker int) (adversary.Txn, error) {
	tx, err := t.c.Begin(ctx, worker)
	if err != nil {
		return nil, err
	}
	return wireTx{tx}, nil
}

type wireTx struct{ *client.Tx }

func (t wireTx) Commit(ctx context.Context) (committed, retrying bool, err error) {
	fin, err := t.Finish(ctx, server.FinishCommit)
	return fin.Committed, fin.Retrying, err
}

// RunNetwork runs strategy s against a served session through c: the
// adversary as a pair of network clients, so the starvation it
// manufactures is measured at the protocol boundary, where a production
// user would feel it. The outcome carries the substrate-independent
// figures; the final monitor report comes from draining the server
// afterwards (client.Drain or the serve process's SIGTERM handler).
func RunNetwork(c *client.Client, s adversary.Strategy, cfg adversary.Config) (adversary.Outcome, error) {
	return adversary.NewTxDriver(wireTxns{c}, cfg).Run(s, nil)
}

// NativeResult reports what the adversary achieved against a native
// TM.
type NativeResult struct {
	// Outcome carries the substrate-independent figures.
	adversary.Outcome
	// Engine is the native algorithm's report name ("native-tl2").
	Engine string
	// Strategy is the strategy that ran.
	Strategy adversary.Strategy
	// History is the recorded history of the run, including the
	// teardown aborts of the transactions the driver abandoned.
	History model.History
	// Stats is the session's closing snapshot; Stats.BackoffBias is
	// each process's final backoff bias.
	Stats engine.SessionStats
	// Report is adversary.Replay's verdict over History: opacity,
	// per-process progress, starvation intervals
	// (Report.StarvationIntervals) and liveness classes.
	Report monitor.Report
	// Violation is the terminal safety error of the replay or of the
	// session's live monitor (nil against a correct TM).
	Violation error
	// BiasTrajectory is the bias each time it changed, sampled after
	// every driver action — how the contention manager leaned over the
	// run.
	BiasTrajectory [][]int
}

// sessionConfig is the session RunNative drives: live and recording,
// one worker per process, one variable. Its quiescent cuts never wait
// on the transaction a strategy holds open (see engine.Session.Begin).
var sessionConfig = engine.SessionConfig{Workers: 2, Vars: 1, Live: true, Record: true}

// RunNative runs strategy s against a fresh instance of the native
// algorithm on a sessionConfig session, whose live monitor's starvation
// feedback rebiases the backoff as the run goes. It errors
// only on misconfiguration (an unknown variant); the adversary's
// outcomes — starvation, blocking — land in the result.
func RunNative(info native.Info, s adversary.Strategy, cfg adversary.Config) (NativeResult, error) {
	sess, err := engine.NewNative(info).Open(sessionConfig)
	if err != nil {
		return NativeResult{}, err
	}
	res := NativeResult{Engine: info.Name, Strategy: s}
	last := sess.Stats().BackoffBias
	sample := func() {
		if bias := sess.Stats().BackoffBias; !slices.Equal(bias, last) {
			last = bias
			res.BiasTrajectory = append(res.BiasTrajectory, bias)
		}
	}
	res.Outcome, err = adversary.NewTxDriver(sessionTxns{sess}, cfg).Run(s, sample)
	// Run abandoned the driver's open transactions, so no worker is
	// parked and Close can drain.
	_, cerr := sess.Close()
	if err != nil {
		return NativeResult{}, err
	}
	// The monitor runs behind the workers; Close drained it, so its last
	// rebias shows only now.
	sample()
	res.Stats = sess.Stats()
	res.History = sess.History()
	res.Report, res.Violation = adversary.Replay(res.History)
	if res.Violation == nil {
		res.Violation = cerr
	}
	return res, nil
}

// NativeCell runs one strategy against one native algorithm and
// harvests the cell.
func NativeCell(info native.Info, s adversary.Strategy, cfg adversary.Config) (adversary.Cell, error) {
	res, err := RunNative(info, s, cfg)
	if err != nil {
		return adversary.Cell{}, err
	}
	if res.Violation != nil {
		return adversary.Cell{}, fmt.Errorf("adversary: %s under %s violated safety: %w", info.Name, s.Name(), res.Violation)
	}
	algorithm := strings.TrimPrefix(info.Name, "native-")
	cell := adversary.Harvest(s, info.Name, algorithm, "native", res.Outcome, res.History, res.Report)
	cell.BackoffBias, cell.BiasTrajectory = res.Stats.BackoffBias, res.BiasTrajectory
	return cell, nil
}

// RunMatrix runs every strategy variant against every native algorithm
// and its simulated counterpart, returning the cells grouped by
// algorithm (native cell, then sim cell) so the cross-substrate
// comparison reads side by side.
func RunMatrix(cfg adversary.Config) ([]adversary.Cell, error) {
	var out []adversary.Cell
	for _, s := range adversary.Variants() {
		for _, info := range native.Algorithms() {
			cell, err := NativeCell(info, s, cfg)
			if err != nil {
				return out, err
			}
			out = append(out, cell)
			sim, err := adversary.CounterpartCell(cell.Algorithm, s, cfg)
			if err != nil {
				return out, err
			}
			out = append(out, sim)
		}
	}
	return out, nil
}
