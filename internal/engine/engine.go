package engine

import (
	"errors"
	"fmt"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/telemetry"
)

// Substrate identifies which execution substrate an engine runs on.
type Substrate string

// The two substrates.
const (
	// Simulated engines run under the deterministic cooperative
	// scheduler of internal/sim.
	Simulated Substrate = "sim"
	// Native engines run real goroutines on real cores.
	Native Substrate = "native"
)

// ErrAborted is returned by transaction operations when the current
// attempt must be retried. It is native.ErrAborted, so a body on
// either substrate sees one abort vocabulary and a native body runs on
// the native attempt handle itself. The runner handles it internally;
// bodies only see it if they inspect operation errors, and must return
// it (or the operation's error) unchanged. ErrAborted never crosses the
// wire — the retry loop consumes it before a submission can finish,
// and an interactive transaction reports a mid-attempt abort as the
// operation's aborted flag (TxOpResponse.Aborted on the wire;
// deliberately not this sentinel) — hence the wiresentinel allowance.
//
//lint:allow(wiresentinel) never crosses the wire: consumed by the retry loop; interactive aborts use TxOpResponse.Aborted
var ErrAborted = native.ErrAborted

// ErrLiveViolation is returned by Run when the live monitor
// (RunConfig.Live) detected a safety violation and stopped the run
// mid-flight. The returned Stats carry the monitor's report
// (Stats.Live) with the failing verdict, and Stats.Stopped is true.
var ErrLiveViolation = errors.New("engine: live monitor stopped the run")

// ErrNoCommit is returned by a body to finish a round without
// attempting to commit — the parasitic behaviour of the paper's §3.1:
// the process keeps issuing operations but never tries to complete a
// transaction. On the simulated substrate the implicit transaction
// simply continues; on the native substrate the attempt is abandoned.
var ErrNoCommit = errors.New("engine: body declined to commit")

// Tx is the per-attempt transaction handle, identical across
// substrates: int64 values over a fixed variable array. It is
// native.Txn, so a native body runs on the retry loop's own handle,
// under the same validity rule: the handle dies with the attempt.
type Tx = native.Txn

// TxBody is one transaction of a workload. proc is the zero-based
// process index, round counts the process's completed transactions.
// The body must be idempotent across retries: it re-reads everything
// through tx and must stop (return the error) when an operation
// fails.
type TxBody func(proc, round int, tx Tx) error

// RunConfig sizes one engine run. Live and Telemetry are native only:
// a simulated Run rejects them.
type RunConfig struct {
	// Procs is the number of concurrent processes (>= 1).
	Procs int
	// Vars is the number of t-variables (>= 1).
	Vars int
	// Seed makes simulated runs reproducible (ignored by native
	// engines, whose interleavings come from the hardware).
	Seed uint64
	// OpsPerProc stops each process after that many completed rounds
	// (committed or declined transactions). Required on the native
	// substrate; 0 on the simulated substrate means "until the step
	// budget runs out".
	OpsPerProc int
	// SimSteps is the cooperative-scheduler step budget (simulated
	// substrate only). It bounds runs even when processes block
	// forever, e.g. behind a wedged lock holder.
	SimSteps int
	// Record captures the run's history in the paper's event
	// vocabulary, on every engine. On the simulated substrate the
	// recorder wraps the TM inside the deterministic scheduler; on the
	// native substrate the per-process recorder of internal/record
	// hangs off the algorithms' linearization-point hooks, and the run
	// takes quiescent cuts between transaction attempts, never inside
	// an attempt or its backoff (see SessionConfig.QuiesceEvery).
	Record bool
	// Live attaches the online monitor to a native run: recorded
	// events stream through bounded per-process rings into
	// monitor.Observe while the workload executes. A safety violation
	// cancels the remaining rounds mid-flight (Run returns
	// ErrLiveViolation), and the measured per-process starvation
	// continuously rebiases the native retry loop's backoff so starved
	// processes back off less and hot ones more. Quiescent cuts keep
	// the live checker exact; the bounded-overlap fallback absorbs
	// windows that outrun the segment budget between cuts, degrading
	// those to an approximate verdict.
	// Live alone does not retain the history — the stream is consumed as
	// it is produced, capping recorder allocation at one ring per
	// process — set Record too to also get Stats.History. The simulated
	// substrate rejects Live: its deterministic histories are checked
	// after the fact.
	Live bool
	// Telemetry registers the run's instruments in the given registry
	// (see SessionConfig.Telemetry); nil runs on bare instruments.
	Telemetry *telemetry.Registry
}

// validateSim checks a simulated run. The scheduler runs the rounds
// itself, so the native-only knobs are refused rather than ignored.
func (cfg RunConfig) validateSim() error {
	switch {
	case cfg.Procs <= 0:
		return fmt.Errorf("engine: need a positive process count, got %d", cfg.Procs)
	case cfg.Vars <= 0:
		return fmt.Errorf("engine: need a positive variable count, got %d", cfg.Vars)
	case cfg.Procs > model.MaxProc:
		return fmt.Errorf("engine: %d processes, above model.MaxProc (%d)", cfg.Procs, model.MaxProc)
	case cfg.Vars > model.MaxTVar:
		return fmt.Errorf("engine: %d variables, above model.MaxTVar (%d)", cfg.Vars, model.MaxTVar)
	case cfg.SimSteps <= 0:
		return fmt.Errorf("engine: simulated runs need a positive SimSteps budget")
	case cfg.OpsPerProc < 0:
		return fmt.Errorf("engine: OpsPerProc must be non-negative, got %d", cfg.OpsPerProc)
	case cfg.Live:
		return fmt.Errorf("engine: live monitoring needs the native substrate (simulated histories are checked after the run)")
	case cfg.Telemetry != nil:
		return fmt.Errorf("engine: Telemetry needs the native substrate")
	}
	return nil
}

// Stats aggregates one run: the counters a session reports (see
// SessionStats; a simulated Run fills Commits, Aborts, NoCommits and
// PerWorkerCommits, one entry per process) plus what only a batch
// has.
type Stats struct {
	SessionStats
	// Steps is the number of scheduler steps consumed (simulated
	// substrate only).
	Steps int
	// History is the recorded history when RunConfig.Record was set,
	// else nil.
	History model.History
	// Live is the online monitor's final report when RunConfig.Live
	// was set: the streaming opacity verdict over the events observed
	// and the per-process progress accounting with liveness
	// classification.
	Live *monitor.Report
}

// Capabilities describes what varies between engines, so callers
// select engines by feature rather than by name. Every engine records
// histories.
type Capabilities struct {
	// Substrate the engine runs on. Native engines run transactions
	// truly in parallel, so wall-clock throughput is meaningful there;
	// simulated ones reproduce the same run bit for bit from the same
	// RunConfig.
	Substrate Substrate
	// Nonblocking: the algorithm is expected to keep correct
	// processes progressing past crashed or stalled peers (the
	// paper's resilience motivation).
	Nonblocking bool
}

// Engine is one transactional-memory algorithm on one substrate.
type Engine interface {
	// Name is the unique report name, e.g. "sim-tl2" or "native-tl2".
	Name() string
	// Algorithm is the substrate-independent algorithm name, e.g.
	// "tl2", shared by counterpart engines on the other substrate.
	Algorithm() string
	// Capabilities reports what the substrate supports.
	Capabilities() Capabilities
	// Run executes body as repeated transactions on cfg.Procs
	// processes and returns the aggregate statistics. A native Run is
	// the batch wrapper over NativeEngine.Open (one session,
	// OpsPerProc pinned rounds per worker); a simulated one is the
	// deterministic scheduler loop. Each call uses a fresh TM instance,
	// so one engine value may serve any number of Runs, concurrent or
	// not.
	Run(cfg RunConfig, body TxBody) (Stats, error)
}
