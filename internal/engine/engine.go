package engine

import (
	"errors"
	"fmt"

	"livetm/internal/model"
	"livetm/internal/monitor"
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
// attempt must be retried. The runner handles it internally; bodies
// only see it if they inspect operation errors, and must return it
// (or the operation's error) unchanged. ErrAborted never crosses the
// wire — the retry loop consumes it before a submission can finish,
// and the interactive wire protocol signals a mid-attempt abort with
// TxOpResponse.Aborted (deliberately not this sentinel; see
// internal/server/interactive.go) — hence the wiresentinel allowance.
//
//lint:allow(wiresentinel) never crosses the wire: consumed by the retry loop; interactive aborts use TxOpResponse.Aborted
var ErrAborted = errors.New("engine: transaction aborted")

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
// substrates: int64 values over a fixed variable array.
type Tx interface {
	// Read returns the value of variable i, or ErrAborted.
	Read(i int) (int64, error)
	// Write buffers v into variable i, or returns ErrAborted.
	Write(i int, v int64) error
}

// TxBody is one transaction of a workload. proc is the zero-based
// process index, round counts the process's completed transactions.
// The body must be idempotent across retries: it re-reads everything
// through tx and must stop (return the error) when an operation
// fails.
type TxBody func(proc, round int, tx Tx) error

// RunConfig sizes one engine run. QuiesceEvery, Live and Telemetry
// are native only: a simulated Run rejects them.
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
	// hangs off the algorithms' linearization-point hooks.
	Record bool
	// QuiesceEvery plants quiescent cuts in a recorded native run
	// (0 = never): after every QuiesceEvery × (admitted workers)
	// completed transactions the session pauses — no new transaction
	// starts while the in-flight ones finish — and the paused instant
	// is a quiescent cut in the recorded history, which the segmented
	// and streaming opacity checkers need to keep their search windows
	// bounded; unrecorded runs and throughput measurements leave it 0.
	// Live runs treat 0 as the live default (4) because the live
	// checker wants cuts; pass -1 to run live with no cuts at all (the
	// approximate fallback then carries the whole stream).
	QuiesceEvery int
	// Live attaches the online monitor to a native run: recorded
	// events stream through bounded per-process rings into
	// monitor.Observe while the workload executes. A safety violation
	// cancels the remaining rounds mid-flight (Run returns
	// ErrLiveViolation), and the measured per-process starvation
	// continuously rebiases the native retry loop's backoff so starved
	// processes back off less and hot ones more. Live runs pause on
	// QuiesceEvery's cadence (4 when left 0) to plant the quiescent
	// cuts that keep the live checker exact; the
	// bounded-overlap fallback absorbs windows that outrun the segment
	// budget between cuts, degrading those to an approximate verdict.
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
	case cfg.SimSteps <= 0:
		return fmt.Errorf("engine: simulated runs need a positive SimSteps budget")
	case cfg.OpsPerProc < 0:
		return fmt.Errorf("engine: OpsPerProc must be non-negative, got %d", cfg.OpsPerProc)
	case cfg.Live:
		return fmt.Errorf("engine: live monitoring needs the native substrate (simulated histories are checked after the run)")
	case cfg.QuiesceEvery != 0:
		return fmt.Errorf("engine: QuiesceEvery needs the native substrate (a simulated run has no concurrent transactions to pause)")
	case cfg.Telemetry != nil:
		return fmt.Errorf("engine: Telemetry needs the native substrate")
	}
	return nil
}

// Stats aggregates one run.
type Stats struct {
	// Commits and Aborts count committed transactions and aborted
	// attempts across all processes.
	Commits uint64
	Aborts  uint64
	// NoCommits counts rounds a body finished with ErrNoCommit.
	NoCommits uint64
	// PerProcCommits holds each process's commit count.
	PerProcCommits []uint64
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
	// Stopped reports that the live monitor cancelled the run
	// mid-flight; the commit counters then cover only the rounds that
	// completed before the stop.
	Stopped bool
	// BackoffCap is the retry-backoff policy's spin-shift ceiling on
	// native runs — the dynamic range the starvation-aware bias moves
	// within. Zero on the simulated substrate (no backoff loop).
	BackoffCap int
	// BackoffBias is each process's final backoff bias on native runs:
	// negative for processes the starvation feedback favoured, positive
	// for processes it penalized. Nil when Live was off (no feedback
	// ran) or on the simulated substrate.
	BackoffBias []int
	// RecorderChunks counts the event-buffer chunks the recorder
	// allocated. On a live run without Record it stays capped at one
	// reusable ring chunk per process regardless of run length.
	RecorderChunks int
	// Truncated reports that some process hit the recorder's retained-
	// buffer cap: History (and, on a Record+Live run, the live verdict)
	// covers a per-process prefix of the run, so verdicts are advisory.
	// Live-only runs retain nothing and never truncate.
	Truncated bool
	// CutLatency is the pause-latency summary over every quiescent cut
	// the run forced (see SessionStats).
	CutLatency CutStats
}

// AbortRate is Aborts / (Commits + Aborts), or 0 with no attempts.
func (s Stats) AbortRate() float64 {
	if s.Commits+s.Aborts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits+s.Aborts)
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
