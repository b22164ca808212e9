package native

import "livetm/internal/telemetry"

// TxMetrics is the pre-resolved telemetry handle bundle for the shared
// retry loop. All fields must be non-nil (use NewTxMetrics); the loop
// only nil-checks the bundle itself, so an uninstrumented run pays a
// single predictable branch and an instrumented fast path (first-try
// commit) pays exactly two atomic increments and no clock read. Clock
// reads happen only on the abort path, where a wait is imminent
// anyway.
type TxMetrics struct {
	// Starts counts transactions entering the retry loop.
	Starts *telemetry.Counter
	// Commits counts transactions leaving it committed.
	Commits *telemetry.Counter
	// Retries counts aborted attempts that go around again.
	Retries *telemetry.Counter
	// AbortConflict counts attempts whose tryCommit lost a conflict.
	AbortConflict *telemetry.Counter
	// AbortOperation counts attempts aborted by an operation (or a
	// body returning ErrAborted of its own accord).
	AbortOperation *telemetry.Counter
	// AbortAbandoned counts attempts abandoned on a terminal body
	// error (including the engine's declined-to-commit sentinel).
	AbortAbandoned *telemetry.Counter
	// AbortStopped counts transactions cancelled by RunOpts.Gate.
	AbortStopped *telemetry.Counter
	// RetryLatency distributes nanoseconds from a transaction's first
	// abort to its eventual commit (first-try commits are not
	// observed: their retry latency is identically zero).
	RetryLatency *telemetry.Histogram
	// BackoffWait distributes nanoseconds spent inside Backoff.wait.
	BackoffWait *telemetry.Histogram
}

// NewTxMetrics resolves the retry-loop families in reg for one
// algorithm. The families are shared across sessions using the same
// registry; the algo label keeps the five algorithms apart: it is fed
// from engine.Info.Name, which comes from the fixed algorithm registry
// (engine.Engines) — a finite set the telemetrylabel classifier cannot
// see through the registry indirection, hence the allowance.
//
//lint:allow(telemetrylabel) algo comes from the fixed engine registry (engine.Engines), a finite compiled-in set
func NewTxMetrics(reg *telemetry.Registry, algo string) *TxMetrics {
	return &TxMetrics{
		Starts:         reg.Counter("livetm_tx_starts_total", "transactions entering the native retry loop", "algo", algo),
		Commits:        reg.Counter("livetm_tx_commits_total", "transactions committed by the native retry loop", "algo", algo),
		Retries:        reg.Counter("livetm_tx_retries_total", "aborted attempts that retried", "algo", algo),
		AbortConflict:  reg.Counter("livetm_tx_aborts_total", "aborted attempts by cause", "algo", algo, "cause", "conflict"),
		AbortOperation: reg.Counter("livetm_tx_aborts_total", "aborted attempts by cause", "algo", algo, "cause", "operation"),
		AbortAbandoned: reg.Counter("livetm_tx_aborts_total", "aborted attempts by cause", "algo", algo, "cause", "abandoned"),
		AbortStopped:   reg.Counter("livetm_tx_aborts_total", "aborted attempts by cause", "algo", algo, "cause", "stopped"),
		RetryLatency:   reg.Histogram("livetm_tx_retry_latency_ns", "first abort to eventual commit, ns", "algo", algo),
		BackoffWait:    reg.Histogram("livetm_tx_backoff_wait_ns", "time inside the retry backoff, ns", "algo", algo),
	}
}
