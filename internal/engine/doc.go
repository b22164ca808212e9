// Package engine unifies the repository's two transactional-memory
// substrates behind one API, so every algorithm and every workload
// can be driven through the same interface.
//
// # The two substrates
//
// The simulated substrate (internal/stm/... under internal/sim) runs
// each process as a coroutine of a deterministic cooperative
// scheduler: exactly one process advances at a time, preemption and
// crashes happen at explicit yield points, and runs are bit-for-bit
// reproducible. It is the vehicle for the paper's formal experiments
// — liveness classification, adversary strategies, history recording,
// opacity checking — because the scheduler can adversarially place
// every context switch and the recorded histories feed the checkers.
// What it cannot measure is wall-clock scalability: only one process
// ever runs.
//
// The native substrate (internal/native) runs transactions from real
// goroutines on real cores over sync/atomic, reproducing the paper's
// footnote-1 motivation — resilient TMs matter because of parallel
// hardware. It measures real throughput and real contention, but
// schedules are up to the Go runtime and the hardware, so runs are not
// reproducible. Histories, however, are recordable on both substrates:
// with RunConfig.Record a native run is observed at its linearization
// points (internal/native's Observer hooks feeding internal/record's
// per-process chunked buffers, globally ordered by one atomic sequence
// counter), and Stats.History carries a well-formed model.History of
// what the hardware actually did. RunConfig.QuiesceEvery plants
// quiescent cuts in recorded runs so the opacity checkers
// (safety.CheckOpacity past 64 transactions, internal/monitor) can
// verify arbitrarily long native executions segment by segment.
//
// # Sessions
//
// The paper's liveness results are statements about ongoing systems —
// processes that keep issuing transactions forever while the
// environment schedules them — so the package's core is a long-lived
// Session, not a closed batch run. Open (or Engine.Open) starts a TM
// instance with a worker pool; clients submit individual transactions
// with Session.Exec (blocking, returning the commit error) and
// Session.Submit (async, with a result callback), pinned to a worker
// or to AnyWorker; Session.Stats snapshots the counters mid-flight;
// Session.AddWorkers admits more workers while traffic flows (native
// substrate, up to the provisioned MaxWorkers); and Session.Close
// drains the in-flight transactions and returns the monitor's final
// report. Engine.Run is the batch convenience wrapper over exactly
// this: open a session, keep each worker's lane loaded with its
// OpsPerProc rounds, drain, close. `livetm serve` is the same shape as
// a SIGTERM-clean soak service.
//
// The submission surface is factored out as the Submitter interface
// (Exec/ExecOn blocking, Submit/SubmitOn async) so layers that put
// sessions on the wire depend on the capability, not the struct:
// internal/server adapts any Submitter to an HTTP/JSON wire API with
// per-client fair admission, and internal/client speaks it back.
// Backpressure is part of the contract — SessionConfig.MaxQueue
// bounds each worker lane and an async Submit against a full lane
// refuses immediately with ErrOverloaded rather than blocking, the
// sentinel the server translates to HTTP 429 plus a Retry-After
// hint. Every sentinel in this package (ErrOverloaded, ErrClosed,
// ErrStopped, ErrStepBudget, ErrBusy, ErrNoCommit, ErrLiveViolation)
// round-trips the wire as a stable code, so errors.Is holds on both
// ends of the connection.
//
// On the native substrate workers are real goroutines and submissions
// execute as soon as a worker frees up. A blocking ExecOn pinned to an
// idle worker with nothing queued ahead of it, whose context can never
// be done, skips the hand-off: it runs on the caller's goroutine as
// that worker — the paper's process issuing its own transaction — under
// the same accounting, cut cadence and Close/Drain registration as a
// worker run. A cancellable context keeps the queued path, since
// cancelling abandons the wait but cannot abandon a transaction that
// runs on the canceller itself. Jobs that do queue wake only the
// worker they are for (a shared-lane job wakes every worker).
// Quiescent cuts for the checkers are brief global pauses (no new
// transaction starts while in-flight ones finish) since idle workers
// cannot rendezvous at a barrier. On the simulated substrate the
// session is demand-driven: the cooperative scheduler steps while a
// caller blocks in Exec, Drain or Close, which is what keeps batch
// runs bit-for-bit deterministic.
//
// A transaction costs a native session no allocation of its own, on
// either path, so that observing a run does not reshape it with
// collector pauses: Exec waits on a pooled waiter (handed back only by
// the caller that received its result — a wait abandoned by a done
// context leaves the waiter with the worker that still owes it one),
// the lanes are rings
// whose popped slots are cleared, each worker keeps one body adapter
// and one transaction handle for every attempt it runs, and on a live
// session the pump reads each worker's stream ring in place.
// TestAllocBudgetPerLiveCommit holds the whole path to that,
// and the packages underneath (native, record, monitor, safety) each
// have a budget of their own, so a regression names its layer.
//
// # Live monitoring
//
// SessionConfig.Live (RunConfig.Live on the batch wrapper) keeps the
// online monitor resident for the session's lifetime: each worker's
// recorder log writes every stamped event into its own bounded ring and
// publishes it with one atomic store per transaction, and a pump
// goroutine reads the rings in place, restores the total order by
// sequence number and feeds internal/monitor while transactions
// execute. Neither side polls: the pump sleeps while no ring has news,
// and a worker whose ring is full waits for the pump (see
// internal/record). A safety violation stops the session mid-flight —
// the stop signal threads through the native retry loop, so even a
// transaction wedged in retries stops; outstanding submissions fail
// with ErrStopped and Close (or Run) returns ErrLiveViolation with the
// verdict in the report. The same
// feedback path drives starvation-aware backoff: the monitor's
// per-process starvation intervals periodically rebias the shared
// backoff policy (native.Backoff) so starved processes back off less
// and hot ones more, within the capped dynamic range reported by
// Stats.BackoffCap. Live without Record retains nothing: each worker's
// stream ring is its whole log, capping recorder allocation at one ring
// per worker slot for arbitrarily long monitored sessions
// (Stats.RecorderChunks). Streams whose schedule outruns the segment
// budget between quiescent cuts degrade to an explicit approximate
// verdict (forced serialization frontiers) instead of failing.
//
// # Telemetry
//
// SessionConfig.Telemetry accepts a telemetry.Registry and turns the
// session's internal accounting into scrapeable metric families. The
// same instruments always exist — with a nil registry the session
// allocates bare (unregistered) counters, gauges, and histograms that
// cost exactly one atomic operation per update and back SessionStats;
// with a registry those instruments are additionally named, labeled,
// and visible to Snapshot/the HTTP handler, and the clock-involving
// extras (Exec-latency histogram, the native retry loop's per-algo
// transaction metrics) switch on. Stats is therefore a fold of the
// registry, never a parallel set of counters: CutLatency holds
// quantiles of the livetm_cut_pause_ns histogram, Commits sums the
// per-worker livetm_session_commits_total series, and so on.
//
// The family catalog spans every layer: livetm_tx_* from the native
// retry loop (starts/commits/retries, aborts by cause, retry-latency
// and backoff-wait histograms, labeled by algorithm); livetm_session_*
// from the worker pool (submitted/completed, per-worker commits,
// shared/pinned queue-depth gauges, worker count, AddWorkers
// admissions, Exec latency); livetm_cut_pause_ns;
// livetm_recorder_* (events, chunk gauge, recycled, stream drops);
// livetm_checker_* (segments, forced cuts, relaxed straddlers, the
// lane-lag gauge); and the monitor's live gauges
// (livetm_monitor_liveness_class as a lattice ordinal,
// livetm_monitor_starvation and livetm_backoff_bias per process).
// Gauges owned by single-writer goroutines (lane lag, monitor class)
// are pushed by their owners so scrapers never race workers; every
// scrape works from an immutable Snapshot.
//
// The instrumented-vs-bare cost is an enforced budget, not a hope:
// BenchmarkTelemetryOverhead compares sessions with and without a
// registry and CI fails the build when the ratio exceeds its budget.
//
// Use the simulated substrate to ask "is it correct / live under this
// exact adversarial schedule", the native substrate to ask "how fast
// is it on this machine", a recorded native run to ask "was this real
// execution opaque, and which processes progressed", and a live native
// session to ask "is it still opaque, and who is starving, right now".
// The workload matrix (internal/workload) declares each scenario once
// and runs it on every (algorithm, substrate) pair through this
// package.
//
// # The batch API
//
// An Engine wraps one algorithm on one substrate. Engine.Run spawns
// cfg.Procs processes that each execute a TxBody as repeated
// transactions until the budget is exhausted — scheduler steps on the
// simulated substrate, transaction rounds on the native one — and
// returns aggregate commit/abort statistics, plus the recorded
// history when the substrate supports it. Capabilities reports what
// the substrate can do so callers can select engines by feature
// rather than by name. Engines are safe for sequential reuse; a
// concurrent second Run on one engine value returns ErrBusy, and any
// number of Sessions may be open concurrently.
//
// Engines returns the full cross-product registry: the nine simulated
// TMs of core.Registry and the five native algorithms of
// native.Algorithms, all behind this one interface.
//
// The registry is also where the paper's impossibility arguments meet
// the production-style algorithms: the adversary conformance suite
// (adversary_test.go) drives the Theorem 1 strategies
// (internal/adversary) against every native algorithm and asserts the
// no-local-progress dichotomy — p1 never commits, or nobody does — on
// every strategy-variant × algorithm cell, with per-process starvation
// intervals harvested from the online monitor.
package engine
