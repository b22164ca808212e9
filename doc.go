// Package livetm reproduces "On the Liveness of Transactional Memory"
// (Bushkov, Guerraoui, Kapałka; PODC 2012) as an executable Go
// library: the formal model of TM histories, decision procedures for
// opacity and strict serializability, the paper's TM-liveness
// properties over eventually-periodic infinite histories, the Fgp
// global-progress automaton, the impossibility adversaries of Theorem
// 1, and the TM implementations (global lock, TinySTM-, TL2-, DSTM-,
// NOrec-, OSTM-style, 2PL, and Fgp) classified under crash and
// parasitic fault injection.
//
// The TMs run on two substrates behind one engine API
// (internal/engine): a deterministic cooperative simulator
// (internal/sim + internal/stm/...) for the paper's adversarial
// liveness and opacity experiments, and real-concurrency sync/atomic
// implementations (internal/native) for the wall-clock scalability
// argument of footnote 1. The API is session-first, matching the
// paper's open-world framing: engine.Open starts a long-lived TM
// session with a worker pool, clients submit individual transactions
// (Session.Exec blocking, Session.Submit async), Stats snapshots
// counters mid-flight, and Close drains and returns the resident
// monitor's final report; the batch engine.Run is a thin wrapper over
// one session, and `livetm serve` runs a native TM as a SIGTERM-clean
// soak service on the same core. The submission surface is
// transport-agnostic: Session satisfies engine.Submitter, and
// internal/server puts any Submitter on the wire as an HTTP/JSON API
// (blocking programs, async submit/wait, interactive transactions,
// remote drain) behind a pluggable Codec, with per-client fair
// admission — a hard in-flight cap split fairly among active clients,
// refusing with ErrOverloaded/429 plus a Retry-After hint instead of
// queueing, evicting idle client accounts after a grace period so
// ephemeral client names cannot grow server state without bound.
// internal/client is the matching Go client; engine error
// sentinels round-trip the wire as stable codes, so errors.Is works
// on both ends. `livetm serve -listen` serves a session remotely
// (telemetry on the same listener), `livetm client` drives it — load
// generation or a Theorem 1 adversary strategy running as a real
// network client — and SIGTERM or a remote drain returns the
// monitor's final report. Both substrates record histories:
// native runs are observed at their linearization points through
// internal/record (per-process chunked buffers ordered by one atomic
// sequence counter), and internal/monitor checks any history online —
// a streaming segmented opacity check plus per-process progress
// accounting classified against the liveness lattice. Monitoring also
// runs in-process: a live session streams events through a bounded
// channel into the monitor while transactions execute, stops the
// session mid-flight on a safety violation, and feeds the measured
// per-process starvation back into the native retry loop's backoff
// (starvation-aware contention management). The path a committed
// transaction takes through a session — Exec's waiter, the lane, the
// worker, the retry loop, the recorder, the stream, the monitor and its
// checker — reuses its storage from one transaction to the next, with a
// per-layer allocation budget in tier-1 holding each layer to it.
// Cut-starved streams degrade to an explicit approximate verdict at
// forced serialization frontiers — final snapshots propagate across
// each frontier, and a transaction carried open across one has its
// unverifiable reads waived — instead of refusing.
//
// A monitored session has one streaming checker and one quiescent-cut
// lock: a cut pauses every worker for an instant, and the checker
// verifies the whole stream in one lane. The segment search places
// transactions over disjoint variables without enumerating their
// interleavings, so one lane keeps up with eight write-heavy processes
// on two cores. The workload matrix (internal/workload) is declared
// once and executed against every (algorithm, substrate) pair,
// optionally recording, checking, or live-monitoring each cell
// (per-cell liveness class, recorder overhead, and cut latency in the
// schema-v3 artifact); see internal/engine's package documentation
// for when to use which substrate.
//
// Every layer above is observable through one low-overhead telemetry
// registry (internal/telemetry): dependency-free atomic counters,
// gauges, and fixed log-bucketed histograms whose hot-path update is
// a single atomic add. Passing SessionConfig.Telemetry threads one
// registry through the native retry loop (starts, commits, aborts by
// cause, retries, retry-latency and backoff-wait histograms per
// algorithm), the session worker pool (queue depths, Exec latency,
// admissions), the quiescent cuts (the pause histogram — the same
// instrument Stats.CutLatency folds, so Stats is a view of the
// registry, not a second set of counters), the recorder (events,
// chunks, recycled, stream drops), the checker (segments, lane lag,
// forced cuts, relaxed straddlers), and the
// monitor (live liveness class, per-process starvation, backoff
// bias). `livetm serve -metrics ADDR` exposes the registry live as
// Prometheus text, a JSON snapshot, and pprof; `-flight FILE`
// appends periodic JSONL snapshots. A nil registry degrades to bare
// instruments backing Stats alone, and the instrumented-vs-bare cost
// ratio is benchmarked and CI-gated against
// telemetry.OverheadBudgetRatio.
//
// Traffic beyond the closed-loop matrix comes from the open-loop
// scenario engine (internal/loadgen): declarative JSON scenarios —
// Poisson or bursty arrivals at a fixed seed, weighted mixes of
// workload-matrix cells compiled to wire programs, warmup/inject/
// recovery phases with the Theorem 1 adversaries as inject faults,
// and ramp schedules growing the worker pool under load — drive an
// in-process session or a served one through the same Target surface,
// with jittered, hint-flooring retry backoff (client.Backoff) on
// overload refusals. The whole schedule is a pure function of
// (scenario file, seed); each run emits a provenance-stamped artifact
// (scenario hash, plan digest, git describe, per-phase p50/p95/p99,
// abort and refusal rates, fault outcomes, liveness class,
// checked-throughput) that `livetm loadgen gate` judges against the
// scenario's release gates and the BENCH trajectory — the CI
// regression gate.
//
// Inject phases can layer several adversary strategies at once
// (Phase.Faults): each named strategy runs its own concurrent episode
// loop against the same served session, producing compound failure
// modes — a crash variant riding alongside a parasitic one — that a
// single injector cannot; scenarios/mixed-faults.json is the CI'd
// example, and the artifact reports one FaultResult per layer.
//
// The invariants the layers above rely on — typed-atomic discipline,
// ascending lock-slice sweeps, wire round-tripping of error
// sentinels, deterministic plan compilation, finite telemetry label
// spaces — are enforced at compile time by internal/lint, a
// zero-dependency static-analysis suite (go list + go/parser +
// go/types) with five domain analyzers; `livetm-lint ./...` must be
// clean (CI runs it, and also asserts a seeded violation fails it),
// with //lint:allow(rule) reason as the only suppression. See
// internal/lint's package documentation for the rule catalog.
//
// The impossibility adversaries are substrate-agnostic too: the
// strategy logic of Algorithms 1 and 2 (internal/adversary) runs once
// against a driver interface, with a simulated backend stepping the
// deterministic scheduler and a native backend gating two real
// goroutines through the linearization-point hooks while the monitor
// watches the stream. `livetm adversary -engine native-tl2` starves a
// production-style TM live; `livetm adversary -matrix` runs every
// strategy variant against every native algorithm and its simulated
// counterpart and writes the cross-substrate starvation-comparison
// artifact (rounds-to-first-starvation, starvation-interval
// distributions, backoff-bias trajectories) alongside
// BENCH_native.json.
//
// The implementation lives under internal/, each package documenting
// its own layer (go doc livetm/internal/engine and so on); see
// ROADMAP.md for the system's current state and open items,
// bench/README.md for the benchmark and its per-layer ledger,
// cmd/figures and cmd/livetm for the experiment drivers, and
// bench_test.go in this directory for the benchmark harness that
// regenerates every figure of the paper and writes the
// BENCH_native.json performance-trajectory artifact.
package livetm
