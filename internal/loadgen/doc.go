// Package loadgen is the open-loop scenario engine: it schedules
// transaction arrivals against a TM session — in-process
// (SessionTarget) or served over the wire (WireTarget) — from a
// declarative scenario file, measures per-phase latency, abort and
// overload behaviour, and emits a provenance-stamped artifact that
// release gates (Evaluate) judge against the scenario's thresholds.
//
// Open-loop means arrivals fire on the scenario's clock, not on
// completions: the driver keeps submitting at the planned instants
// whether or not earlier transactions finished, which is the arrival
// pressure under which the paper's no-local-progress dichotomy bites
// in production. Closed-loop harnesses (the workload matrix, `livetm
// client -clients`) never generate that pressure — each worker waits
// for its previous transaction. The only concession to reality is
// the outstanding cap: past Scenario.MaxOutstanding concurrently
// in-flight arrivals, new ones are shed and counted, so the driver
// itself cannot become an unbounded queue.
//
// # Scenario schema
//
// A scenario file is JSON:
//
//	{
//	  "name": "wire-smoke",
//	  "seed": 42,
//	  "arrival": {"process": "poisson", "rate": 400},
//	  "mix": [
//	    {"cell": "update/hot/shared", "weight": 3},
//	    {"cell": "readheavy/cold/disjoint", "weight": 1}
//	  ],
//	  "phases": [
//	    {"name": "warmup", "duration": "500ms"},
//	    {"name": "inject", "duration": "1s", "rate_scale": 1.5, "faults": ["alg2-parasitic"]},
//	    {"name": "recovery", "duration": "500ms"}
//	  ],
//	  "ramp": [{"at": "750ms", "add_workers": 2}],
//	  "clients": 8,
//	  "retries": 3,
//	  "gates": {"max_p99_ms": 250, "max_abort_rate": 0.9, "max_refusal_rate": 0.5, "min_throughput": 50}
//	}
//
// arrival.process is "poisson" (exponential inter-arrivals at rate/sec)
// or "bursty" (burst_size simultaneous arrivals every burst_every).
// A scenario plans at most 1<<22 arrivals (a poisson one, on average)
// and no more than one a nanosecond; the schedule is built in memory
// up front. Each mix cell names a workload-matrix point minus the process count
// ("mix/contention/sharing"); arrivals draw cells by weight and
// compile them to declarative programs (the wire's server.Op
// vocabulary), so the same scenario runs in-process and over the
// wire. Phases run back to back, each scaling the base rate; a
// phase's "faults" name Theorem 1 adversary strategies, each run
// repeatedly as network clients for the phase's duration (wire
// targets only — the canonical shape is warmup/inject/recovery).
// "ramp" steps call Session.AddWorkers under load (in-process targets
// only). "clients" rotates arrivals through that many distinct client
// identities, exercising the server's per-client fair admission and
// its idle-eviction path.
//
// # Determinism
//
// The whole schedule — arrival instants, cell choices, client
// identities, and each arrival's operation pattern — is a pure
// function of (scenario file, seed), materialized up front by
// Scenario.Plan and digested into the artifact (PlanDigest). Same
// file + same seed is byte-identical, which CI asserts; only the
// measured quantities (latency, abort rates, stats deltas) vary
// between runs.
//
// # Artifacts and gates
//
// Run returns a schema "livetm/loadgen/v2" artifact: scenario hash,
// seed, plan digest, git describe, per-phase
// p50/p95/p99/throughput/abort-rate/refusal-rate, the phase's faults
// with one outcome each, and — after AttachReport folds in a drain or
// close report — the liveness class and checked-throughput. Evaluate
// judges it against the scenario's embedded Gates, each optional: p99
// latency, abort rate, overload refusal rate, throughput floor and
// minimum liveness class. `livetm loadgen` runs scenarios; `livetm
// loadgen gate` re-judges saved artifacts, CI wiring both.
package loadgen
