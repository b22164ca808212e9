// Package adversary implements the environment strategies from the
// impossibility proofs of the paper (§4, §5): Algorithm 1 (used in
// parasitic-free systems), Algorithm 2 (used in crash-free systems),
// their crash/parasitic variants (Figures 9, 10, 12, 13), and the
// n-process generalization behind Lemma 1.
//
// The strategies drive two (or n) processes against an arbitrary TM
// through the operational interface. Against any TM that ensures
// opacity, process p1 can never commit (the would-be terminating
// history — Figures 8 and 11 — is not opaque), so every run witnesses
// a violation of local progress: either p1 starves while p2 commits
// forever, or the TM blocks and nobody commits — which violates local
// progress too.
//
// The strategy logic is substrate-agnostic: drive executes Algorithms
// 1 and 2 once, against the Driver interface, and two drivers supply
// the per-process actions. SimDriver steps the two processes under the
// deterministic cooperative scheduler of internal/sim (the original
// proof-checking vehicle, kept reproducible by seed). TxDriver holds
// each process's transaction open as an interactive transaction — the
// engine parks its body on a session worker between operations — over
// any Txns: a native session in process or a served one over the wire
// (both adapters live in internal/adversary/live, which also runs the
// native half of the cross-substrate matrix). Every cell of that
// matrix, on either substrate, is harvested by replaying its recorded
// history through the online monitor (Replay, Harvest), so the same
// strategies that prove the impossibility also measure how the five
// production-style native TMs starve in real concurrency.
package adversary

import (
	"time"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// X is the single t-variable the strategies use.
const X = model.TVar(0)

// Config parameterizes an adversary run.
type Config struct {
	// Rounds is the number of p2 commits after which the run stops
	// (the adversary could go on forever; a run is a finite sample of
	// the infinite history).
	Rounds int
	// MaxSteps bounds the scheduler steps so simulated runs against
	// blocking TMs terminate. The default scales with Rounds (2000
	// steps per round, at least 20000) so a long run does not exhaust
	// the budget mid-matrix and misreport a live TM as blocking.
	MaxSteps int
	// Seed drives the simulated scheduler for the phases where both
	// processes are runnable (ignored by TxDriver, whose interleavings
	// come from the hardware).
	Seed uint64
	// BlockTimeout is TxDriver's per-action budget: an action still
	// pending after it reports Blocked — the TM parked a process, which
	// on real hardware only a wall clock can detect. Defaults to 500ms
	// (generous: an in-process operation takes microseconds, so the
	// timeout only has to outlast scheduler stalls on loaded machines);
	// the simulated driver uses MaxSteps instead.
	BlockTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 20
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 2000 * c.Rounds
		if c.MaxSteps < 20000 {
			c.MaxSteps = 20000
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BlockTimeout == 0 {
		c.BlockTimeout = 500 * time.Millisecond
	}
	return c
}

// Result reports what the adversary achieved on the simulated
// substrate.
type Result struct {
	// Outcome carries the substrate-independent figures: Rounds,
	// P1Committed, Blocked.
	Outcome
	// History is the recorded history of the run.
	History model.History
	// Stats summarizes commits/aborts per process.
	Stats stm.Stats
	// Steps is the number of scheduler steps consumed.
	Steps int
}

// Lemma1 runs the n-process generalization: processes 1..n-1 each
// start a transaction with a read and then hold it; process n commits
// transactions forever; afterwards each holder tries to finish its
// transaction. At most one process (p_n) makes progress. It stays on
// the simulated substrate — the point is the counting argument, not
// the schedule.
//
//lint:allow(unused) the paper's Lemma 1, exercised by TestLemma1NProcesses and the root BenchmarkLemma1NProcesses
func Lemma1(factory stm.Factory, n int, cfg Config) Result {
	cfg = cfg.withDefaults()
	rec := stm.NewRecorder(factory(n, 1))
	s := sim.New(sim.NewSeeded(cfg.Seed))
	defer s.Close()

	var (
		holdersReady int
		holdersDone  int
		rounds       int
		anyHolderC   bool
		finish       bool
	)
	for i := 1; i < n; i++ {
		p := model.Proc(i)
		_ = s.Spawn(p, func(env *sim.Env) {
			defer func() { holdersDone++ }()
			v, st := rec.Read(env, X)
			holdersReady++
			for !finish {
				env.Yield()
			}
			if st != stm.OK {
				return
			}
			if rec.Write(env, X, v+1) != stm.OK {
				return
			}
			if rec.TryCommit(env) == stm.OK {
				anyHolderC = true
			}
		})
	}
	_ = s.Spawn(model.Proc(n), func(env *sim.Env) {
		for {
			for holdersReady < n-1 {
				env.Yield()
			}
			v, st := rec.Read(env, X)
			if st != stm.OK {
				continue
			}
			if rec.Write(env, X, v+1) != stm.OK {
				continue
			}
			if rec.TryCommit(env) != stm.OK {
				continue
			}
			rounds++
		}
	})

	for s.Steps() < cfg.MaxSteps && rounds < cfg.Rounds {
		if !s.Step() {
			break
		}
	}
	finish = true
	for s.Steps() < 2*cfg.MaxSteps && !anyHolderC && holdersDone < n-1 {
		if !s.Step() {
			break
		}
	}
	h := rec.History()
	return Result{
		Outcome: Outcome{Rounds: rounds, P1Committed: anyHolderC},
		History: h,
		Stats:   stm.Summarize(h),
		Steps:   s.Steps(),
	}
}
