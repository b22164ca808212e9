// The external test package breaks the import cycle that the
// adversary's cross-substrate matrix would otherwise close: adversary
// (driven here) imports this package's factory for its simulated
// counterpart cells.
package dstm_test

import (
	"testing"

	"livetm/internal/adversary"
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/stmtest"
)

func greedyFactory(nProcs, nVars int) stm.TM { return dstm.NewWithCM(dstm.Greedy) }

func TestGreedyConformance(t *testing.T) {
	stmtest.Conformance(t, greedyFactory)
}

func TestGreedyName(t *testing.T) {
	if dstm.NewWithCM(dstm.Greedy).Name() != "dstm-greedy" {
		t.Error("name")
	}
}

// TestGreedyNoLivelockUnderMetronome: two conflicting writers under
// strict alternation. With AbortOther they can abort each other
// forever; with Greedy the older transaction always wins, so both
// processes commit (write-write starvation freedom).
func TestGreedyNoLivelockUnderMetronome(t *testing.T) {
	tm := dstm.NewWithCM(dstm.Greedy)
	s := sim.New(&sim.RoundRobin{})
	defer s.Close()
	var c1, c2 int
	_ = s.Spawn(1, writerBody(tm, &c1))
	_ = s.Spawn(2, writerBody(tm, &c2))
	s.Run(4000)
	if c1 == 0 || c2 == 0 {
		t.Errorf("commits = %d, %d; greedy must avoid mutual-abort livelock", c1, c2)
	}
}

// writerBody runs blind-write transactions (write then commit), the
// pure write-write conflict workload.
func writerBody(tm stm.TM, commits *int) func(*sim.Env) {
	return func(env *sim.Env) {
		for i := model.Value(0); ; i++ {
			if tm.Write(env, 0, i) != stm.OK {
				continue
			}
			if tm.TryCommit(env) == stm.OK {
				*commits++
			}
		}
	}
}

// TestGreedyPriorityRetainedAcrossRetries: after an abort a process
// keeps its (older) timestamp, so it wins its next conflict.
func TestGreedyPriorityRetainedAcrossRetries(t *testing.T) {
	tm := dstm.NewWithCM(dstm.Greedy)
	env1, env2 := sim.Background(1), sim.Background(2)
	// p1 starts first: older stamp.
	if st := tm.Write(env1, 0, 1); st != stm.OK {
		t.Fatal("p1 write")
	}
	// p2 (younger) conflicts: must abort itself, not p1.
	if st := tm.Write(env2, 0, 2); st != stm.Aborted {
		t.Fatal("younger p2 must self-abort")
	}
	// p2 retries (keeps its stamp, still younger): self-aborts again.
	if st := tm.Write(env2, 0, 2); st != stm.Aborted {
		t.Fatal("p2 must still be younger")
	}
	if st := tm.TryCommit(env1); st != stm.OK {
		t.Fatal("p1 commits")
	}
	// After p1's commit its stamp is retired; p2's retained stamp is
	// now the oldest and its retry succeeds.
	if st := tm.Write(env2, 0, 2); st != stm.OK {
		t.Fatal("p2's retry after p1's commit must acquire")
	}
	if st := tm.TryCommit(env2); st != stm.OK {
		t.Fatal("p2 commits")
	}
}

// TestGreedyLosesCrashResilience: a crashed transaction with an older
// stamp is never aborted by younger competitors — Greedy trades fault
// tolerance for fault-free starvation freedom (the worst crash point
// wedges the survivor).
func TestGreedyLosesCrashResilience(t *testing.T) {
	worst := stmtest.CrashSweep(greedyFactory, 500, 40, 43)
	if worst != 0 {
		t.Errorf("worst-case survivor commits = %d, want 0 (older crashed owner is never aborted)", worst)
	}
}

// TestGreedyTheorem1StillApplies: the impossibility adversary starves
// p1 against Greedy too — its weapon is invisible reads, which no
// contention manager can protect. Even a CM that guarantees every
// write conflict is eventually won cannot give local progress with
// opacity (Theorem 1).
func TestGreedyTheorem1StillApplies(t *testing.T) {
	res := adversary.NewSimDriver(greedyFactory, adversary.Config{Rounds: 8, Seed: 3}).Run(adversary.Strategy{Algorithm: 1})
	if res.P1Committed {
		t.Fatal("p1 committed against greedy DSTM")
	}
	if res.Rounds < 8 {
		t.Fatalf("p2 completed %d/8 rounds", res.Rounds)
	}
	if res.Stats.Commits[1] != 0 {
		t.Error("p1 must starve despite retaining the oldest timestamp")
	}
	res2 := adversary.NewSimDriver(greedyFactory, adversary.Config{Rounds: 8, Seed: 7}).Run(adversary.Strategy{Algorithm: 2})
	if res2.P1Committed || res2.Rounds < 8 {
		t.Errorf("algorithm 2: p1Committed=%v rounds=%d", res2.P1Committed, res2.Rounds)
	}
}
