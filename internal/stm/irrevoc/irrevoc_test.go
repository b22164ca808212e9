package irrevoc

import (
	"testing"

	"livetm/internal/adversary"
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/stmtest"
	"livetm/internal/stm/tl2"
)

func factory(nProcs, nVars int) stm.TM {
	tm, err := Wrap(dstm.New(), 4)
	if err != nil {
		panic(err)
	}
	return tm
}

func TestWrapValidation(t *testing.T) {
	if _, err := Wrap(dstm.New(), 0); err == nil {
		t.Error("non-positive threshold must be rejected")
	}
	tm, err := Wrap(tl2.New(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Name() != "irrevocable(tl2)" {
		t.Errorf("name = %q", tm.Name())
	}
}

func TestConformance(t *testing.T) {
	stmtest.Conformance(t, factory)
}

// writerBody runs blind write-commit transactions and counts commits.
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

// metronomeRun drives two blind writers under strict alternation and
// returns their commit counts.
func metronomeRun(tm stm.TM, steps int) (c1, c2 int) {
	s := sim.New(&sim.RoundRobin{})
	defer s.Close()
	_ = s.Spawn(1, writerBody(tm, &c1))
	_ = s.Spawn(2, writerBody(tm, &c2))
	s.Run(steps)
	return c1, c2
}

// TestStarvationFreedomUnderMetronome: under strict alternation raw
// DSTM (AbortOther) starves one blind writer forever; the wrapper's
// token rescues it — the paper's circumvention (b) in action for
// cooperative applications.
func TestStarvationFreedomUnderMetronome(t *testing.T) {
	r1, r2 := metronomeRun(dstm.New(), 4000)
	if r1 != 0 && r2 != 0 {
		t.Fatalf("precondition: raw dstm should starve one metronome writer (got %d, %d)", r1, r2)
	}
	if r1+r2 == 0 {
		t.Fatalf("precondition: raw dstm should let one writer commit")
	}
	w1, w2 := metronomeRun(factory(2, 1), 4000)
	if w1 == 0 || w2 == 0 {
		t.Fatalf("wrapper must rescue both writers, got %d, %d", w1, w2)
	}
}

// TestFaultFreeAllProgress: every process commits with the wrapper
// under fair scheduling too.
func TestFaultFreeAllProgress(t *testing.T) {
	counts := stmtest.FaultFree(factory, 3, 6000, 47)
	for p, c := range counts {
		if c == 0 {
			t.Errorf("process %d never committed under the wrapper", p)
		}
	}
}

// TestParasiteCapturesToken: a parasitic writer accumulates aborts,
// earns the token, and never releases it — the whole system is
// silenced. The circumvention presumes the TM controls the
// application's commits; a parasite is exactly an application it does
// not control, so Theorem 1 stands.
func TestParasiteCapturesToken(t *testing.T) {
	if got := stmtest.ParasiticBiased(factory, 4000, 2); got != 0 {
		t.Errorf("survivor commits = %d, want 0 (the parasite holds the token forever)", got)
	}
	if got := stmtest.Parasitic(factory, 4000, 47); got != 0 {
		t.Errorf("fair schedule: survivor commits = %d, want 0", got)
	}
}

// TestCrashedTokenHolderBlocksAll constructs the fatal crash window
// directly: drive w1 to the token via metronome starvation, crash it
// while it holds the token, and watch w2 never commit again.
func TestCrashedTokenHolderBlocksAll(t *testing.T) {
	tm, err := Wrap(dstm.New(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(&sim.RoundRobin{})
	defer s.Close()
	var c1, c2 int
	_ = s.Spawn(1, writerBody(tm, &c1))
	_ = s.Spawn(2, writerBody(tm, &c2))
	// Run until some process holds the token, then crash the holder.
	for i := 0; i < 20000 && tm.holder == 0; i++ {
		s.Step()
	}
	holder := tm.holder
	if holder == 0 {
		t.Fatal("no process earned the token; the metronome should starve one writer")
	}
	s.Crash(holder)
	var survivor *int
	if holder == 1 {
		survivor = &c2
	} else {
		survivor = &c1
	}
	before := *survivor
	s.Run(4000)
	if *survivor != before {
		t.Errorf("survivor committed %d times after the token holder crashed, want 0", *survivor-before)
	}
}

// TestAdversaryStillWins: the Theorem 1 adversary controls the
// application and starves p1 even against the wrapper.
func TestAdversaryStillWins(t *testing.T) {
	res := adversary.NewSimDriver(factory, adversary.Config{Rounds: 8, MaxSteps: 60000, Seed: 3}).Run(adversary.Strategy{Algorithm: 1})
	if res.P1Committed {
		t.Fatal("p1 committed: the wrapper must not breach Theorem 1")
	}
	if res.Stats.Commits[1] != 0 {
		t.Error("p1 must have no commits")
	}
}

// TestTokenGrantAndRelease walks the token life cycle directly: p1
// earns the token through read-validation aborts, silences p2 and p3,
// commits, and releases.
func TestTokenGrantAndRelease(t *testing.T) {
	tm, err := Wrap(dstm.New(), 2)
	if err != nil {
		t.Fatal(err)
	}
	env1, env2, env3 := sim.Background(1), sim.Background(2), sim.Background(3)
	// Each round: p1 reads x0, p2 commits a write to x0, p1's write
	// fails validation — one clean abort for p1 per round.
	for i := 0; i < 2; i++ {
		if _, st := tm.Read(env1, 0); st != stm.OK {
			t.Fatalf("round %d: p1 read", i)
		}
		if st := tm.Write(env2, 0, model.Value(i+1)); st != stm.OK {
			t.Fatalf("round %d: p2 write", i)
		}
		if st := tm.TryCommit(env2); st != stm.OK {
			t.Fatalf("round %d: p2 commit", i)
		}
		if st := tm.Write(env1, 0, 9); st != stm.Aborted {
			t.Fatalf("round %d: p1's stale write must abort", i)
		}
	}
	// p1 reached the threshold: everyone else is silenced.
	if st := tm.Write(env3, 1, 9); st != stm.Aborted {
		t.Fatal("p3 must be silenced while p1 is owed the token")
	}
	if st := tm.Write(env2, 0, 5); st != stm.Aborted {
		t.Fatal("p2 must be silenced too")
	}
	// The token holder runs unopposed.
	if st := tm.Write(env1, 0, 7); st != stm.OK {
		t.Fatal("token holder's write must succeed")
	}
	if st := tm.TryCommit(env1); st != stm.OK {
		t.Fatal("token holder must commit")
	}
	// Token released: p3 proceeds normally.
	if st := tm.Write(env3, 1, 9); st != stm.OK {
		t.Fatal("after release p3 must proceed")
	}
	if st := tm.TryCommit(env3); st != stm.OK {
		t.Fatal("p3 commits")
	}
	v, st := tm.Read(env2, 0)
	if st != stm.OK || v != 7 {
		t.Fatalf("x0 = %d,%v; want the token holder's 7", v, st)
	}
}
