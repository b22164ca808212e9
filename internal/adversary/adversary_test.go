package adversary

import (
	"testing"

	"livetm/internal/model"
	"livetm/internal/safety"
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/fgptm"
	"livetm/internal/stm/glock"
	"livetm/internal/stm/ostm"
	"livetm/internal/stm/tiny"
	"livetm/internal/stm/tl2"
)

// abortingTMs are the opaque TMs that resolve conflicts by aborting
// (the adversary's Step 2 loop terminates against them).
func abortingTMs() map[string]stm.Factory {
	return map[string]stm.Factory{
		"dstm": func(n, v int) stm.TM { return dstm.New() },
		"tl2":  func(n, v int) stm.TM { return tl2.New() },
		"tiny": func(n, v int) stm.TM { return tiny.New() },
		"ostm": func(n, v int) stm.TM { return ostm.New() },
		"fgp": func(n, v int) stm.TM {
			tm, err := fgptm.New(n, v)
			if err != nil {
				panic(err)
			}
			return tm
		},
	}
}

func glockFactory(n, v int) stm.TM { return glock.New() }

// TestTheorem1Algorithm1 runs Algorithm 1 against every aborting
// opaque TM: p2 commits round after round while p1 never commits —
// the sampled run witnesses the loss of local progress.
func TestTheorem1Algorithm1(t *testing.T) {
	for name, factory := range abortingTMs() {
		t.Run(name, func(t *testing.T) {
			res := NewSimDriver(factory, Config{Rounds: 8, Seed: 3}).Run(Strategy{Algorithm: 1})
			if res.P1Committed {
				t.Fatalf("p1 committed against %s: opacity or the strategy is broken\n%s", name, res.History)
			}
			if res.Rounds < 8 {
				t.Fatalf("p2 completed only %d/8 rounds against %s", res.Rounds, name)
			}
			if res.Stats.Commits[2] < 8 {
				t.Errorf("history shows %d p2 commits, want ≥ 8", res.Stats.Commits[2])
			}
			if res.Stats.Commits[1] != 0 {
				t.Errorf("history shows %d p1 commits, want 0", res.Stats.Commits[1])
			}
			// Figure 10: p1 is correct — it receives abort events over
			// and over (here: at least once per completed round batch).
			if res.Stats.Aborts[1] == 0 {
				t.Errorf("p1 received no aborts against %s; it should be starving, not blocked", name)
			}
			if !res.LocalProgressViolated() {
				t.Error("run must witness a local-progress violation")
			}
		})
	}
}

// TestTheorem1Algorithm1Blocking: against the global-lock TM the
// adversary cannot even complete a round — p1's transaction holds the
// lock and p2 blocks forever. Local progress fails by blocking rather
// than by aborting.
func TestTheorem1Algorithm1Blocking(t *testing.T) {
	res := NewSimDriver(glockFactory, Config{Rounds: 3, MaxSteps: 3000, Seed: 3}).Run(Strategy{Algorithm: 1})
	if res.P1Committed {
		t.Fatal("p1 cannot commit: it is parked waiting for p2's commit that never comes")
	}
	if res.Rounds != 0 {
		t.Fatalf("p2 completed %d rounds; the global lock should block it", res.Rounds)
	}
	// p2's read invocation is pending forever.
	if !res.Stats.PendingInv[2] {
		t.Error("p2 should be blocked inside its read")
	}
}

// TestFig9CrashVariant: p1 crashes after its read; p2, now running
// alone, keeps committing against crash-resilient TMs.
func TestFig9CrashVariant(t *testing.T) {
	for name, factory := range abortingTMs() {
		t.Run(name, func(t *testing.T) {
			res := NewSimDriver(factory, Config{Rounds: 6, Seed: 5}).Run(Strategy{Algorithm: 1, Crash: true})
			if res.P1Committed {
				t.Fatal("crashed p1 cannot commit")
			}
			if res.Rounds < 6 {
				t.Fatalf("p2 completed %d/6 rounds against %s after p1's crash", res.Rounds, name)
			}
			if res.Stats.Commits[1] != 0 {
				t.Error("crashed p1 must not commit")
			}
		})
	}
}

// TestFig9CrashVariantGlock: the crashed p1 holds the global lock, so
// p2 blocks — the blocking TM fails the crash case differently.
func TestFig9CrashVariantGlock(t *testing.T) {
	res := NewSimDriver(glockFactory, Config{Rounds: 3, MaxSteps: 3000, Seed: 5}).Run(Strategy{Algorithm: 1, Crash: true})
	if res.Rounds != 0 {
		t.Fatalf("p2 completed %d rounds; the crashed lock holder should block it", res.Rounds)
	}
}

// TestTheorem1Algorithm2 mirrors Algorithm 1 for the crash-free case.
func TestTheorem1Algorithm2(t *testing.T) {
	for name, factory := range abortingTMs() {
		t.Run(name, func(t *testing.T) {
			res := NewSimDriver(factory, Config{Rounds: 8, Seed: 7}).Run(Strategy{Algorithm: 2})
			if res.P1Committed {
				t.Fatalf("p1 committed against %s\n%s", name, res.History)
			}
			if res.Rounds < 8 {
				t.Fatalf("p2 completed only %d/8 rounds against %s", res.Rounds, name)
			}
			if res.Stats.Commits[1] != 0 {
				t.Error("p1 must never commit")
			}
		})
	}
}

// TestFig12ParasiticVariant: p1 keeps reading without ever attempting
// to commit. TMs with invisible or version-validated reads let p2
// commit forever.
func TestFig12ParasiticVariant(t *testing.T) {
	for name, factory := range abortingTMs() {
		t.Run(name, func(t *testing.T) {
			res := NewSimDriver(factory, Config{Rounds: 6, Seed: 9}).Run(Strategy{Algorithm: 2, Parasitic: true})
			if res.P1Committed {
				t.Fatal("parasitic p1 never even tries to commit")
			}
			if res.Rounds < 6 {
				t.Fatalf("p2 completed %d/6 rounds against %s with parasitic p1", res.Rounds, name)
			}
			// The parasitic p1 invokes no tryC; it may still receive
			// aborts from the TM (which is fine — the histories of
			// Figure 12 show A events for p2's benefit, not p1's).
			for _, e := range res.History {
				if e.Proc == 1 && e.Kind == model.InvTryCommit {
					t.Fatal("parasitic p1 must never invoke tryC")
				}
			}
		})
	}
}

// TestFig12ParasiticVariantGlock: the parasitic p1 holds the global
// lock forever.
func TestFig12ParasiticVariantGlock(t *testing.T) {
	res := NewSimDriver(glockFactory, Config{Rounds: 3, MaxSteps: 3000, Seed: 9}).Run(Strategy{Algorithm: 2, Parasitic: true})
	if res.Rounds != 0 {
		t.Fatalf("p2 completed %d rounds; the parasitic lock holder should block it", res.Rounds)
	}
}

// TestAdversaryHistoriesOpaque: the adversary must not trick the TMs
// into safety violations. The full recorded history (hundreds of
// events, past the single search's 64-transaction cap) is verified
// segment by segment; the adversary's round structure provides the
// quiescent cuts.
func TestAdversaryHistoriesOpaque(t *testing.T) {
	for name, factory := range abortingTMs() {
		t.Run(name, func(t *testing.T) {
			for _, alg := range []int{1, 2} {
				res := NewSimDriver(factory, Config{Rounds: 6, Seed: 11}).Run(Strategy{Algorithm: alg})
				seg, err := safety.CheckOpacity(res.History)
				if err != nil {
					t.Fatalf("alg%d: %v (history has %d events)", alg, err, len(res.History))
				}
				if !seg.Holds {
					t.Fatalf("alg%d produced a non-opaque history against %s: %s", alg, name, seg.Reason)
				}
			}
		})
	}
}

// TestLemma1NProcesses: for n = 3..6, n-1 holders plus one committer;
// at most one process makes progress while at least two are correct.
func TestLemma1NProcesses(t *testing.T) {
	for n := 3; n <= 6; n++ {
		for name, factory := range abortingTMs() {
			res := Lemma1(factory, n, Config{Rounds: 5, Seed: uint64(n)})
			if res.P1Committed {
				t.Errorf("n=%d %s: a holder committed after p_n's commits; opacity should forbid the stale update", n, name)
			}
			if res.Rounds < 5 {
				t.Errorf("n=%d %s: p_n completed only %d/5 rounds", n, name, res.Rounds)
			}
			progressing := 0
			for _, c := range res.Stats.Commits {
				if c > 0 {
					progressing++
				}
			}
			if progressing > 1 {
				t.Errorf("n=%d %s: %d processes progressed, want at most 1", n, name, progressing)
			}
		}
	}
}

// TestConfigDefaults exercises the zero-value configuration.
func TestConfigDefaults(t *testing.T) {
	res := NewSimDriver(func(n, v int) stm.TM { return dstm.New() }, Config{}).Run(Strategy{Algorithm: 1})
	if res.Rounds == 0 {
		t.Error("default config must complete rounds")
	}
	if res.Steps == 0 {
		t.Error("steps must be counted")
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[string]bool{"alg1": true, "alg1-crash": true, "alg2": true, "alg2-parasitic": true}
	vs := Variants()
	if len(vs) != 4 {
		t.Fatalf("want 4 variants, got %d", len(vs))
	}
	for _, s := range vs {
		if !want[s.Name()] {
			t.Errorf("unexpected variant %q", s.Name())
		}
		if err := s.validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
	for _, bad := range []Strategy{{}, {Algorithm: 3}, {Algorithm: 2, Crash: true}, {Algorithm: 1, Parasitic: true}} {
		if err := bad.validate(); err == nil {
			t.Errorf("strategy %+v must not validate", bad)
		}
	}
}
