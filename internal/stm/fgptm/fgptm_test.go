package fgptm

import (
	"testing"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/stmtest"
)

func factory(nProcs, nVars int) stm.TM {
	tm, err := New(nProcs, nVars)
	if err != nil {
		panic(err) // test-only factory; sizes are always valid here
	}
	return tm
}

func TestConformance(t *testing.T) {
	stmtest.Conformance(t, factory)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("invalid sizes must be rejected")
	}
}

func TestFaultFreeProgress(t *testing.T) {
	counts := stmtest.FaultFree(factory, 3, 8000, 61)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Error("no commits at all fault-free")
	}
	// Fgp promises global progress, not local: under a fair random
	// schedule all three typically commit, but the guarantee we assert
	// is that commits keep happening.
	if total < 100 {
		t.Errorf("total commits = %d; Fgp should commit steadily", total)
	}
}

// TestCrashNeverBlocks: Theorem 3's liveness in operational form — no
// crash point can stop the survivor, because the automaton holds
// nothing on behalf of a process.
func TestCrashNeverBlocks(t *testing.T) {
	worst := stmtest.CrashSweep(factory, 600, 60, 29)
	if worst == 0 {
		t.Error("some crash point blocked the survivor; Fgp must ensure global progress")
	}
}

// TestParasiticHarmless: a parasitic writer only moves its own row of
// Val; the correct process keeps committing.
func TestParasiticHarmless(t *testing.T) {
	if got := stmtest.Parasitic(factory, 4000, 29); got == 0 {
		t.Error("a parasitic writer must not block Fgp")
	}
}

// TestNoHarnessErrors: the engine never reports invariant violations
// under the standard scenarios.
func TestNoHarnessErrors(t *testing.T) {
	tm := factory(2, 1).(*TM)
	s := sim.New(sim.NewSeeded(3))
	defer s.Close()
	var c1, c2 int
	_ = s.Spawn(1, stmtest.CounterBody(tm, 0, &c1))
	_ = s.Spawn(2, stmtest.CounterBody(tm, 0, &c2))
	s.Run(3000)
	if err := tm.Err(); err != nil {
		t.Fatalf("engine invariant violation: %v", err)
	}
	if tm.History() == nil {
		t.Error("engine history must be recorded")
	}
}

// History returns the automaton-level history recorded by the engine.
func (t *TM) History() model.History { return t.eng.History() }
