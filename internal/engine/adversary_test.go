package engine_test

// The cross-substrate adversary conformance suite: the environment
// strategies of the impossibility proofs (internal/adversary) driven
// against every native algorithm behind this package's registry. Each
// (strategy-variant × algorithm) cell must witness the paper's
// no-local-progress dichotomy — p1 never commits, or nobody does — and
// must emit non-empty starvation intervals for p1, tying the proofs'
// infinite histories to finite native runs.

import (
	"testing"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/adversary/live"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/native"
	"livetm/internal/safety"
)

// adversaryCfg keeps the conformance cells fast enough for the CI race
// step while still sampling several starvation rounds.
func adversaryCfg() adversary.Config {
	return adversary.Config{Rounds: 3, MaxSteps: 6000, BlockTimeout: time.Second}
}

// TestAdversaryConformance asserts the dichotomy on every
// (strategy-variant × native algorithm) cell, cross-checking that each
// algorithm is reachable through the engine registry.
func TestAdversaryConformance(t *testing.T) {
	cfg := adversaryCfg()
	for _, info := range native.Algorithms() {
		if _, ok := engine.Lookup(info.Name); !ok {
			t.Fatalf("%s is not in the engine registry", info.Name)
		}
		for _, s := range adversary.Variants() {
			t.Run(info.Name+"/"+s.Name(), func(t *testing.T) {
				cell, err := live.NativeCell(info, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The dichotomy: p1 never commits...
				if !cell.Dichotomy() {
					t.Fatalf("p1 committed against %s under %s", info.Name, s.Name())
				}
				// ...and when the run was not blocked, p2 commits round
				// after round — the starving branch.
				if !cell.Blocked && cell.Rounds < cfg.Rounds {
					t.Errorf("unblocked cell completed only %d/%d rounds", cell.Rounds, cfg.Rounds)
				}
				if cell.Blocked && cell.Rounds != 0 {
					t.Errorf("the blocking branch must block from the first round, got %d", cell.Rounds)
				}
				iv := cell.Starvation["p1"]
				if len(iv.Intervals) == 0 || iv.Max == 0 {
					t.Errorf("p1 must emit non-empty starvation intervals, got %+v", iv)
				}
			})
		}
	}
}

// TestAdversaryCrossSubstrateComparison runs the full matrix and
// checks that the two substrates agree on the shape of every cell: the
// same dichotomy branch, and on the starving branch the same order of
// starvation (p1's interval spans the whole run on both).
func TestAdversaryCrossSubstrateComparison(t *testing.T) {
	cells, err := live.RunMatrix(adversaryCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cells); i += 2 {
		nat, sim := cells[i], cells[i+1]
		if nat.Blocked != sim.Blocked {
			t.Errorf("%s on %s: substrates disagree on blocking (native=%v sim=%v)",
				nat.Strategy, nat.Algorithm, nat.Blocked, sim.Blocked)
		}
		if nat.Blocked {
			continue
		}
		for _, c := range []adversary.Cell{nat, sim} {
			p1 := c.Starvation["p1"]
			if p1.Open == 0 || p1.Open != p1.Max {
				t.Errorf("%s on %s: a starving p1's open gap must be its longest interval, got %+v",
					c.Strategy, c.Engine, p1)
			}
		}
	}
}

// committedP1Variant builds the would-be terminating history of
// Figures 8 and 11 from a recorded adversary run: p1's real
// continuation after its last successful read is dropped and replaced
// by the write and commit the strategy was angling for. The
// construction requires at least one p2 commit after the read — the
// stale window — which every unblocked cell provides.
func committedP1Variant(h model.History) (model.History, bool) {
	last := -1
	var val model.Value
	for i, e := range h {
		if e.Proc == 1 && e.Kind == model.RespValue {
			last, val = i, e.Val
		}
	}
	if last < 0 {
		return nil, false
	}
	out := append(model.History{}, h[:last+1]...)
	staleWindow := false
	for _, e := range h[last+1:] {
		if e.Proc == 1 {
			continue // drop p1's real (aborting) continuation
		}
		if e.Proc == 2 && e.Kind == model.RespCommit {
			staleWindow = true
		}
		out = append(out, e)
	}
	if !staleWindow {
		return nil, false
	}
	out = append(out,
		model.Write(1, adversary.X, val+1), model.OK(1),
		model.TryCommit(1), model.Commit(1))
	return out, true
}

// TestAdversaryCommittedP1NotOpaque is the property behind the
// dichotomy: for every native algorithm and every strategy variant,
// the history the adversary recorded would not be opaque had p1
// committed. A TM that let p1 commit would therefore have violated
// safety — which is exactly why every correct TM starves it.
func TestAdversaryCommittedP1NotOpaque(t *testing.T) {
	cfg := adversaryCfg()
	for _, info := range native.Algorithms() {
		if info.Name == "native-mutex" {
			// The mutex blocks the adversary: p1's read window never
			// sees a p2 commit, so the Figure 8 history does not arise —
			// that is the dichotomy's other branch.
			continue
		}
		for _, s := range adversary.Variants() {
			t.Run(info.Name+"/"+s.Name(), func(t *testing.T) {
				res, err := live.RunNative(info, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				flipped, ok := committedP1Variant(res.History)
				if !ok {
					t.Fatalf("no stale read window in the recorded history (%d events)", len(res.History))
				}
				if err := model.CheckWellFormed(flipped); err != nil {
					t.Fatalf("flipped history malformed: %v", err)
				}
				seg, err := safety.CheckOpacity(flipped)
				if err != nil {
					t.Fatalf("checking flipped history: %v", err)
				}
				if seg.Holds {
					t.Fatalf("a committed p1 must not be opaque (Figures 8/11), but the checker accepted:\n%s", flipped)
				}
			})
		}
	}
}
