package adversary_test

// The strategies on the native substrate: each run drives a live,
// recording session through the interactive-transaction driver
// (internal/adversary/live).

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/adversary/live"
	"livetm/internal/model"
	"livetm/internal/native"
	"livetm/internal/safety"
)

// testCfg keeps the native cells fast but flake-free: a small round
// budget, and a block timeout generous enough that a descheduled
// goroutine on a loaded -race runner is not misread as a parked one
// (an operation itself takes microseconds; only genuinely blocked
// mutex cells ever pay the full second).
func testCfg() adversary.Config {
	return adversary.Config{Rounds: 4, MaxSteps: 8000, BlockTimeout: time.Second}
}

// TestNativeDriverDichotomy drives every variant against every native
// algorithm: p1 never commits, and the only TM that blocks the
// adversary is the coarse mutex — on every other algorithm p2 commits
// the full round budget while p1 starves.
func TestNativeDriverDichotomy(t *testing.T) {
	cfg := testCfg()
	for _, info := range native.Algorithms() {
		for _, s := range adversary.Variants() {
			t.Run(info.Name+"/"+s.Name(), func(t *testing.T) {
				res, err := live.RunNative(info, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.P1Committed {
					t.Fatalf("p1 committed against %s: opacity or the strategy is broken\n%s", info.Name, res.History)
				}
				if res.Violation != nil {
					t.Fatalf("the adversary tricked %s into a safety violation: %v", info.Name, res.Violation)
				}
				if info.Name == "native-mutex" {
					if !res.Blocked {
						t.Error("the mutex TM must block the adversary")
					}
				} else {
					if res.Blocked {
						t.Error("a non-mutex TM must not block the adversary")
					}
					if res.Rounds < cfg.Rounds {
						t.Errorf("p2 completed only %d/%d rounds", res.Rounds, cfg.Rounds)
					}
				}
				if !res.LocalProgressViolated() {
					t.Error("run must witness a local-progress violation")
				}
				iv := res.Report.StarvationIntervals()
				if len(iv[1]) == 0 {
					t.Error("p1 must report a non-empty starvation interval")
				}
			})
		}
	}
}

// TestNativeHistoriesOpaque replays each unblocked cell's recorded
// history through the offline checker: the adversary must not trick
// the native TMs into safety violations, and the recorded history must
// be independently checkable (not just by the in-flight monitor).
func TestNativeHistoriesOpaque(t *testing.T) {
	cfg := testCfg()
	for _, info := range native.Algorithms() {
		if info.Name == "native-mutex" {
			continue // blocked: three events, nothing to check
		}
		for _, s := range adversary.Variants() {
			res, err := live.RunNative(info, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := safety.CheckOpacity(res.History)
			if err != nil {
				t.Fatalf("%s/%s: %v (history has %d events)", info.Name, s.Name(), err, len(res.History))
			}
			if !seg.Holds {
				t.Fatalf("%s/%s produced a non-opaque history: %s", info.Name, s.Name(), seg.Reason)
			}
		}
	}
}

// TestNativeParasiticNeverTriesCommit checks the Figure 12 shape on
// the native substrate: the parasitic p1 never invokes tryC.
func TestNativeParasiticNeverTriesCommit(t *testing.T) {
	res, err := live.RunNative(native.Algorithms()[1], adversary.Strategy{Algorithm: 2, Parasitic: true}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.History {
		if e.Proc == 1 && e.Kind == model.InvTryCommit {
			t.Fatal("parasitic p1 must never invoke tryC")
		}
	}
}

// TestNativeBiasTrajectory: with enough rounds the starvation feedback
// must engage and penalize the hot p2 (positive bias), never the
// starving p1.
func TestNativeBiasTrajectory(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 32
	res, err := live.RunNative(native.Algorithms()[1], adversary.Strategy{Algorithm: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BiasTrajectory) == 0 {
		t.Fatal("a 32-round run must cross the rebias cadence at least once")
	}
	for _, snap := range res.BiasTrajectory {
		if len(snap) != 2 {
			t.Fatalf("bias snapshot for 2 procs, got %v", snap)
		}
		if snap[0] > 0 {
			t.Errorf("starving p1 must never be penalized, got bias %d", snap[0])
		}
	}
	last := res.BiasTrajectory[len(res.BiasTrajectory)-1]
	if last[1] <= 0 {
		t.Errorf("hot p2 should end penalized, got bias %d", last[1])
	}
}

// TestMatrixCrossSubstrate runs the full matrix and checks the
// cross-substrate pairing: every native cell is followed by its
// simulated counterpart, the dichotomy holds in every cell, and the
// artifact round-trips.
func TestMatrixCrossSubstrate(t *testing.T) {
	cfg := adversary.Config{Rounds: 3, MaxSteps: 6000, BlockTimeout: time.Second}
	cells, err := live.RunMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(adversary.Variants()) * len(native.Algorithms()) * 2; len(cells) != want {
		t.Fatalf("want %d cells, got %d", want, len(cells))
	}
	for i := 0; i < len(cells); i += 2 {
		nat, sim := cells[i], cells[i+1]
		if nat.Substrate != "native" || sim.Substrate != "sim" {
			t.Fatalf("cell pair %d: substrates %s/%s", i, nat.Substrate, sim.Substrate)
		}
		if nat.Algorithm != sim.Algorithm || nat.Strategy != sim.Strategy {
			t.Fatalf("cell pair %d: mismatched (%s,%s) vs (%s,%s)", i, nat.Strategy, nat.Algorithm, sim.Strategy, sim.Algorithm)
		}
		for _, c := range []adversary.Cell{nat, sim} {
			if !c.Dichotomy() {
				t.Errorf("%s on %s: p1 committed", c.Strategy, c.Engine)
			}
			if len(c.Starvation["p1"].Intervals) == 0 {
				t.Errorf("%s on %s: empty p1 starvation", c.Strategy, c.Engine)
			}
		}
		// The blocking dichotomy branch must agree across substrates:
		// the mutex blocks on both, the rest starve p1 on both.
		if nat.Blocked != sim.Blocked {
			t.Errorf("%s on %s: native blocked=%v but sim blocked=%v",
				nat.Strategy, nat.Algorithm, nat.Blocked, sim.Blocked)
		}
	}
}

func TestStarvationArtifactRoundTrip(t *testing.T) {
	cfg := adversary.Config{Rounds: 2, MaxSteps: 4000, BlockTimeout: time.Second}
	cell, err := live.NativeCell(native.Algorithms()[1], adversary.Strategy{Algorithm: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/starvation.json"
	if err := adversary.WriteStarvationArtifact(path, cfg.Rounds, []adversary.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	art, err := loadStarvationArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != adversary.StarvationArtifactSchema {
		t.Errorf("schema %q", art.Schema)
	}
	if len(art.Cells) != 1 || art.Cells[0].Engine != cell.Engine || art.Cells[0].Rounds != cell.Rounds {
		t.Errorf("artifact cells did not round-trip: %+v", art.Cells)
	}
}

// loadStarvationArtifact reads an artifact back, verifying the schema.
func loadStarvationArtifact(path string) (adversary.StarvationArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return adversary.StarvationArtifact{}, err
	}
	var art adversary.StarvationArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return adversary.StarvationArtifact{}, fmt.Errorf("adversary: malformed starvation artifact %s: %w", path, err)
	}
	if art.Schema != adversary.StarvationArtifactSchema {
		return adversary.StarvationArtifact{}, fmt.Errorf("adversary: artifact %s has schema %q, want %q", path, art.Schema, adversary.StarvationArtifactSchema)
	}
	return art, nil
}
