package adversary

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"livetm/internal/model"
	"livetm/internal/native"
	"livetm/internal/safety"
)

// testCfg keeps the native cells fast but flake-free: a small round
// budget, and a block timeout generous enough that a descheduled
// goroutine on a loaded -race runner is not misread as a parked one
// (the handoffs themselves take microseconds; only genuinely blocked
// mutex cells ever pay the full second).
func testCfg() Config {
	return Config{Rounds: 4, MaxSteps: 8000, BlockTimeout: time.Second}
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

// TestNativeDriverDichotomy drives every variant against every native
// algorithm: p1 never commits, and the only TM that blocks the
// adversary is the coarse mutex — on every other algorithm p2 commits
// the full round budget while p1 starves.
func TestNativeDriverDichotomy(t *testing.T) {
	cfg := testCfg()
	for _, info := range native.Algorithms() {
		for _, s := range Variants() {
			t.Run(info.Name+"/"+s.Name(), func(t *testing.T) {
				res, err := RunNative(info, s, cfg)
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
		for _, s := range Variants() {
			res, err := RunNative(info, s, cfg)
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
	res, err := RunNative(native.Algorithms()[1], Strategy{Algorithm: 2, Parasitic: true}, testCfg())
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
	cfg.Rounds = 12
	res, err := RunNative(native.Algorithms()[1], Strategy{Algorithm: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BiasTrajectory) == 0 {
		t.Fatal("a 12-round run must cross the rebias cadence at least once")
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
	cfg := Config{Rounds: 3, MaxSteps: 6000, BlockTimeout: time.Second}
	cells, err := RunMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Variants()) * len(native.Algorithms()) * 2; len(cells) != want {
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
		for _, c := range []Cell{nat, sim} {
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
	cfg := Config{Rounds: 2, MaxSteps: 4000, BlockTimeout: time.Second}
	cell, err := NativeCell(native.Algorithms()[1], Strategy{Algorithm: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/starvation.json"
	if err := WriteStarvationArtifact(path, cfg.Rounds, []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	art, err := LoadStarvationArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != StarvationArtifactSchema {
		t.Errorf("schema %q", art.Schema)
	}
	if len(art.Cells) != 1 || art.Cells[0].Engine != cell.Engine || art.Cells[0].Rounds != cell.Rounds {
		t.Errorf("artifact cells did not round-trip: %+v", art.Cells)
	}
}

// LoadStarvationArtifact reads an artifact back, verifying the schema.
func LoadStarvationArtifact(path string) (StarvationArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return StarvationArtifact{}, err
	}
	var art StarvationArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return StarvationArtifact{}, fmt.Errorf("adversary: malformed starvation artifact %s: %w", path, err)
	}
	if art.Schema != StarvationArtifactSchema {
		return StarvationArtifact{}, fmt.Errorf("adversary: artifact %s has schema %q, want %q", path, art.Schema, StarvationArtifactSchema)
	}
	return art, nil
}
