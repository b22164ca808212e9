package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"livetm/internal/loadgen"
)

// TestCmdLoadgenInProcessLive: an in-process live scenario gets its
// liveness class from the closing monitor report, and its recorder
// retains nothing — past a full chunk of events per worker it still
// holds one ring per worker.
func TestCmdLoadgenInProcessLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.json")
	scenario := `{
  "name": "live-in-process",
  "seed": 5,
  "arrival": {"process": "poisson", "rate": 6000},
  "mix": [{"cell": "update/cold/disjoint", "weight": 1}],
  "phases": [{"name": "steady", "duration": "1s"}],
  "clients": 4,
  "session": {"engine": "native-tl2", "workers": 1, "vars": 16, "live": true}
}`
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, hash, err := loadgen.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	art, st, err := loadgenInProcess(context.Background(), sc, hash, "test")
	if err != nil {
		t.Fatal(err)
	}
	if art.LivenessClass == "" {
		t.Error("the in-process live run attached no liveness class")
	}
	// A committed transaction records at least four events (one
	// operation's invocation and response, then tryC and C), so more
	// than 1024 commits is more than one 4096-event chunk.
	if st.Commits <= 1024 {
		t.Fatalf("the worker committed %d transactions; the run is too short to fill a chunk", st.Commits)
	}
	if st.RecorderChunks > 1 {
		t.Errorf("recorder holds %d chunks for its one worker: the live run retained its history", st.RecorderChunks)
	}
}
