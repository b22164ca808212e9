package live

import (
	"testing"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/native"
)

// TestDriverParityAcrossSubstrates runs the one interactive driver on
// every native algorithm × strategy variant twice: on a session in
// process and over the wire against the same kind of session. Both
// paths must take the same dichotomy branch — only the mutex blocks —
// p1 must never commit, and an unblocked run must complete the full
// round budget.
func TestDriverParityAcrossSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("network adversary runs are round-trip heavy")
	}
	cfg := adversary.Config{Rounds: 4, BlockTimeout: 2 * time.Second}
	for _, info := range native.Algorithms() {
		for _, s := range adversary.Variants() {
			t.Run(info.Name+"/"+s.Name(), func(t *testing.T) {
				t.Parallel()
				res, err := RunNative(info, s, cfg)
				if err != nil {
					t.Fatalf("RunNative: %v", err)
				}
				_, c := startNetTM(t, info.Name)
				wire, err := RunNetwork(c, s, cfg)
				if err != nil {
					t.Fatalf("RunNetwork: %v", err)
				}
				for _, run := range []struct {
					path string
					o    adversary.Outcome
				}{{"in process", res.Outcome}, {"over the wire", wire}} {
					if run.o.P1Committed {
						t.Errorf("%s: p1 committed: %+v", run.path, run.o)
					}
					if want := info.Name == "native-mutex"; run.o.Blocked != want {
						t.Errorf("%s: blocked = %v, want %v", run.path, run.o.Blocked, want)
					}
					if !run.o.Blocked && run.o.Rounds != cfg.Rounds {
						t.Errorf("%s: p2 committed %d rounds, want %d", run.path, run.o.Rounds, cfg.Rounds)
					}
				}
			})
		}
	}
}
