package engine

import (
	"context"
	"runtime"
	"testing"

	"livetm/internal/alloctest"
)

// TestAllocBudgetPerLiveCommit pins what one committed transaction
// costs a session end to end — Exec's waiter, the lane, the worker's
// gate, the retry loop, and on a live session the recorder, the
// stream, the pump, the monitor and the checker behind it — once all of
// them have their storage. The body is allocated once, so whatever is
// counted is the session's. Mallocs are counted process-wide because
// half of the path runs on the worker and pump goroutines.
//
// An uncancellable ExecOn to an idle worker runs on its caller; a
// cancellable one queues for the worker. The queued rows hold the
// hand-off path to the same budget.
func TestAllocBudgetPerLiveCommit(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	for _, tc := range []struct {
		name   string
		cfg    SessionConfig
		queued bool
	}{
		{"plain", SessionConfig{Workers: 2, Vars: 8}, false},
		{"plain, queued", SessionConfig{Workers: 2, Vars: 8}, true},
		{"live", SessionConfig{Workers: 2, Vars: 8, Live: true}, false},
		{"live, queued", SessionConfig{Workers: 2, Vars: 8, Live: true}, true},
		// Recorded, not live: the retained history's chunks are one
		// allocation per 4096 events.
		{"recorded", SessionConfig{Workers: 2, Vars: 8, Record: true}, false},
		{"recorded, queued", SessionConfig{Workers: 2, Vars: 8, Record: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestSession(t, "native-tl2", tc.cfg)
			ctx, body := context.Background(), counterSessionBody(0)
			if tc.queued {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			commit := func(n int) {
				for i := 0; i < n; i++ {
					if err := s.ExecOn(ctx, 0, body); err != nil {
						t.Fatal(err)
					}
				}
			}
			commit(4000) // pools, lanes, the monitor's window and reading
			const n = 20000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			commit(n)
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%.3f allocs per commit", got)
			// Below 1, so that a single site allocating per commit again
			// fails; above 0 for the recorded rows' retained chunks.
			if got > 0.5 {
				t.Errorf("%.3f allocs per commit, budget 0.5", got)
			}
			if rep, err := s.Close(); err != nil || (tc.cfg.Live && !(rep.Checked && rep.Opacity.Holds)) {
				t.Fatalf("close: %v, report %+v", err, rep)
			}
		})
	}
}
