// Package alloctest holds what the per-layer allocation-budget tests
// share. Only tests import it.
package alloctest

import (
	"sync"
	"testing"
)

// NeedSteadyPools skips the test when sync.Pool is not keeping what it
// is given. Most steady-state allocation budgets in this repository
// rest on pooled scratch (the TMs' attempts, the session's waiters, the
// wire codec's buffers), and the race detector makes sync.Pool drop a
// quarter of its items at random: there is no steady state to pin
// there, only noise.
func NeedSteadyPools(t testing.TB) {
	t.Helper()
	probe := sync.Pool{New: func() any { return new(int) }}
	if testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ { // AllocsPerRun rounds down: a run must allocate at least once to show
			probe.Put(probe.Get())
		}
	}) > 0 {
		t.Skip("sync.Pool is not keeping what it is given (race detector)")
	}
}
