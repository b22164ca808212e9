package stm_test

import (
	"runtime"
	"testing"
	"time"

	"livetm/internal/core"
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// TestSparseIdsAndLongTransactions holds every simulated TM's state to
// the shared layer's promises. fgp is not a row: its automaton is sized
// by the system's variable count, so it takes neither a sparse id nor
// 4 096 variables.
//
//   - An id at model.MaxTVar works beside id 0: a transaction writes
//     both, reads them back and commits, and a later transaction reads
//     them, without a table sized to the id.
//   - The cost per operation of a transaction that writes n variables,
//     reads them back and commits stays flat from n = 64 to n = 4 096,
//     so no set's membership check is a linear scan. Each size runs on a
//     TM whose tables a first transaction has grown, times 4 096/n
//     transactions per sample so that both sizes time the same number of
//     operations, and takes the fastest of several samples.
func TestSparseIdsAndLongTransactions(t *testing.T) {
	for _, nf := range core.Registry(true) {
		if nf.Name == "fgp" {
			continue
		}
		t.Run(nf.Name, func(t *testing.T) {
			sparseIds(t, nf.Factory(2, 1))
			const ops = 4096
			perOp := func(n int) time.Duration {
				tm, env := nf.Factory(1, n), sim.Background(1)
				txn := func() {
					for x := range n {
						if st := tm.Write(env, model.TVar(x), 1); st != stm.OK {
							t.Fatalf("n=%d: write x%d: %v", n, x, st)
						}
					}
					for x := range n {
						if v, st := tm.Read(env, model.TVar(x)); st != stm.OK || v != 1 {
							t.Fatalf("n=%d: read own write x%d = %d,%v", n, x, v, st)
						}
					}
					if st := tm.TryCommit(env); st != stm.OK {
						t.Fatalf("n=%d: commit: %v", n, st)
					}
				}
				txn()
				best := time.Duration(1 << 62)
				for range 5 {
					start := time.Now()
					for range ops / n {
						txn()
					}
					best = min(best, time.Since(start)/time.Duration(ops/n*(2*n+1)))
				}
				return best
			}
			small, large := perOp(64), perOp(4096)
			t.Logf("per operation: %v at 64 writes, %v at 4 096", small, large)
			if large > 4*small {
				t.Errorf("per-operation cost grew %.1fx from 64 to 4 096 writes", float64(large)/float64(small))
			}
		})
	}
}

func sparseIds(t *testing.T, tm stm.TM) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env := sim.Background(1)
	for _, x := range []model.TVar{0, model.MaxTVar} {
		if st := tm.Write(env, x, model.Value(x)+1); st != stm.OK {
			t.Fatalf("write x%d: %v", x, st)
		}
	}
	for _, x := range []model.TVar{0, model.MaxTVar} {
		if v, st := tm.Read(env, x); st != stm.OK || v != model.Value(x)+1 {
			t.Fatalf("read own write x%d = %d,%v", x, v, st)
		}
	}
	if st := tm.TryCommit(env); st != stm.OK {
		t.Fatal("commit")
	}
	env2 := sim.Background(2)
	for _, x := range []model.TVar{model.MaxTVar, 0} {
		if v, st := tm.Read(env2, x); st != stm.OK || v != model.Value(x)+1 {
			t.Fatalf("later read x%d = %d,%v", x, v, st)
		}
	}
	if st := tm.TryCommit(env2); st != stm.OK {
		t.Fatal("read-only commit")
	}
	runtime.ReadMemStats(&after)
	n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("sparse ids: %d allocations, %d bytes", n, b)
	if n > 32 || b > 4096 {
		t.Errorf("sparse ids: %d allocations, %d bytes: a table grew towards the id", n, b)
	}
}
