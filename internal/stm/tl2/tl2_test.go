package tl2

import (
	"runtime"
	"testing"
	"time"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/stmtest"
)

func factory(nProcs, nVars int) stm.TM { return New() }

func TestConformance(t *testing.T) {
	stmtest.Conformance(t, factory)
}

func TestFaultFreeProgress(t *testing.T) {
	counts := stmtest.FaultFree(factory, 3, 6000, 31)
	for p, c := range counts {
		if c == 0 {
			t.Errorf("process %d never committed fault-free", p)
		}
	}
}

// TestCrashMidCommitBlocks: TL2 holds locks only inside TryCommit, but
// a crash in that window leaves them held forever — TL2 ensures solo
// progress only in crash-free systems (§3.2.3).
func TestCrashMidCommitBlocks(t *testing.T) {
	worst := stmtest.CrashSweep(factory, 600, 60, 13)
	if worst != 0 {
		t.Errorf("worst-case survivor commits = %d, want 0 (crash inside the commit window)", worst)
	}
}

// TestParasiticHarmless: deferred updates mean a parasitic process
// holds nothing; the correct process keeps committing. This is the
// paper's distinction between TL2 and encounter-time TMs.
func TestParasiticHarmless(t *testing.T) {
	if got := stmtest.Parasitic(factory, 4000, 13); got == 0 {
		t.Error("a parasitic writer must not block TL2")
	}
}

// TestParasiticReaderHarmless mirrors the writer case.
func TestParasiticReaderHarmless(t *testing.T) {
	tm := New()
	s := sim.New(sim.NewSeeded(8))
	defer s.Close()
	var c2 int
	_ = s.Spawn(1, stmtest.ParasiticReaderBody(tm, 0))
	_ = s.Spawn(2, stmtest.CounterBody(tm, 0, &c2))
	s.Run(4000)
	if c2 == 0 {
		t.Error("a parasitic reader must not block TL2")
	}
}

// TestCrashOutsideCommitHarmless: crashing between operations (not
// inside TryCommit) leaves no locks held; TL2 recovers. This pins down
// *why* the crash sweep finds zero: only the commit window is fatal.
func TestCrashOutsideCommitHarmless(t *testing.T) {
	tm := New()
	s := sim.New(&sim.RoundRobin{})
	defer s.Close()
	var c2 int
	_ = s.Spawn(1, func(env *sim.Env) {
		tm.Write(env, 0, 7) // buffered only
		for {
			env.Yield()
		}
	})
	_ = s.Spawn(2, stmtest.CounterBody(tm, 0, &c2))
	s.Run(50)
	s.Crash(1)
	before := c2
	s.Run(2000)
	if c2 == before {
		t.Error("a crash outside the commit window must not block TL2")
	}
}

// TestReadYourOwnBufferedWrite: deferred updates still satisfy
// read-your-writes inside a transaction.
func TestReadYourOwnBufferedWrite(t *testing.T) {
	tm := New()
	env := sim.Background(1)
	if st := tm.Write(env, 0, 3); st != stm.OK {
		t.Fatal("write")
	}
	v, st := tm.Read(env, 0)
	if st != stm.OK || v != 3 {
		t.Fatalf("read own buffered write = %d,%v; want 3,ok", v, st)
	}
}

// TestStaleReadAborts: a transaction that started before a concurrent
// commit cannot read the newer version (its read version is older).
func TestStaleReadAborts(t *testing.T) {
	tm := New()
	env1, env2 := sim.Background(1), sim.Background(2)
	// p1 starts a transaction by reading x1 (rv = 0).
	if _, st := tm.Read(env1, 1); st != stm.OK {
		t.Fatal("p1 read x1")
	}
	// p2 commits x0 := 5, advancing the clock.
	if st := tm.Write(env2, 0, 5); st != stm.OK {
		t.Fatal("p2 write")
	}
	if st := tm.TryCommit(env2); st != stm.OK {
		t.Fatal("p2 commit")
	}
	// p1 now reads x0: version (1) > rv (0) — must abort, not return 5.
	if _, st := tm.Read(env1, 0); st != stm.Aborted {
		t.Fatal("stale transaction must abort rather than mix snapshots")
	}
}

// TestWriteNeverAbortsBeforeCommit: writes are local.
func TestWriteNeverAbortsBeforeCommit(t *testing.T) {
	tm := New()
	env := sim.Background(1)
	for i := 0; i < 100; i++ {
		if st := tm.Write(env, 0, 1); st != stm.OK {
			t.Fatal("buffered write aborted")
		}
	}
}

// TestSparseVariableId: an id at model.MaxTVar works beside id 0 — a
// transaction writes both, reads them back and commits, and a later
// transaction reads them — without a table sized to the id.
func TestSparseVariableId(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tm := New()
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
	t.Logf("%d allocations, %d bytes", n, b)
	if n > 32 || b > 4096 {
		t.Errorf("%d allocations, %d bytes: a table grew towards the id", n, b)
	}
}

// TestLargeTransactionStaysLinear: the cost per operation of a
// transaction that writes n variables, reads them back and commits
// stays flat from n = 64 to n = 4 096, so the sets' membership checks
// are not linear scans. Each size runs on a TM whose tables a first
// transaction has grown, times 4 096/n transactions per sample so that
// both sizes time the same number of operations, and takes the fastest
// of several samples.
func TestLargeTransactionStaysLinear(t *testing.T) {
	const ops = 4096
	perOp := func(n int) time.Duration {
		tm, env := New(), sim.Background(1)
		txn := func() {
			for x := range n {
				tm.Write(env, model.TVar(x), 1)
			}
			for x := range n {
				if v, st := tm.Read(env, model.TVar(x)); st != stm.OK || v != 1 {
					t.Fatalf("n=%d: read own write x%d = %d,%v", n, x, v, st)
				}
			}
			if st := tm.TryCommit(env); st != stm.OK {
				t.Fatalf("n=%d: commit", n)
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
}
