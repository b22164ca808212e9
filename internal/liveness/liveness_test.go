package liveness

import (
	"testing"
	"testing/quick"

	"livetm/internal/model"
)

// fig5 builds an infinite history in the spirit of Figure 5 (local
// progress): both processes execute infinitely many transactions that
// read v and write 1-v, and both commit infinitely often (each also
// has infinitely many aborted attempts, matching the figure's aborted
// cells).
func fig5(t *testing.T) *Lasso {
	t.Helper()
	cycle := model.NewBuilder().
		Read(1, 0, 0).Write(1, 0, 1).Commit(1).
		ReadAbort(2, 0).
		Read(2, 0, 1).Write(2, 0, 0).Commit(2).
		ReadAbort(1, 0).
		History()
	l, err := NewLasso(nil, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fig6 builds Figure 6 (global but not local progress): p1 commits
// infinitely often; p2 is correct (aborted infinitely often) but never
// commits.
func fig6(t *testing.T) *Lasso {
	t.Helper()
	cycle := model.NewBuilder().
		Read(1, 0, 0).Write(1, 0, 1).Commit(1).
		Read(2, 0, 1).Write(2, 0, 0).CommitAbort(2).
		Read(1, 0, 1).Write(1, 0, 0).Commit(1).
		Read(2, 0, 0).Write(2, 0, 1).CommitAbort(2).
		History()
	l, err := NewLasso(nil, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fig7 builds Figure 7 (solo progress): p1 crashes after one read, p2
// commits once then turns parasitic (reads and writes forever, never
// invoking tryC, never aborted), p3 runs alone and commits forever.
func fig7(t *testing.T) *Lasso {
	t.Helper()
	prefix := model.NewBuilder().
		Read(1, 0, 0).
		Write(2, 0, 1).Commit(2).
		History()
	cycle := model.NewBuilder().
		Read(3, 0, 1).Write(3, 0, 0).Commit(3).
		Read(2, 0, 0).Write(2, 0, 1).
		Read(3, 0, 0).Write(3, 0, 1).Commit(3).
		Read(2, 0, 1).Write(2, 0, 0).
		History()
	l, err := NewLasso(prefix, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fig14 builds Figure 14 (violates every nonblocking property): like
// Figure 7, but p3's transactions all abort — the solo runner starves.
func fig14(t *testing.T) *Lasso {
	t.Helper()
	prefix := model.NewBuilder().
		Read(1, 0, 0).
		Write(2, 0, 1).Commit(2).
		History()
	cycle := model.NewBuilder().
		Read(3, 0, 1).Write(3, 0, 0).CommitAbort(3).
		Read(2, 0, 1).Write(2, 0, 0).
		History()
	l, err := NewLasso(prefix, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPropertiesListOrderedByStrength(t *testing.T) {
	if len(Properties) != 3 {
		t.Fatalf("Properties has %d entries, want 3", len(Properties))
	}
	// Listed weakest to strongest: solo, global, local — so each
	// later property's histories are contained in the earlier ones.
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		for i := 1; i < len(Properties); i++ {
			if Properties[i].Contains(l) && !Properties[i-1].Contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewLassoValidation(t *testing.T) {
	if _, err := NewLasso(nil, nil); err == nil {
		t.Error("empty cycle must be rejected")
	}
	cycle := model.NewBuilder().Read(1, 0, 0).Commit(1).History()
	if _, err := NewLassoWithProcs(nil, cycle, []model.Proc{2}); err == nil {
		t.Error("process outside the declared set must be rejected")
	}
	l, err := NewLassoWithProcs(nil, cycle, []model.Proc{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Procs) != 3 {
		t.Errorf("explicit process set not kept: %v", l.Procs)
	}
}

func TestUnroll(t *testing.T) {
	l := fig6(t)
	h0 := l.Unroll(0)
	if len(h0) != len(l.Prefix) {
		t.Errorf("Unroll(0) length = %d, want prefix length %d", len(h0), len(l.Prefix))
	}
	h3 := l.Unroll(3)
	if len(h3) != len(l.Prefix)+3*len(l.Cycle) {
		t.Errorf("Unroll(3) length = %d", len(h3))
	}
	if err := model.CheckWellFormed(h3); err != nil {
		t.Errorf("unrolled history must be well-formed: %v", err)
	}
}

func TestFig5LocalProgress(t *testing.T) {
	l := fig5(t)
	for _, p := range []model.Proc{1, 2} {
		if !l.Correct(p) {
			t.Errorf("p%d must be correct in figure 5", p)
		}
		if !l.MakesProgress(p) {
			t.Errorf("p%d must make progress in figure 5", p)
		}
	}
	if !LocalProgress.Contains(l) {
		t.Error("figure 5 must ensure local progress")
	}
	if !GlobalProgress.Contains(l) || !SoloProgress.Contains(l) {
		t.Error("figure 5 must ensure the weaker properties too")
	}
	if ViolatesNonblocking(l) || ViolatesBiprogressing(l) {
		t.Error("figure 5 must not witness blocking or uni-progress")
	}
}

func TestFig6GlobalProgress(t *testing.T) {
	l := fig6(t)
	if !l.Correct(1) || !l.Correct(2) {
		t.Error("both processes of figure 6 are correct")
	}
	if !l.MakesProgress(1) {
		t.Error("p1 must make progress in figure 6")
	}
	if l.MakesProgress(2) {
		t.Error("p2 must not make progress in figure 6")
	}
	if !l.Starving(2) {
		t.Error("p2 must be starving in figure 6")
	}
	if LocalProgress.Contains(l) {
		t.Error("figure 6 must not ensure local progress")
	}
	if !GlobalProgress.Contains(l) {
		t.Error("figure 6 must ensure global progress")
	}
	if !ViolatesBiprogressing(l) {
		t.Error("figure 6 witnesses that global progress is not biprogressing")
	}
	if ViolatesNonblocking(l) {
		t.Error("figure 6 has two correct processes, so no process runs alone")
	}
}

func TestFig7SoloProgress(t *testing.T) {
	l := fig7(t)
	if !l.Crashes(1) {
		t.Error("p1 must crash in figure 7")
	}
	if !l.Parasitic(2) {
		t.Error("p2 must be parasitic in figure 7")
	}
	if !l.Correct(3) {
		t.Error("p3 must be correct in figure 7")
	}
	solo, ok := l.RunsAlone()
	if !ok || solo != 3 {
		t.Errorf("RunsAlone = %d,%v; want 3,true", solo, ok)
	}
	if !SoloProgress.Contains(l) {
		t.Error("figure 7 must ensure solo progress")
	}
	if !GlobalProgress.Contains(l) {
		t.Error("figure 7 must ensure global progress (p3 progresses)")
	}
	if !LocalProgress.Contains(l) {
		t.Error("figure 7 ensures local progress vacuously-for-faulty: every correct process (only p3) progresses")
	}
	if ViolatesNonblocking(l) {
		t.Error("figure 7's solo runner progresses")
	}
	if ViolatesBiprogressing(l) {
		t.Error("figure 7 has fewer than two correct processes")
	}
}

func TestFig14Blocking(t *testing.T) {
	l := fig14(t)
	if !l.Crashes(1) || !l.Parasitic(2) {
		t.Error("figure 14 keeps p1 crashed and p2 parasitic")
	}
	if !l.Correct(3) {
		t.Error("p3 is aborted infinitely often, hence correct")
	}
	if !l.Starving(3) {
		t.Error("p3 must be starving in figure 14")
	}
	if !ViolatesNonblocking(l) {
		t.Error("figure 14 must witness blocking: the solo runner starves")
	}
	if SoloProgress.Contains(l) || GlobalProgress.Contains(l) || LocalProgress.Contains(l) {
		t.Error("figure 14 must not ensure any of the named properties")
	}
}

func TestCrashedVsAbsentProcess(t *testing.T) {
	cycle := model.NewBuilder().Read(1, 0, 0).Commit(1).History()
	prefix := model.NewBuilder().Read(2, 0, 0).History()
	l, err := NewLassoWithProcs(prefix, cycle, []model.Proc{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Crashes(2) {
		t.Error("p2 has prefix events only: crashed")
	}
	if l.Crashes(3) {
		t.Error("p3 has no events at all: H|p3 is empty, not a finite non-empty sequence")
	}
	if l.Parasitic(3) {
		t.Error("an absent process is not parasitic")
	}
	if !l.Pending(3) {
		t.Error("an absent process has no commits, hence pending")
	}
}

func TestParasiticNeedsInfinitelyManyOps(t *testing.T) {
	// p2 executes reads/writes in the prefix only, then stops: that is
	// a crash, not parasitism.
	prefix := model.NewBuilder().Read(2, 0, 0).Write(2, 0, 1).History()
	cycle := model.NewBuilder().Read(1, 0, 0).Commit(1).History()
	l, err := NewLasso(prefix, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if l.Parasitic(2) {
		t.Error("finitely many operations cannot make a process parasitic")
	}
	if !l.Crashes(2) {
		t.Error("p2 crashes")
	}
}

func TestAbortedForeverIsNotParasitic(t *testing.T) {
	// A process aborted infinitely often is correct even if it never
	// invokes tryC (the TM aborts its reads).
	cycle := model.NewBuilder().ReadAbort(2, 0).Read(1, 0, 0).Commit(1).History()
	l, err := NewLasso(nil, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if l.Parasitic(2) {
		t.Error("infinitely many aborts exclude parasitism")
	}
	if !l.Starving(2) {
		t.Error("p2 is correct and pending: starving")
	}
}

// --- Figure 2: the class lattice, as properties over random lassos ---

func TestClassLatticeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		for _, p := range l.Procs {
			crashed, parasitic := l.Crashes(p), l.Parasitic(p)
			pending, correct := l.Pending(p), l.Correct(p)
			starving, faulty := l.Starving(p), !l.Correct(p)

			// Figure 2 arrows (c1 → c2 means c1 ⊆ c2).
			if crashed && !faulty {
				return false // crashed → faulty
			}
			if parasitic && !faulty {
				return false // parasitic → faulty
			}
			if crashed && !pending {
				return false // crashed → pending
			}
			if parasitic && !pending {
				return false // parasitic → pending
			}
			if starving && !(pending && correct) {
				return false // starving → pending, starving → correct
			}
			if !pending && crashed {
				return false // not-pending → not-crashed
			}
			// Definitional complements.
			if crashed && parasitic {
				return false // finite vs infinite projection
			}
			if correct == faulty {
				return false
			}
			if l.MakesProgress(p) && (pending || !correct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: local ⊆ global ⊆ solo as history sets.
func TestPropertyContainmentProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		if LocalProgress.Contains(l) && !GlobalProgress.Contains(l) {
			return false
		}
		if GlobalProgress.Contains(l) && !SoloProgress.Contains(l) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: local progress is nonblocking and biprogressing; global
// and solo progress are nonblocking (their biprogressing failures are
// witnessed by Figures 6 and 7 above).
func TestPropertyClassesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		if LocalProgress.Contains(l) && (ViolatesNonblocking(l) || ViolatesBiprogressing(l)) {
			return false
		}
		if GlobalProgress.Contains(l) && ViolatesNonblocking(l) {
			return false
		}
		if SoloProgress.Contains(l) && ViolatesNonblocking(l) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// genLasso derives a well-formed lasso from fuzz bytes: whole
// operations of up to three processes split across prefix and cycle.
// Processes may end up crashed (prefix-only), parasitic (cycle ops
// without tryC or aborts), starving, or progressing.
func genLasso(raw []uint8) *Lasso {
	split := 0
	if len(raw) > 0 {
		split = int(raw[0]) % (len(raw) + 1)
	}
	build := func(bs []uint8) model.History {
		b := model.NewBuilder()
		for _, c := range bs {
			p := model.Proc(c%3 + 1)
			x := model.TVar(c / 3 % 2)
			v := model.Value(c / 6 % 3)
			switch c % 5 {
			case 0:
				b.Read(p, x, v)
			case 1:
				b.Write(p, x, v)
			case 2:
				b.Commit(p)
			case 3:
				b.CommitAbort(p)
			case 4:
				b.ReadAbort(p, x)
			}
		}
		return b.History()
	}
	prefix := build(raw[:split])
	cycle := build(raw[split:])
	if len(cycle) == 0 {
		cycle = model.NewBuilder().Read(1, 0, 0).Commit(1).History()
	}
	l, err := NewLassoWithProcs(prefix, cycle, []model.Proc{1, 2, 3})
	if err != nil {
		panic(err)
	}
	return l
}

// NewLasso builds a lasso over the processes appearing in it.
func NewLasso(prefix, cycle model.History) (*Lasso, error) {
	return NewLassoWithProcs(prefix, cycle, nil)
}

// Unroll returns the finite prefix of the infinite history consisting
// of the lasso prefix followed by n copies of the cycle. Useful for
// checking safety of ever longer prefixes of an infinite history.
func (l *Lasso) Unroll(n int) model.History {
	out := l.Prefix.Clone()
	for i := 0; i < n; i++ {
		out = append(out, l.Cycle...)
	}
	return out
}

// Properties lists the three named properties from weakest to
// strongest (solo ⊇ global? no — see the containment tests; the order
// here is presentational: solo, global, local).
var Properties = []Property{SoloProgress, GlobalProgress, LocalProgress}
