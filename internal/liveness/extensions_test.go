package liveness

import (
	"testing"
	"testing/quick"

	"livetm/internal/model"
)

func TestKProgressDegenerateCases(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		// k=1 coincides with global progress.
		if KProgress(1).Contains(l) != GlobalProgress.Contains(l) {
			return false
		}
		// k = |procs| coincides with local progress.
		if KProgress(len(l.Procs)).Contains(l) != LocalProgress.Contains(l) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestKProgressMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		// L_{k+1} ⊆ L_k: demanding more progress is a stronger property.
		for k := 1; k < 3; k++ {
			if KProgress(k+1).Contains(l) && !KProgress(k).Contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestKProgressTwoIsBiprogressingAndNonblocking: the executable
// corollary of Theorem 2 — 2-progress has both class attributes, so
// no TM can ensure it with opacity in a fault-prone system.
func TestKProgressTwoIsBiprogressingAndNonblocking(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		if KProgress(2).Contains(l) && ViolatesBiprogressing(l) {
			return false
		}
		if KProgress(2).Contains(l) && ViolatesNonblocking(l) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestKProgressRejectsStarvationShape(t *testing.T) {
	// The adversary's outcome: p2 commits forever, p1 aborts forever.
	cycle := model.NewBuilder().
		Read(2, 0, 0).Write(2, 0, 1).Commit(2).
		Read(1, 0, 1).WriteAbort(1, 0, 2).
		History()
	l, err := NewLasso(nil, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if !KProgress(1).Contains(l) {
		t.Error("one process progresses: 1-progress holds")
	}
	if KProgress(2).Contains(l) {
		t.Error("only one of two correct processes progresses: 2-progress fails")
	}
}

func TestPriorityProgress(t *testing.T) {
	// p1 starves, p2 progresses.
	cycle := model.NewBuilder().
		Read(2, 0, 0).Write(2, 0, 1).Commit(2).
		Read(1, 0, 1).WriteAbort(1, 0, 2).
		History()
	l, err := NewLasso(nil, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if !PriorityProgress(map[model.Proc]int{2: 10, 1: 1}).Contains(l) {
		t.Error("the maximal-priority process (p2) progresses: property holds")
	}
	if PriorityProgress(map[model.Proc]int{1: 10, 2: 1}).Contains(l) {
		t.Error("the maximal-priority process (p1) starves: property fails")
	}
	// Equal priorities degenerate to local progress.
	if PriorityProgress(map[model.Proc]int{1: 5, 2: 5}).Contains(l) {
		t.Error("equal priorities demand progress of every correct process")
	}
}

func TestPriorityProgressEqualsLocalWhenFlat(t *testing.T) {
	f := func(raw []uint8) bool {
		l := genLasso(raw)
		flat := PriorityProgress(map[model.Proc]int{}) // all zero
		return flat.Contains(l) == LocalProgress.Contains(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPriorityProgressVacuousWithoutCorrectProcs(t *testing.T) {
	// Only a crashed process: the property holds vacuously.
	prefix := model.NewBuilder().Read(1, 0, 0).History()
	cycle := model.NewBuilder().Read(2, 0, 0).History() // p2 parasitic
	l, err := NewLasso(prefix, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.CorrectProcs()) != 0 {
		t.Fatal("test setup: no process should be correct")
	}
	if !PriorityProgress(map[model.Proc]int{1: 1, 2: 2}).Contains(l) {
		t.Error("no correct processes: vacuously satisfied")
	}
}

func TestIsNonblockingOn(t *testing.T) {
	// A blocking history: solo runner starves.
	blockCycle := model.NewBuilder().ReadAbort(3, 0).Read(2, 0, 0).History()
	blockPrefix := model.NewBuilder().Read(1, 0, 0).History()
	blocking, err := NewLasso(blockPrefix, blockCycle)
	if err != nil {
		t.Fatal(err)
	}
	sample := []*Lasso{blocking}

	// The trivial property containing everything is refuted.
	everything := Property{Name: "HTM", Contains: func(*Lasso) bool { return true }}
	if w, ok := IsNonblockingOn(everything, sample); ok || w == nil {
		t.Error("the universal property must be refuted by the blocking history")
	}
	// Solo progress is consistent with the sample (it excludes it).
	if _, ok := IsNonblockingOn(SoloProgress, sample); !ok {
		t.Error("solo progress excludes the blocking history")
	}
}

func TestIsBiprogressingOn(t *testing.T) {
	// Figure-6 shape: two correct, one progressing.
	cycle := model.NewBuilder().
		Read(1, 0, 0).Write(1, 0, 1).Commit(1).
		Read(2, 0, 1).Write(2, 0, 0).CommitAbort(2).
		History()
	uni, err := NewLasso(nil, cycle)
	if err != nil {
		t.Fatal(err)
	}
	sample := []*Lasso{uni}
	if _, ok := IsBiprogressingOn(GlobalProgress, sample); ok {
		t.Error("global progress contains the uni-progress history: refuted")
	}
	if _, ok := IsBiprogressingOn(LocalProgress, sample); !ok {
		t.Error("local progress excludes the uni-progress history")
	}
}

func TestClassifyRun(t *testing.T) {
	h := model.NewBuilder().
		Read(1, 0, 0).Commit(1). // transient: p1 commits once, then vanishes (crash)
		Read(2, 0, 0).Commit(2).
		Read(2, 0, 0).Commit(2).
		History()
	l, err := ClassifyRun(h, SplitHalf(h), []model.Proc{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Crashes(1) {
		t.Error("p1 appears only in the prefix: crashed under the repeats-forever reading")
	}
	if !l.MakesProgress(2) {
		t.Error("p2 commits in the tail: progresses")
	}
	if _, err := ClassifyRun(h, len(h), nil); err == nil {
		t.Error("split at end leaves an empty cycle: must fail")
	}
	if _, err := ClassifyRun(h, -1, nil); err == nil {
		t.Error("negative split must fail")
	}
}

// IsNonblockingOn reports whether the property's membership predicate
// is consistent with being nonblocking on the given sample histories:
// no member history has a starving solo runner. It cannot prove a
// property nonblocking (that quantifies over all histories) but
// refutes it with a witness.
func IsNonblockingOn(p Property, sample []*Lasso) (witness *Lasso, ok bool) {
	for _, l := range sample {
		if p.Contains(l) && ViolatesNonblocking(l) {
			return l, false
		}
	}
	return nil, true
}

// IsBiprogressingOn is the sampled analogue for the biprogressing
// class.
func IsBiprogressingOn(p Property, sample []*Lasso) (witness *Lasso, ok bool) {
	for _, l := range sample {
		if p.Contains(l) && ViolatesBiprogressing(l) {
			return l, false
		}
	}
	return nil, true
}
