package monitor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"livetm/internal/alloctest"
	"livetm/internal/liveness"
	"livetm/internal/model"
)

// referenceLasso builds the reading of h the way the monitor did before
// it borrowed its window: through liveness.NewLassoWithProcs, from the
// history alone.
func referenceLasso(t *testing.T, h model.History, window int, fixed []model.Proc) *liveness.Lasso {
	t.Helper()
	cycle := h[max(0, len(h)-window):]
	procs := slices.Clone(fixed)
	first := map[model.Proc]model.Event{}
	for _, e := range h {
		if _, seen := first[e.Proc]; !seen {
			first[e.Proc] = e
			if !slices.Contains(procs, e.Proc) {
				procs = append(procs, e.Proc)
			}
		}
	}
	slices.Sort(procs)
	var prefix model.History
	if len(h) > len(cycle) {
		for _, p := range procs {
			if e, seen := first[p]; seen {
				prefix = append(prefix, e)
			}
		}
	}
	l, err := liveness.NewLassoWithProcs(prefix, cycle, procs)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBorrowedLassoMatchesNewLasso: the lasso the monitor classifies —
// its own window copy and process set, no clone — reads every process
// and the run exactly as a lasso built by liveness.NewLassoWithProcs
// from the same history, at every length from a window that has not
// filled to one that wrapped many times, with processes that fall
// silent (seen only in the prefix) and one that never speaks at all.
func TestBorrowedLassoMatchesNewLasso(t *testing.T) {
	const window = 8
	kinds := []func(p model.Proc) model.Event{
		func(p model.Proc) model.Event { return model.Read(p, 0) },
		func(p model.Proc) model.Event { return model.ValueResp(p, 0) },
		func(p model.Proc) model.Event { return model.TryCommit(p) },
		model.Commit,
		model.Abort,
	}
	fixed := []model.Proc{1, 2, 5} // 5 never produces an event
	rng := rand.New(rand.NewSource(15))
	var notFull, prefixOnly, classes int
	seenClass := map[string]bool{}
	for iter := 0; iter < 400; iter++ {
		m, err := New(Config{TailWindow: window, Procs: fixed, Approx: true})
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(4*window)
		// Process 3 is only active early, so a long run has it in the
		// prefix alone; 4 joins late and is not in the fixed set.
		var h model.History
		for i := 0; i < n; i++ {
			active := []model.Proc{1, 2}
			if i < 3 {
				active = append(active, 3)
			}
			if i > 2*window {
				active = append(active, 4)
			}
			p := active[rng.Intn(len(active))]
			e := kinds[rng.Intn(len(kinds))](p)
			h = append(h, e)
			_ = m.Observe(e) // the stream is not well-formed; only the liveness half is under test
		}
		got, want := m.lasso(), referenceLasso(t, h, window, fixed)
		at := fmt.Sprintf("after %d events %s", n, h)
		if !slices.Equal(got.Cycle, want.Cycle) || !slices.Equal(got.Prefix, want.Prefix) || !slices.Equal(got.Procs, want.Procs) {
			t.Fatalf("borrowed lasso %v over %v, reference %v over %v, %s", got, got.Procs, want, want.Procs, at)
		}
		for _, p := range want.Procs {
			for name, pred := range map[string]func(*liveness.Lasso, model.Proc) bool{
				"crashes": (*liveness.Lasso).Crashes, "parasitic": (*liveness.Lasso).Parasitic,
				"starving": (*liveness.Lasso).Starving, "progress": (*liveness.Lasso).MakesProgress,
			} {
				if pred(got, p) != pred(want, p) {
					t.Fatalf("p%d %s: borrowed %v, reference %v, %s", p, name, pred(got, p), pred(want, p), at)
				}
			}
			if want.Crashes(p) && len(h) > window {
				prefixOnly++
			}
		}
		class := "none"
		for i := len(lattice) - 1; i >= 0; i-- {
			if lattice[i].Contains(got) != lattice[i].Contains(want) {
				t.Fatalf("%s: borrowed %v, reference %v, %s", lattice[i].Name, lattice[i].Contains(got), lattice[i].Contains(want), at)
			}
			if lattice[i].Contains(want) {
				class = lattice[i].Name
			}
		}
		if now := m.LivenessClassNow(); now != class {
			t.Fatalf("LivenessClassNow %q, reference %q, %s", now, class, at)
		}
		if rep := m.Report(); rep.LivenessClass() != class {
			t.Fatalf("Report class %q, reference %q, %s", rep.LivenessClass(), class, at)
		}
		if n < window {
			notFull++
		}
		if !seenClass[class] {
			seenClass[class] = true
			classes++
		}
	}
	if notFull < 20 || prefixOnly < 20 || classes < 3 {
		t.Errorf("near-vacuous: %d windows not yet full, %d prefix-only processes, %d distinct classes", notFull, prefixOnly, classes)
	}
}

// TestAllocBudgetPerRebiasTick pins what the pump's feedback tick costs
// once the monitor's reading has its storage: the starvation snapshot
// goes into the caller's slice and the classification reads a borrowed
// lasso, so nothing is left to allocate — with every process
// progressing (the first property holds) and with one starving (the
// whole lattice is walked).
func TestAllocBudgetPerRebiasTick(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	for _, tc := range []struct {
		name  string
		p2    func(from model.Value) []model.Event
		class string
	}{
		{"all progressing", func(v model.Value) []model.Event { return committedTxn(2, v) }, "local progress"},
		{"one starving", func(model.Value) []model.Event {
			return []model.Event{model.Read(2, 1), model.Abort(2)}
		}, "global progress"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{SegmentTxns: 8, Procs: []model.Proc{1, 2}, Approx: true})
			if err != nil {
				t.Fatal(err)
			}
			v := model.Value(0)
			for i := 0; i < 100; i++ { // past the 256-event window
				if err := m.ObserveHistory(committedTxn(1, v)); err != nil {
					t.Fatal(err)
				}
				v++
				next := tc.p2(v)
				if err := m.ObserveHistory(next); err != nil {
					t.Fatal(err)
				}
				if len(next) == 6 {
					v++
				}
			}
			starvation := make([]int, 2)
			var class string
			tick := func() {
				m.StarvationNow(starvation)
				class = m.LivenessClassNow()
			}
			tick() // the reading's storage
			if got := testing.AllocsPerRun(100, tick); got > 0 {
				t.Errorf("%.2f allocs per rebias tick, budget 0", got)
			}
			if class != tc.class {
				t.Errorf("class %q, want %q", class, tc.class)
			}
		})
	}
}
