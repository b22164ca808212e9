package sim

import (
	"slices"
	"testing"

	"livetm/internal/model"
)

func TestBackgroundYieldIsNoop(t *testing.T) {
	env := Background(1)
	env.Yield() // must not block or panic
	if env.Proc() != 1 {
		t.Errorf("Proc() = %d, want 1", env.Proc())
	}
}

func TestRoundRobinDeterministic(t *testing.T) {
	run := func() []int {
		s := New(&RoundRobin{})
		defer s.Close()
		var trace []int
		for p := model.Proc(1); p <= 3; p++ {
			p := p
			if err := s.Spawn(p, func(env *Env) {
				for i := 0; i < 4; i++ {
					trace = append(trace, int(env.Proc()))
					env.Yield()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(1000)
		return trace
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("trace length = %d, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSeededDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		s := New(NewSeeded(seed))
		defer s.Close()
		var trace []int
		for p := model.Proc(1); p <= 3; p++ {
			p := p
			_ = s.Spawn(p, func(env *Env) {
				for i := 0; i < 5; i++ {
					trace = append(trace, int(env.Proc()))
					env.Yield()
				}
			})
		}
		s.Run(1000)
		return trace
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give the same schedule")
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Log("seeds 42 and 43 coincide (unlikely but not an error)")
		}
	}
}

// TestFixedSchedule pins Fixed's contract: a scheduled process that
// is not runnable is skipped (its entry consumed, the next one tried),
// and only an exhausted schedule falls back to the first runnable
// process. stmtest.ParasiticUnder relies on both.
func TestFixedSchedule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule []model.Proc
		crash    model.Proc // crashed before the first step (0: none)
		steps    int
		want     []int
	}{
		{"replays in order", []model.Proc{2, 2, 1, 2}, 0, 4, []int{2, 2, 1, 2}},
		{"skips a non-runnable entry, then falls back", []model.Proc{2, 3, 2, 3}, 2, 4, []int{3, 3, 1, 1}},
		{"unknown processes are skipped too", []model.Proc{9, 3}, 0, 3, []int{3, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(&Fixed{Schedule: tc.schedule})
			defer s.Close()
			var trace []int
			for p := model.Proc(1); p <= 3; p++ {
				_ = s.Spawn(p, func(env *Env) {
					for {
						trace = append(trace, int(env.Proc()))
						env.Yield()
					}
				})
			}
			if tc.crash != 0 {
				s.Crash(tc.crash)
			}
			s.Run(tc.steps)
			if !slices.Equal(trace, tc.want) {
				t.Fatalf("trace = %v, want %v", trace, tc.want)
			}
		})
	}
}

func TestCrashStopsScheduling(t *testing.T) {
	s := New(&RoundRobin{})
	defer s.Close()
	counts := map[model.Proc]int{}
	for p := model.Proc(1); p <= 2; p++ {
		p := p
		_ = s.Spawn(p, func(env *Env) {
			for {
				counts[env.Proc()]++
				env.Yield()
			}
		})
	}
	s.Run(10)
	before := counts[1]
	s.Crash(1)
	if !s.Crashed(1) {
		t.Error("Crashed(1) must be true")
	}
	s.Run(10)
	if counts[1] != before {
		t.Errorf("crashed process advanced from %d to %d", before, counts[1])
	}
	if counts[2] < 10 {
		t.Errorf("p2 should keep running after p1's crash, got %d", counts[2])
	}
}

func TestCrashUnknownIsNoop(t *testing.T) {
	s := New(nil)
	defer s.Close()
	s.Crash(99)
	if s.Crashed(99) {
		t.Error("unknown process must not be reported crashed")
	}
}

func TestRunStopsWhenAllDone(t *testing.T) {
	s := New(nil)
	defer s.Close()
	_ = s.Spawn(1, func(env *Env) {
		env.Yield()
	})
	n := s.Run(100)
	if n == 0 || n > 3 {
		t.Errorf("steps = %d, want a small positive count", n)
	}
	if s.Step() {
		t.Error("Step after completion must return false")
	}
}

func TestSpawnValidation(t *testing.T) {
	s := New(nil)
	if err := s.Spawn(1, func(*Env) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Spawn(1, func(*Env) {}); err == nil {
		t.Error("duplicate spawn must fail")
	}
	s.Close()
	if err := s.Spawn(2, func(*Env) {}); err == nil {
		t.Error("spawn after Close must fail")
	}
}

func TestCloseKillsParkedProcesses(t *testing.T) {
	s := New(nil)
	cleanedUp := false
	_ = s.Spawn(1, func(env *Env) {
		defer func() { cleanedUp = true }()
		for {
			env.Yield()
		}
	})
	s.Run(5)
	s.Close()
	if !cleanedUp {
		t.Error("deferred cleanup in the process body must run on Close")
	}
	if s.Step() {
		t.Error("Step after Close must return false")
	}
}

func TestCloseKillsNeverStartedProcesses(t *testing.T) {
	s := New(&Fixed{Schedule: []model.Proc{1, 1, 1}})
	ran2 := false
	_ = s.Spawn(1, func(env *Env) {
		for i := 0; i < 10; i++ {
			env.Yield()
		}
	})
	_ = s.Spawn(2, func(env *Env) { ran2 = true })
	s.Run(2)
	s.Close()
	if ran2 {
		t.Error("process killed before its first slice must not run its body")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := New(nil)
	_ = s.Spawn(1, func(env *Env) { env.Yield() })
	s.Close()
	s.Close() // must not panic or deadlock
}

// TestMutualExclusionInvariant checks the core guarantee the STM
// implementations rely on: no two process slices overlap, so a
// read-modify-write between yields is atomic.
func TestMutualExclusionInvariant(t *testing.T) {
	s := New(NewSeeded(9))
	defer s.Close()
	inside := 0
	violations := 0
	for p := model.Proc(1); p <= 4; p++ {
		_ = s.Spawn(p, func(env *Env) {
			for i := 0; i < 50; i++ {
				inside++
				if inside != 1 {
					violations++
				}
				inside--
				env.Yield()
			}
		})
	}
	s.Run(10000)
	if violations != 0 {
		t.Errorf("%d mutual-exclusion violations", violations)
	}
}

func TestStepsCounter(t *testing.T) {
	s := New(nil)
	defer s.Close()
	_ = s.Spawn(1, func(env *Env) {
		for i := 0; i < 5; i++ {
			env.Yield()
		}
	})
	s.Run(3)
	if s.Steps() != 3 {
		t.Errorf("Steps() = %d, want 3", s.Steps())
	}
}

// Crashed reports whether p has been crashed.
func (s *Scheduler) Crashed(p model.Proc) bool {
	ps := s.lookup(p)
	return ps != nil && ps.crashed
}
