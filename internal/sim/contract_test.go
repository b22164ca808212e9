package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"livetm/internal/model"
)

// spinning returns a seeded scheduler with procs processes that yield
// forever.
func spinning(procs int) *Scheduler {
	s := New(NewSeeded(1))
	for p := model.Proc(1); int(p) <= procs; p++ {
		_ = s.Spawn(p, func(env *Env) {
			for {
				env.Yield()
			}
		})
	}
	return s
}

// awaitGoroutines polls until at most want goroutines are left or the
// deadline passes, and returns the last count.
func awaitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestSchedulerContract pins what callers of the scheduler rely on
// beyond scheduling order: Close leaves nothing running whatever state
// a process is in, a process's own panic reaches Step's caller, and
// Runnable's result belongs to the caller.
func TestSchedulerContract(t *testing.T) {
	// Each close row leaves p1 in one state; p2 keeps yielding so the
	// scheduler always has someone else to run.
	for _, tc := range []struct {
		name  string
		body  func(s *Scheduler) func(*Env)
		drive func(s *Scheduler)
	}{
		{"close/never started", nil, func(s *Scheduler) { s.Crash(1); s.Run(4) }},
		{"close/at a yield", nil, func(s *Scheduler) { s.Run(4) }},
		{"close/crashed", nil, func(s *Scheduler) { s.Run(4); s.Crash(1) }},
		{"close/suspended", nil, func(s *Scheduler) { s.Run(4); s.Suspend(1, 1000) }},
		{"close/finished", func(*Scheduler) func(*Env) {
			return func(env *Env) { env.Yield() }
		}, func(s *Scheduler) { s.Run(8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(&RoundRobin{})
			spin := func(env *Env) {
				for {
					env.Yield()
				}
			}
			body := spin
			if tc.body != nil {
				body = tc.body(s)
			}
			_ = s.Spawn(1, body)
			_ = s.Spawn(2, spin)
			tc.drive(s)
			s.Close()
			if n := awaitGoroutines(before); n > before {
				t.Fatalf("%d goroutines after Close, %d before the scheduler", n, before)
			}
		})
	}

	t.Run("a body's panic reaches Step's caller", func(t *testing.T) {
		before := runtime.NumGoroutine()
		boom := fmt.Errorf("boom")
		s := New(nil)
		defer s.Close()
		_ = s.Spawn(1, func(env *Env) {
			env.Yield()
			panic(boom)
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			s.Run(10)
			return nil
		}()
		if got != any(boom) {
			t.Fatalf("Step's caller recovered %v, want the body's own value %v", got, boom)
		}
		if s.Step() {
			t.Error("the panicked process must be finished")
		}
		if n := awaitGoroutines(before); n > before {
			t.Errorf("%d goroutines after the panic, %d before the scheduler", n, before)
		}
	})

	t.Run("Runnable returns a copy", func(t *testing.T) {
		var seen [][]model.Proc
		s := New(policyFunc(func(runnable []model.Proc, _ int) model.Proc {
			seen = append(seen, slices.Clone(runnable))
			return runnable[0]
		}))
		defer s.Close()
		for p := model.Proc(1); p <= 3; p++ {
			_ = s.Spawn(p, func(env *Env) {
				for {
					env.Yield()
				}
			})
		}
		r := s.Runnable()
		held := slices.Clone(r)
		for i := range r {
			r[i] = 99
		}
		s.Step()
		if want := []model.Proc{1, 2, 3}; !slices.Equal(seen[0], want) {
			t.Errorf("policy saw %v after the caller mutated Runnable's result, want %v", seen[0], want)
		}
		r = s.Runnable()
		s.Crash(1)
		s.Step()
		if !slices.Equal(r, held) {
			t.Errorf("a held Runnable result changed to %v across a Step, want %v", r, held)
		}
	})
}

type policyFunc func(runnable []model.Proc, step int) model.Proc

func (f policyFunc) Next(runnable []model.Proc, step int) model.Proc { return f(runnable, step) }

// TestAllocBudgetPerStep pins that a scheduler step allocates nothing
// once every process has started: the switch is a coroutine switch,
// and the runnable set is built in scratch the scheduler keeps.
func TestAllocBudgetPerStep(t *testing.T) {
	for _, procs := range []int{2, 5} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			s := spinning(procs)
			defer s.Close()
			s.Run(4 * procs)
			if got := testing.AllocsPerRun(1000, func() { s.Step() }); got != 0 {
				t.Errorf("%v allocations per step, want 0", got)
			}
		})
	}
}

// BenchmarkStep measures one bare scheduler step: a seeded choice and
// a switch into a process that only yields, and back. On a 2-vCPU Xeon
// VM (go1.24, -benchtime 200000x -count 5) the process goroutines
// driven over channels took 0.89–1.27 µs and 2 allocations (24 B) per
// step at 2 processes, and 1.34–2.12 µs and 4 allocations (120 B) at
// 5; the coroutines take 0.21–0.22 µs and 0.22–0.29 µs, with none.
func BenchmarkStep(b *testing.B) {
	for _, procs := range []int{2, 5} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			s := spinning(procs)
			defer s.Close()
			s.Run(4 * procs)
			b.ReportAllocs()
			for b.Loop() {
				s.Step()
			}
		})
	}
}
