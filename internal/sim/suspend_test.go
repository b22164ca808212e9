package sim

import (
	"testing"

	"livetm/internal/model"
)

func TestSuspendPausesAndResumes(t *testing.T) {
	s := New(&RoundRobin{})
	defer s.Close()
	counts := map[model.Proc]int{}
	for p := model.Proc(1); p <= 2; p++ {
		p := p
		_ = s.Spawn(p, func(env *Env) {
			for {
				counts[p]++
				env.Yield()
			}
		})
	}
	s.Run(10)
	s.Suspend(1, 20)
	if !s.Suspended(1) {
		t.Fatal("p1 must be suspended")
	}
	at := counts[1]
	s.Run(20)
	if counts[1] != at {
		t.Errorf("suspended p1 advanced from %d to %d", at, counts[1])
	}
	if s.Suspended(1) {
		t.Error("suspension must have expired")
	}
	s.Run(10)
	if counts[1] == at {
		t.Error("p1 must resume after the suspension expires")
	}
}

func TestSuspendAllIsIdleTick(t *testing.T) {
	s := New(nil)
	defer s.Close()
	_ = s.Spawn(1, func(env *Env) {
		for {
			env.Yield()
		}
	})
	s.Run(2)
	s.Suspend(1, 5)
	n := s.Run(100)
	// 5 idle ticks pass, then p1 resumes and burns the rest.
	if n != 100 {
		t.Errorf("Run consumed %d steps, want 100 (idle ticks + resumed process)", n)
	}
	if s.Suspended(1) {
		t.Error("suspension must be over")
	}
}

func TestSuspendUnknownOrZeroIsNoop(t *testing.T) {
	s := New(nil)
	defer s.Close()
	s.Suspend(9, 10)
	if s.Suspended(9) {
		t.Error("unknown process cannot be suspended")
	}
	_ = s.Spawn(1, func(env *Env) { env.Yield() })
	s.Suspend(1, 0)
	if s.Suspended(1) {
		t.Error("zero-length suspension is a no-op")
	}
}

// Suspended reports whether p is currently suspended.
func (s *Scheduler) Suspended(p model.Proc) bool {
	ps := s.lookup(p)
	return ps != nil && s.steps < ps.suspendedTo
}
