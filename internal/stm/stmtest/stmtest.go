// Package stmtest provides the shared conformance and liveness-
// scenario harness used by every TM implementation in the repository:
// randomized opacity conformance, sequential-semantics checks, and the
// fault-injection scenarios (crash-point sweeps, parasitic processes)
// that the liveness matrix (DESIGN.md E20) is built on.
//
//lint:allow(unused) test support: the liveness matrix uses the scenario bodies, and every TM package's tests run the conformance harness
package stmtest

import (
	"testing"

	"livetm/internal/model"
	"livetm/internal/safety"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// Factory creates a fresh TM instance for a system of the given size.
// It aliases stm.Factory so test files can pass their local factories
// to both packages.
type Factory = stm.Factory

// CounterBody returns a process body that repeatedly runs the
// read-increment-commit transaction on x, retrying forever; *commits
// counts successful commits. The body never returns; the scheduler's
// Close kills it.
func CounterBody(tm stm.TM, x model.TVar, commits *int) func(*sim.Env) {
	return func(env *sim.Env) {
		for {
			v, st := tm.Read(env, x)
			if st != stm.OK {
				continue
			}
			if st := tm.Write(env, x, v+1); st != stm.OK {
				continue
			}
			if st := tm.TryCommit(env); st == stm.OK {
				*commits++
			}
		}
	}
}

// DisjointBody is CounterBody on a per-process variable, so processes
// never conflict.
func DisjointBody(tm stm.TM, commits *int) func(*sim.Env) {
	return func(env *sim.Env) {
		x := model.TVar(env.Proc())
		CounterBody(tm, x, commits)(env)
	}
}

// ParasiticWriterBody returns a body that keeps writing to x without
// ever invoking TryCommit. If the TM aborts an operation the body just
// keeps going (a new transaction starts implicitly), still never
// attempting to commit.
func ParasiticWriterBody(tm stm.TM, x model.TVar) func(*sim.Env) {
	return func(env *sim.Env) {
		var v model.Value
		for {
			tm.Write(env, x, v)
			v++
		}
	}
}

// ParasiticReaderBody is like ParasiticWriterBody but only reads.
func ParasiticReaderBody(tm stm.TM, x model.TVar) func(*sim.Env) {
	return func(env *sim.Env) {
		for {
			tm.Read(env, x)
		}
	}
}

// BoundedCounterBody runs the counter transaction until it has
// committed n times, then returns.
func BoundedCounterBody(tm stm.TM, x model.TVar, n int, commits *int) func(*sim.Env) {
	return func(env *sim.Env) {
		for *commits < n {
			v, st := tm.Read(env, x)
			if st != stm.OK {
				continue
			}
			if st := tm.Write(env, x, v+1); st != stm.OK {
				continue
			}
			if st := tm.TryCommit(env); st == stm.OK {
				*commits++
			}
		}
	}
}

// FaultFree runs nProcs counter processes on a shared variable for the
// given number of steps and returns per-process commit counts.
func FaultFree(factory Factory, nProcs, steps int, seed uint64) map[model.Proc]int {
	tm := factory(nProcs, 1)
	s := sim.New(sim.NewSeeded(seed))
	defer s.Close()
	counts := make(map[model.Proc]int, nProcs)
	cells := make([]int, nProcs)
	for i := 0; i < nProcs; i++ {
		p := model.Proc(i + 1)
		c := &cells[i]
		_ = s.Spawn(p, CounterBody(tm, 0, c))
	}
	s.Run(steps)
	for i := 0; i < nProcs; i++ {
		counts[model.Proc(i+1)] = cells[i]
	}
	return counts
}

// CrashSweep crashes process 1 at every step offset in [1, sweep] (one
// fresh run per offset) and returns the worst-case commit count
// process 2 achieves in the following steps. A zero result means some
// crash point blocks the survivor forever — the TM does not ensure
// solo progress under crashes.
func CrashSweep(factory Factory, steps, sweep int, seed uint64) int {
	worst := -1
	for crashAt := 1; crashAt <= sweep; crashAt++ {
		got := crashRun(factory, steps, crashAt, seed)
		if worst < 0 || got < worst {
			worst = got
		}
	}
	return worst
}

func crashRun(factory Factory, steps, crashAt int, seed uint64) int {
	tm := factory(2, 1)
	s := sim.New(sim.NewSeeded(seed))
	defer s.Close()
	var c1, c2 int
	_ = s.Spawn(1, CounterBody(tm, 0, &c1))
	_ = s.Spawn(2, CounterBody(tm, 0, &c2))
	s.Run(crashAt)
	s.Crash(1)
	before := c2
	s.Run(steps)
	return c2 - before
}

// Parasitic runs a parasitic writer (process 1) against a correct
// counter process (process 2) on the same variable under a fair
// seeded schedule and returns the survivor's commits in the second
// half of the run (the first half is warm-up: the parasite needs a few
// steps to establish itself, and the survivor may have a transaction
// in flight). Zero means the parasite defeats the TM.
func Parasitic(factory Factory, steps int, seed uint64) int {
	return ParasiticUnder(factory, sim.NewSeeded(seed), steps)
}

// ParasiticBiased is Parasitic under an adversarial schedule that
// gives the parasite `bias` slices per survivor slice. Liveness claims
// are worst-case over schedules: an obstruction-free TM survives a
// parasite under a fair schedule (observing its own abort costs the
// parasite a slice) but loses once the parasite gets enough slices to
// re-acquire inside the survivor's commit window.
func ParasiticBiased(factory Factory, steps, bias int) int {
	pattern := make([]model.Proc, 0, (bias+1)*steps)
	for len(pattern) < (bias+1)*steps {
		for i := 0; i < bias; i++ {
			pattern = append(pattern, 1)
		}
		pattern = append(pattern, 2)
	}
	return ParasiticUnder(factory, &sim.Fixed{Schedule: pattern}, steps)
}

// ParasiticUnder is the schedule-parameterized core of Parasitic.
func ParasiticUnder(factory Factory, policy sim.Policy, steps int) int {
	tm := factory(2, 1)
	s := sim.New(policy)
	defer s.Close()
	var c2 int
	_ = s.Spawn(1, ParasiticWriterBody(tm, 0))
	_ = s.Spawn(2, CounterBody(tm, 0, &c2))
	s.Run(steps / 2)
	before := c2
	s.Run(steps - steps/2)
	return c2 - before
}

// SuspensionStall runs two counter processes, suspends process 1 for
// `pause` steps mid-run (wherever it happens to be — possibly holding
// locks), and returns the survivor's commits during the suspension and
// after process 1 resumes. It measures the paper's §1.2 distinction:
// a slow process is not a crashed one — blocking TMs stall *during*
// the suspension yet recover afterwards, while resilient TMs never
// stall.
func SuspensionStall(factory Factory, warm, pause, after int, seed uint64) (during, recovered int) {
	tm := factory(2, 1)
	s := sim.New(sim.NewSeeded(seed))
	defer s.Close()
	var c1, c2 int
	_ = s.Spawn(1, CounterBody(tm, 0, &c1))
	_ = s.Spawn(2, CounterBody(tm, 0, &c2))
	s.Run(warm)
	s.Suspend(1, pause)
	at := c2
	s.Run(pause)
	during = c2 - at
	at = c2
	s.Run(after)
	recovered = c2 - at
	return during, recovered
}

// Conformance runs the shared safety conformance suite: sequential
// memory semantics, committed-write visibility, well-formedness and
// opacity of randomized concurrent histories.
func Conformance(t *testing.T, factory Factory) {
	t.Helper()

	t.Run("sequential semantics", func(t *testing.T) {
		tm := factory(1, 2)
		env := sim.Background(1)
		mustRead := func(x model.TVar, want model.Value) {
			t.Helper()
			v, st := tm.Read(env, x)
			if st != stm.OK || v != want {
				t.Fatalf("read x%d = %d,%v; want %d,ok", x, v, st, want)
			}
		}
		mustRead(0, 0)
		if st := tm.Write(env, 0, 7); st != stm.OK {
			t.Fatalf("write: %v", st)
		}
		mustRead(0, 7) // own write
		mustRead(1, 0) // other variable untouched
		if st := tm.TryCommit(env); st != stm.OK {
			t.Fatalf("commit: %v", st)
		}
		mustRead(0, 7) // committed value in the next transaction
		if st := tm.TryCommit(env); st != stm.OK {
			t.Fatalf("read-only commit: %v", st)
		}
	})

	t.Run("committed visibility", func(t *testing.T) {
		// A seeded (randomized-fair) schedule, not a metronome round-
		// robin: under strict alternation a reader that commits
		// read-only transactions can starve an Fgp writer forever (the
		// reader's commits land exactly inside the writer's window —
		// the impossibility pattern of §4). Fairness-in-expectation is
		// the right assumption for a convergence check.
		tm := factory(2, 1)
		s := sim.New(sim.NewSeeded(77))
		defer s.Close()
		var order []model.Value
		_ = s.Spawn(1, func(env *sim.Env) {
			// Retry the whole transaction on any abort: retrying only
			// the commit would commit an empty transaction and lose
			// the write.
			for {
				if tm.Write(env, 0, 41) != stm.OK {
					continue
				}
				if tm.TryCommit(env) == stm.OK {
					return
				}
			}
		})
		_ = s.Spawn(2, func(env *sim.Env) {
			for {
				v, st := tm.Read(env, 0)
				if st != stm.OK {
					continue
				}
				if tm.TryCommit(env) == stm.OK {
					order = append(order, v)
					if v == 41 {
						return
					}
				}
			}
		})
		s.Run(5000)
		if len(order) == 0 || order[len(order)-1] != 41 {
			t.Fatalf("reader never observed the committed 41: %v", order)
		}
	})

	t.Run("no dirty reads", func(t *testing.T) {
		// p1 writes 99 and parks without committing; p2 must never be
		// *returned* 99 — it may read the old value, abort, or block,
		// but the uncommitted value must stay invisible.
		tm := factory(2, 1)
		s := sim.New(sim.NewSeeded(31))
		defer s.Close()
		_ = s.Spawn(1, func(env *sim.Env) {
			tm.Write(env, 0, 99)
			for {
				env.Yield()
			}
		})
		sawDirty := false
		_ = s.Spawn(2, func(env *sim.Env) {
			for {
				if v, st := tm.Read(env, 0); st == stm.OK && v == 99 {
					sawDirty = true
					return
				}
				tm.TryCommit(env)
			}
		})
		s.Run(3000)
		if sawDirty {
			t.Fatal("reader observed an uncommitted write")
		}
	})

	t.Run("snapshot consistency", func(t *testing.T) {
		// p2 reads x twice in one transaction while p1 commits a
		// change in between (across many interleavings): the two reads
		// must agree whenever both return.
		for seed := uint64(1); seed <= 6; seed++ {
			tm := factory(2, 1)
			s := sim.New(sim.NewSeeded(seed * 101))
			inconsistent := false
			_ = s.Spawn(1, func(env *sim.Env) {
				for i := model.Value(1); ; i++ {
					if tm.Write(env, 0, i) != stm.OK {
						continue
					}
					tm.TryCommit(env)
				}
			})
			_ = s.Spawn(2, func(env *sim.Env) {
				for {
					v1, st := tm.Read(env, 0)
					if st != stm.OK {
						continue
					}
					v2, st := tm.Read(env, 0)
					if st != stm.OK {
						continue
					}
					if v1 != v2 {
						inconsistent = true
						return
					}
					tm.TryCommit(env)
				}
			})
			s.Run(4000)
			s.Close()
			if inconsistent {
				t.Fatalf("seed %d: two reads in one transaction disagreed", seed)
			}
		}
	})

	t.Run("opacity random", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			h := randomHistory(t, factory, seed)
			if err := model.CheckWellFormed(h); err != nil {
				t.Fatalf("seed %d: malformed history: %v\n%s", seed, err, h)
			}
			res, err := safety.CheckOpacity(h)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.Holds {
				t.Fatalf("seed %d: history not opaque: %s\n%s", seed, res.Reason, h)
			}
		}
	})
}

// randomHistory drives 2 processes × ≤3 committed transactions over 2
// variables and returns the recorded history (kept small so the
// opacity checker stays fast).
func randomHistory(t *testing.T, factory Factory, seed uint64) model.History {
	t.Helper()
	rec := stm.NewRecorder(factory(2, 2))
	s := sim.New(sim.NewSeeded(seed))
	defer s.Close()
	state := seed | 1
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for i := 0; i < 2; i++ {
		p := model.Proc(i + 1)
		_ = s.Spawn(p, func(env *sim.Env) {
			committed := 0
			for committed < 3 {
				ops := next(3) + 1
				aborted := false
				for j := 0; j < ops && !aborted; j++ {
					x := model.TVar(next(2))
					if next(2) == 0 {
						if _, st := rec.Read(env, x); st != stm.OK {
							aborted = true
						}
					} else {
						if st := rec.Write(env, x, model.Value(next(3))); st != stm.OK {
							aborted = true
						}
					}
				}
				if aborted {
					continue
				}
				if rec.TryCommit(env) == stm.OK {
					committed++
				}
			}
		})
	}
	s.Run(20000)
	return rec.History()
}
