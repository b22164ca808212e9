// Package sim is the asynchronous shared-memory substrate of the
// reproduction: a deterministic cooperative scheduler in which each
// process runs as a coroutine (iter.Pull) and exactly one process
// advances at a time, between explicit yield points.
//
// Yield points model the base-object accesses of the paper's model
// (§2.1): the scheduler may switch processes, and a process may crash,
// at any yield point — including in the middle of a TM operation while
// the operation holds locks. This reproduces the paper's asynchronous
// crash semantics (a crashed process holds whatever it holds forever)
// without real wall-clock hangs or data races: only one process runs
// at a time, and each switch between the scheduler and a process is a
// coroutine switch, which is a happens-before edge, so the TM
// implementations can use ordinary Go data structures. A step costs
// one switch into the process and one back (~0.2 µs on a 2-vCPU
// Xeon VM) and allocates nothing.
//
// A process body that panics with a value of its own re-panics with
// that value in the caller of Step (or Close); the process is then
// finished.
//
// Determinism: given the same policy (and seed), spawn order, and
// process bodies, runs are bit-for-bit reproducible.
package sim

import (
	"cmp"
	"fmt"
	"iter"
	"slices"

	"livetm/internal/model"
)

// killToken is panicked inside Yield to unwind a process when the
// scheduler shuts down. It never escapes the package: the spawn
// wrapper recovers it. (Panic as control flow is confined to this
// single, documented mechanism.)
type killToken struct{}

// Env is the execution environment handed to a process body. TM
// implementations call Yield at every base-object access; the
// scheduler uses these points for preemption and crashes.
//
// A nil-scheduler Env (from Background) makes Yield a no-op so that TM
// implementations can also be used directly, single-threaded.
type Env struct {
	p     model.Proc
	yield func(struct{}) bool // the coroutine's yield; nil outside a scheduler
}

// Background returns an Env not attached to any scheduler: Yield is a
// no-op. Use it to run TM operations directly from a single goroutine
// (examples, quick tests).
func Background(p model.Proc) *Env { return &Env{p: p} }

// Proc returns the process this environment belongs to.
func (e *Env) Proc() model.Proc { return e.p }

// Yield hands control back to the scheduler; the process resumes when
// scheduled next. Inside a scheduler run this is a potential
// preemption and crash point.
func (e *Env) Yield() {
	if e.yield != nil && !e.yield(struct{}{}) {
		panic(killToken{})
	}
}

// Policy picks which runnable process advances next.
type Policy interface {
	// Next returns the process to run; runnable is non-empty and
	// sorted. It is valid only for the call: the scheduler reuses it,
	// so a policy must not retain it. step is the global step counter.
	Next(runnable []model.Proc, step int) model.Proc
}

// RoundRobin schedules runnable processes in rotating order.
type RoundRobin struct{ last int }

// Next implements Policy.
func (r *RoundRobin) Next(runnable []model.Proc, _ int) model.Proc {
	r.last++
	return runnable[r.last%len(runnable)]
}

// Seeded schedules runnable processes pseudo-randomly but
// deterministically from a seed, using a simple xorshift generator (no
// dependence on math/rand ordering across Go versions).
type Seeded struct{ state uint64 }

// NewSeeded returns a Seeded policy; seed 0 is replaced by 1.
func NewSeeded(seed uint64) *Seeded {
	if seed == 0 {
		seed = 1
	}
	return &Seeded{state: seed}
}

// Next implements Policy.
func (s *Seeded) Next(runnable []model.Proc, _ int) model.Proc {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return runnable[s.state%uint64(len(runnable))]
}

// Fixed replays an explicit schedule of process identifiers. A
// scheduled process that is not runnable is skipped — its entry is
// consumed and the next one is tried — and once the schedule is
// exhausted every choice falls back to the first runnable process.
type Fixed struct {
	Schedule []model.Proc
	pos      int
}

// Next implements Policy.
func (f *Fixed) Next(runnable []model.Proc, _ int) model.Proc {
	for f.pos < len(f.Schedule) {
		p := f.Schedule[f.pos]
		f.pos++
		if slices.Contains(runnable, p) {
			return p
		}
	}
	return runnable[0]
}

type procState struct {
	p           model.Proc
	next        func() (struct{}, bool) // runs the body up to its next Yield
	stop        func()                  // unwinds the body from its current Yield
	done        bool
	crashed     bool
	parked      bool // voluntarily descheduled until Unpark
	suspendedTo int  // not scheduled until the global step counter reaches this
}

// Scheduler coordinates the process coroutines. It is not safe for
// concurrent use: drive it from a single goroutine at a time.
type Scheduler struct {
	policy   Policy
	procs    []*procState // sorted by process identifier
	runnable []model.Proc // scratch handed to the policy at each step
	steps    int
	closed   bool
}

// New returns a scheduler with the given policy (nil means round-
// robin).
func New(policy Policy) *Scheduler {
	if policy == nil {
		policy = &RoundRobin{}
	}
	return &Scheduler{policy: policy}
}

// Steps returns the number of scheduling steps taken so far.
func (s *Scheduler) Steps() int { return s.steps }

func (s *Scheduler) find(p model.Proc) (int, bool) {
	return slices.BinarySearchFunc(s.procs, p, func(ps *procState, p model.Proc) int { return cmp.Compare(ps.p, p) })
}

func (s *Scheduler) lookup(p model.Proc) *procState {
	if i, ok := s.find(p); ok {
		return s.procs[i]
	}
	return nil
}

// Spawn registers process p with the given body. The body starts
// suspended; it first runs when the scheduler picks it. Spawning after
// Close or with a duplicate identifier returns an error.
func (s *Scheduler) Spawn(p model.Proc, body func(*Env)) error {
	if s.closed {
		return fmt.Errorf("sim: scheduler is closed")
	}
	i, dup := s.find(p)
	if dup {
		return fmt.Errorf("sim: process %d already spawned", p)
	}
	env := &Env{p: p}
	ps := &procState{p: p}
	ps.next, ps.stop = iter.Pull(func(yield func(struct{}) bool) {
		env.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killToken); !isKill {
					panic(r)
				}
			}
		}()
		body(env)
	})
	s.procs = slices.Insert(s.procs, i, ps)
	return nil
}

// Crash marks p crashed: it will never be scheduled again, and
// whatever it holds stays held. Crashing an unknown, finished, or
// already crashed process is a no-op.
func (s *Scheduler) Crash(p model.Proc) {
	if ps := s.lookup(p); ps != nil {
		ps.crashed = true
	}
}

// Suspend models a transient stall (§1.2: preemption, page fault,
// I/O): p is not scheduled for the next `steps` global steps and then
// becomes runnable again. Unlike a crash, whatever p holds it will
// eventually release — the distinction the paper draws between slow
// and crashed processes, which the TM itself can never observe.
func (s *Scheduler) Suspend(p model.Proc, steps int) {
	if ps := s.lookup(p); ps != nil && steps > 0 {
		ps.suspendedTo = s.steps + steps
	}
}

// runnableNow fills the scheduler's scratch slice with the processes
// eligible at this step, in identifier order.
func (s *Scheduler) runnableNow() []model.Proc {
	s.runnable = s.runnable[:0]
	for _, ps := range s.procs {
		if !ps.done && !ps.crashed && !ps.parked && s.steps >= ps.suspendedTo {
			s.runnable = append(s.runnable, ps.p)
		}
	}
	return s.runnable
}

// Park voluntarily deschedules p until Unpark: unlike Suspend it is
// event-driven, not timed, so an idle process (a session worker with
// an empty queue) consumes no steps at all while it waits for work —
// matching a process that simply is not there. Parking an unknown or
// finished process is a no-op. A process parks itself by calling Park
// and then yielding; the driver unparks it when there is work.
func (s *Scheduler) Park(p model.Proc) {
	if ps := s.lookup(p); ps != nil {
		ps.parked = true
	}
}

// Unpark makes a parked process schedulable again (no-op otherwise).
func (s *Scheduler) Unpark(p model.Proc) {
	if ps := s.lookup(p); ps != nil {
		ps.parked = false
	}
}

// Runnable returns the processes currently eligible for scheduling
// (spawned, not finished, not crashed), sorted, in a slice the caller
// owns. Systematic schedule exploration uses it to branch on the
// frontier.
func (s *Scheduler) Runnable() []model.Proc {
	if s.closed {
		return nil
	}
	return slices.Clone(s.runnableNow())
}

// Step advances one process by one yield-to-yield slice. It returns
// false when no process is runnable (all finished or crashed). When
// every live process is merely suspended, the step is an idle tick:
// time passes and suspensions expire.
func (s *Scheduler) Step() bool {
	if s.closed {
		return false
	}
	runnable := s.runnableNow()
	if len(runnable) == 0 {
		for _, ps := range s.procs {
			if !ps.done && !ps.crashed && s.steps < ps.suspendedTo {
				s.steps++ // idle tick: only suspended processes remain
				return true
			}
		}
		return false
	}
	ps := s.lookup(s.policy.Next(runnable, s.steps))
	s.steps++
	ps.done = true // stays set if the body returns or panics
	_, more := ps.next()
	ps.done = !more
	return true
}

// Run calls Step until no process is runnable or maxSteps steps have
// been taken. It returns the number of steps executed in this call.
func (s *Scheduler) Run(maxSteps int) int {
	n := 0
	for n < maxSteps && s.Step() {
		n++
	}
	return n
}

// Close unwinds every process still suspended at a yield point
// (including crashed, parked and suspended ones; deferred calls in
// their bodies run) so that no coroutine leaks. A process that never
// started never runs its body. The scheduler cannot be used
// afterwards.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ps := range s.procs {
		if !ps.done {
			ps.stop()
			ps.done = true
		}
	}
}
