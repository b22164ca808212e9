package native

import (
	"runtime"
	"sync/atomic"
)

// DefaultBackoffCap is the ceiling on the exponential spin shift: no
// attempt ever spins more than 1<<DefaultBackoffCap hints between
// retries, whatever the retry round. The cap defines the policy's
// dynamic range — the starvation bias moves a process at most MaxBias
// shifts inside it — and is surfaced through engine stats so runs can
// report the range their contention management operated in.
const DefaultBackoffCap = 10

// starveBias is the adjustment Rebias applies to processes whose
// measured starvation stands out from the mean.
const starveBias = 2

// Backoff is a shared, tunable retry-backoff policy. Every process of
// one run waits through the same policy; the per-process bias shifts
// an individual process's exponential spin bound so a contention
// manager (the live monitor's starvation feedback) can favour starved
// processes over hot ones. All methods are safe for concurrent use.
type Backoff struct {
	cap  int32
	bias []atomic.Int32
}

// NewBackoff creates a policy for procs processes (zero-based index)
// with the default cap and neutral bias.
func NewBackoff(procs int) *Backoff {
	return NewBackoffCap(procs, DefaultBackoffCap)
}

// NewBackoffCap creates a policy with an explicit spin-shift cap. A
// non-positive cap degrades to pure runtime.Gosched backoff.
func NewBackoffCap(procs, cap int) *Backoff {
	if cap < 0 {
		cap = 0
	}
	b := &Backoff{cap: int32(cap)}
	if procs > 0 {
		b.bias = make([]atomic.Int32, procs)
	}
	return b
}

// defaultBackoff is the policy behind plain Atomically: default cap,
// no per-process bias.
var defaultBackoff = NewBackoff(0)

// Cap returns the spin-shift ceiling.
func (b *Backoff) Cap() int { return int(b.cap) }

// Bias returns process proc's current shift adjustment (0 for
// processes outside the policy's range).
func (b *Backoff) Bias(proc int) int {
	if proc < 0 || proc >= len(b.bias) {
		return 0
	}
	return int(b.bias[proc].Load())
}

// BiasSnapshot returns a copy of every process's current bias.
func (b *Backoff) BiasSnapshot() []int {
	out := make([]int, len(b.bias))
	for p := range b.bias {
		out[p] = int(b.bias[p].Load())
	}
	return out
}

// Rebias derives every process's bias from its measured starvation
// interval (events since its last commit, as accounted by the online
// monitor): a process starved beyond twice the mean interval backs
// off less, a process committing well inside half the mean backs off
// more, and everyone else returns to neutral. Entries beyond the
// policy's process range are ignored.
func (b *Backoff) Rebias(starvation []int) {
	n := len(starvation)
	if n > len(b.bias) {
		n = len(b.bias)
	}
	total := 0
	for _, s := range starvation[:n] {
		total += s
	}
	if n == 0 || total == 0 {
		return
	}
	mean := float64(total) / float64(n)
	for p := 0; p < n; p++ {
		s := float64(starvation[p])
		switch {
		case s > 2*mean:
			b.bias[p].Store(-starveBias)
		case 2*s < mean:
			b.bias[p].Store(starveBias)
		default:
			b.bias[p].Store(0)
		}
	}
}

// shift is the effective spin shift of process proc on retry round:
// round adjusted by the process's bias, clamped to [0, cap].
func (b *Backoff) shift(proc, round int) int {
	s := round + b.Bias(proc)
	if s < 0 {
		s = 0
	}
	if s > int(b.cap) {
		s = int(b.cap)
	}
	return s
}

// wait spins with exponentially growing bounds and yields the
// processor once the bound saturates, so retry storms under heavy
// contention do not starve the committer holding the locks.
func (b *Backoff) wait(proc, round int) {
	if round <= 0 {
		return
	}
	saturated := round+b.Bias(proc) >= int(b.cap)
	if saturated {
		runtime.Gosched()
	}
	for i := 0; i < 1<<b.shift(proc, round); i++ {
		spinHint()
	}
}
