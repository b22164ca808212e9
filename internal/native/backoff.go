package native

import (
	"runtime"
	"sync/atomic"
)

// backoffCap is the ceiling on the exponential spin shift: no attempt
// ever spins more than 1<<backoffCap hints between retries, whatever
// the retry round or bias. The starvation bias moves a process at most
// MaxBias shifts inside it.
const backoffCap = 10

// starveBias is the adjustment Rebias applies to processes whose
// measured starvation stands out from the mean.
const starveBias = 2

// Backoff is a shared retry-backoff policy. Every process of one run
// waits through the same policy; the per-process bias shifts an
// individual process's exponential spin bound so a contention manager
// (the live monitor's starvation feedback, see Rebias) can favour
// starved processes over hot ones. All methods are safe for concurrent
// use.
//
// The feedback is kept on measurement. Against a build without it, in
// two sets of 10 alternated pairs of `livetm serve -workers 4
// -submitters 8 -duration 3s` per cell on a 2-vCPU Xeon VM (go1.24.0),
// it gave the lower largest per-process max starvation in 14 of 20
// pairs on writeheavy/hot (medians 130k vs 147k events) and 15 of 20 on
// writeheavy/cold (113k vs 147k), and fewer aborts in 15 of 20 on
// update/hot and on writeheavy/cold; the build without it committed
// more in 13 and 14 of 20 on the two hot cells. Every run was opaque
// and classed local progress.
type Backoff struct {
	bias []atomic.Int32
}

// NewBackoff creates a policy for procs processes (zero-based index)
// with neutral bias.
func NewBackoff(procs int) *Backoff {
	return &Backoff{bias: make([]atomic.Int32, procs)}
}

// defaultBackoff is the policy behind plain Atomically: no
// per-process bias.
var defaultBackoff = NewBackoff(0)

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
// round adjusted by the process's bias, clamped to [0, backoffCap].
func (b *Backoff) shift(proc, round int) int {
	return min(max(round+b.Bias(proc), 0), backoffCap)
}

// wait spins with exponentially growing bounds and yields the
// processor once the bound saturates, so retry storms under heavy
// contention do not starve the committer holding the locks.
func (b *Backoff) wait(proc, round int) {
	if round <= 0 {
		return
	}
	saturated := round+b.Bias(proc) >= backoffCap
	if saturated {
		runtime.Gosched()
	}
	for i := 0; i < 1<<b.shift(proc, round); i++ {
		spinHint()
	}
}
