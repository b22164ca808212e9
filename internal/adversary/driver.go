package adversary

import (
	"fmt"

	"livetm/internal/model"
)

// Strategy selects one of the paper's environment strategies and its
// fault variant. The zero value is invalid; use Variants or set
// Algorithm explicitly.
type Strategy struct {
	// Algorithm is 1 or 2.
	//
	// Algorithm 1 (§4) is the strategy used in parasitic-free systems:
	//
	//	Step 1: p1 reads x (response v1 or A1).
	//	Step 2: p2 reads x, writes v+1, tries to commit — repeated until
	//	        the commit succeeds.
	//	Step 3: if p1's read succeeded, p1 writes v+1 and tries to
	//	        commit; on any abort the algorithm returns to Step 1.
	//
	// Algorithm 2 (§5) is the strategy used in crash-free systems:
	//
	//	Step 1: p1 reads x; then p2 reads x, writes v+1, and tries to
	//	        commit. Step 1 repeats until p2's commit succeeds.
	//	Step 2: if p1's last response was a value, p1 writes v+1 and
	//	        tries to commit; any abort goes back to Step 1.
	//
	// Without a fault variant p1 is aborted infinitely often (Figures
	// 10 and 13).
	Algorithm int
	// Crash crashes p1 right after its first successful read, so only
	// Step 2 repeats forever — the Figure 9 variant of Algorithm 1.
	Crash bool
	// Parasitic makes p1 keep reading forever, never attempting to
	// commit — the Figure 12 variant of Algorithm 2.
	Parasitic bool
}

// Name returns the strategy's report name: "alg1", "alg1-crash",
// "alg2" or "alg2-parasitic".
func (s Strategy) Name() string {
	name := fmt.Sprintf("alg%d", s.Algorithm)
	if s.Crash {
		name += "-crash"
	}
	if s.Parasitic {
		name += "-parasitic"
	}
	return name
}

func (s Strategy) validate() error {
	if s.Algorithm != 1 && s.Algorithm != 2 {
		return fmt.Errorf("adversary: algorithm must be 1 or 2, got %d", s.Algorithm)
	}
	if s.Crash && s.Algorithm != 1 {
		return fmt.Errorf("adversary: the crash variant (Figure 9) belongs to Algorithm 1")
	}
	if s.Parasitic && s.Algorithm != 2 {
		return fmt.Errorf("adversary: the parasitic variant (Figure 12) belongs to Algorithm 2")
	}
	return nil
}

// Variants returns the four strategy variants of the paper's figures:
// Algorithm 1 plain (Figure 10) and with the p1 crash (Figure 9),
// Algorithm 2 plain (Figure 13) and with the parasitic p1 (Figure 12).
func Variants() []Strategy {
	return []Strategy{
		{Algorithm: 1},
		{Algorithm: 1, Crash: true},
		{Algorithm: 2},
		{Algorithm: 2, Parasitic: true},
	}
}

// StepResult is the outcome of one driver action.
type StepResult struct {
	// Val is the value a successful read returned.
	Val model.Value
	// OK reports the action succeeded: the read returned a value, the
	// transaction committed. False means the operation (or the attempt
	// it belonged to) aborted.
	OK bool
	// Blocked reports the substrate exhausted its budget — scheduler
	// steps on the simulated substrate, the block timeout on an
	// interactive transaction — with the action still pending: the TM
	// blocked the process.
	Blocked bool
}

// Driver runs the strategies' per-process actions on one substrate
// family. The strategy logic (drive) is substrate-agnostic. SimDriver
// steps the cooperative scheduler under each call; TxDriver issues each
// action as operations of an interactive transaction, which a native
// session parks on a worker between operations, in process or over the
// wire. Process indices are 1 (the victim) and 2 (the committer).
type Driver interface {
	// Read lets process p issue one read of x in its open transaction,
	// beginning one if none is open, and reports the response.
	Read(p int) StepResult
	// Finish lets p write v+1 — v being its last read value — and try
	// to commit its open transaction. OK means the commit succeeded.
	Finish(p int, v model.Value) StepResult
	// Attempt lets p run one whole transaction attempt — read x, write
	// the value plus one, try to commit — and reports the outcome.
	Attempt(p int) StepResult
	// Crash removes p from the run: it takes no further steps, and
	// whatever it holds (an open transaction, a lock) stays held.
	Crash(p int)
}

// Outcome is the substrate-independent result of one adversary run.
type Outcome struct {
	// Rounds is the number of completed p2 commits.
	Rounds int
	// P1Committed reports whether p1 ever committed. Against an opaque
	// TM this must be false (Theorem 1); true means the run found a
	// safety violation.
	P1Committed bool
	// Blocked reports the TM blocked the adversary: some action never
	// completed within the substrate budget, so from that point on
	// nobody commits.
	Blocked bool
}

// LocalProgressViolated reports that p1 never committed, and nothing
// more: it is !P1Committed, not the liveness class a monitor gives the
// run. The sampled run is then consistent with a violation of local
// progress when p1 is correct (in the infinite continuation it is
// aborted or retries forever, or everyone blocks, yet pending); under
// a strategy that crashes p1 it is not, since p1 is not correct there.
func (o Outcome) LocalProgressViolated() bool { return !o.P1Committed }

// drive executes strategy s against driver d for up to cfg.Rounds p2
// commits. It is the one copy of Algorithms 1 and 2: both substrates
// run exactly this loop.
func drive(d Driver, s Strategy, cfg Config) Outcome {
	var o Outcome
	crashed := false
	for o.Rounds < cfg.Rounds && !o.P1Committed {
		// Step 1 (both algorithms): p1 reads x.
		var read StepResult
		if !crashed {
			read = d.Read(1)
			if read.Blocked {
				o.Blocked = true
				return o
			}
		}
		if s.Algorithm == 1 {
			if s.Crash && read.OK && !crashed {
				d.Crash(1)
				crashed = true
			}
			// Step 2: p2 reads x, writes v+1 and tries to commit,
			// repeated until the commit succeeds.
			for {
				a := d.Attempt(2)
				if a.Blocked {
					o.Blocked = true
					return o
				}
				if a.OK {
					break
				}
			}
			o.Rounds++
			// Step 3: if p1's read succeeded, p1 writes v+1 and tries
			// to commit; on any abort the algorithm returns to Step 1.
			if !crashed && read.OK {
				f := d.Finish(1, read.Val)
				if f.Blocked {
					o.Blocked = true
					return o
				}
				o.P1Committed = f.OK
			}
		} else {
			// Algorithm 2, Step 1 continued: p2 makes one attempt; if
			// it aborts, Step 1 repeats (p1 reads again).
			a := d.Attempt(2)
			if a.Blocked {
				o.Blocked = true
				return o
			}
			if !a.OK {
				continue
			}
			o.Rounds++
			if s.Parasitic {
				continue // p1 never takes Step 2: it only ever reads
			}
			// Step 2: if p1's last response was a value, p1 writes v+1
			// and tries to commit; any abort goes back to Step 1.
			if read.OK {
				f := d.Finish(1, read.Val)
				if f.Blocked {
					o.Blocked = true
					return o
				}
				o.P1Committed = f.OK
			}
		}
	}
	return o
}
