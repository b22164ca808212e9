// Package linear decides linearizability of concurrent histories of
// abstract data types — the correctness notion for the shared-object
// layer of §2.1 (data structures implemented over a TM). Where package
// safety works at the t-variable read/write level, this package works
// at the operation level (enqueue/dequeue, add/remove/contains): an
// operation log is linearizable iff there is a total order of the
// operations, consistent with their real-time intervals, that is legal
// for the type's sequential specification.
//
// The search mirrors the opacity checker: a DFS over order prefixes
// with incremental legality pruning and memoization on
// (placed-set, state) pairs (Wing & Gong style).
//
// No production code imports the checker, so it lives in test files:
// the package is test-only.
package linear

import (
	"errors"
	"fmt"
	"strings"
)

// Op is one completed operation of the concurrent history.
type Op struct {
	// Proc identifies the calling process (operations of one process
	// must already be non-overlapping).
	Proc int
	// Name is the operation name understood by the Spec.
	Name string
	// Arg and Ret are the argument and return value (use 0 when not
	// applicable).
	Arg, Ret int64
	// OK is the operation's boolean outcome (hit/miss, success/full).
	OK bool
	// Start and End are logical timestamps: op A precedes op B in real
	// time iff A.End < B.Start.
	Start, End int
}

// String renders the op compactly.
func (o Op) String() string {
	return fmt.Sprintf("p%d.%s(%d)=(%d,%v)@[%d,%d]", o.Proc, o.Name, o.Arg, o.Ret, o.OK, o.Start, o.End)
}

// Spec is a sequential specification with string-encoded states
// (states are memoization keys, so the encoding must be canonical).
type Spec interface {
	// Initial returns the encoded initial state.
	Initial() string
	// Apply returns the state after op, or false when op is illegal in
	// this state (wrong return value for the given argument/state).
	Apply(state string, op Op) (string, bool)
}

// ErrTooManyOps bounds the search representation.
var ErrTooManyOps = errors.New("linear: history exceeds 64 operations")

// Result is the outcome of a linearizability check.
type Result struct {
	Holds bool
	// Witness is a linearization order (indices into the input ops)
	// when Holds.
	Witness []int
	// Explored counts visited order prefixes.
	Explored int
}

// Check decides whether the operation log is linearizable with respect
// to the spec.
func Check(spec Spec, ops []Op) (Result, error) {
	n := len(ops)
	if n > 64 {
		return Result{}, ErrTooManyOps
	}
	if n == 0 {
		return Result{Holds: true}, nil
	}
	for i, op := range ops {
		if op.End < op.Start {
			return Result{}, fmt.Errorf("linear: op %d has End < Start", i)
		}
	}
	preds := make([]uint64, n)
	for i := range ops {
		for j := range ops {
			if i != j && ops[j].End < ops[i].Start {
				preds[i] |= 1 << uint(j)
			}
		}
	}
	c := &checker{spec: spec, ops: ops, preds: preds, failed: map[string]bool{}}
	order := make([]int, 0, n)
	ok := c.dfs(0, spec.Initial(), order)
	return Result{Holds: ok, Witness: c.witness, Explored: c.explored}, nil
}

type checker struct {
	spec     Spec
	ops      []Op
	preds    []uint64
	failed   map[string]bool
	witness  []int
	explored int
}

func (c *checker) dfs(placed uint64, state string, order []int) bool {
	if len(order) == len(c.ops) {
		c.witness = append([]int(nil), order...)
		return true
	}
	key := fmt.Sprintf("%x|%s", placed, state)
	if c.failed[key] {
		return false
	}
	for i := range c.ops {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || c.preds[i]&^placed != 0 {
			continue
		}
		c.explored++
		next, legal := c.spec.Apply(state, c.ops[i])
		if !legal {
			continue
		}
		if c.dfs(placed|bit, next, append(order, i)) {
			return true
		}
	}
	c.failed[key] = true
	return false
}

// --- Specifications for the tstruct types ---

// QueueSpec is the sequential bounded-FIFO specification matching
// tstruct.Queue: "enqueue" (Arg; OK=false means full) and "dequeue"
// (Ret; OK=false means empty).
type QueueSpec struct {
	// Capacity of the queue; 0 means unbounded.
	Capacity int
}

// Initial implements Spec.
func (QueueSpec) Initial() string { return "" }

// Apply implements Spec.
func (q QueueSpec) Apply(state string, op Op) (string, bool) {
	items := splitState(state)
	switch op.Name {
	case "enqueue":
		full := q.Capacity > 0 && len(items) >= q.Capacity
		if op.OK == full {
			return "", false
		}
		if !op.OK {
			return state, true
		}
		return joinState(append(items, op.Arg)), true
	case "dequeue":
		empty := len(items) == 0
		if op.OK == empty {
			return "", false
		}
		if !op.OK {
			return state, true
		}
		if items[0] != op.Ret {
			return "", false
		}
		return joinState(items[1:]), true
	default:
		return "", false
	}
}

// RegisterSpec is a single read/write register: "write" (Arg) and
// "read" (Ret).
type RegisterSpec struct{}

// Initial implements Spec.
func (RegisterSpec) Initial() string { return "0" }

// Apply implements Spec.
func (RegisterSpec) Apply(state string, op Op) (string, bool) {
	switch op.Name {
	case "write":
		return fmt.Sprintf("%d", op.Arg), true
	case "read":
		return state, state == fmt.Sprintf("%d", op.Ret)
	default:
		return "", false
	}
}

func splitState(s string) []int64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		var v int64
		fmt.Sscanf(p, "%d", &v)
		out[i] = v
	}
	return out
}

func joinState(items []int64) string {
	parts := make([]string, len(items))
	for i, v := range items {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}

// Log collects operations with logical timestamps; a shared *Log is
// safe under the cooperative scheduler (one process runs at a time).
type Log struct {
	clock int
	ops   []Op
}

// Begin stamps an operation start and returns the start time.
func (l *Log) Begin() int {
	l.clock++
	return l.clock
}

// End records a completed operation that began at start.
func (l *Log) End(start int, op Op) {
	l.clock++
	op.Start = start
	op.End = l.clock
	l.ops = append(l.ops, op)
}

// Ops returns the collected operations.
func (l *Log) Ops() []Op { return append([]Op(nil), l.ops...) }
