// Package tstruct implements shared data structures on top of
// transactional memory, the layering §2.1 of the paper describes:
// base objects (t-variables) below, shared objects (queue, set,
// register file) above, with every operation running as one
// transaction via workload.Atomically.
//
// The structures map their state onto dense t-variable ranges so they
// can coexist in one TM instance: each structure is given a base
// offset and a capacity at construction.
//
// No production code imports the structures, so they live in test files:
// the package is test-only.
package tstruct

import (
	"errors"
	"fmt"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/workload"
)

// ErrFull is returned when a bounded structure has no room.
var ErrFull = errors.New("tstruct: structure is full")

// ErrEmpty is returned when there is nothing to take.
var ErrEmpty = errors.New("tstruct: structure is empty")

// Queue is a bounded FIFO queue. Layout (relative to base):
//
//	base+0: head index, base+1: tail index, base+2..base+2+cap: slots
//
// Indices grow without bound; slot = index mod capacity.
type Queue struct {
	tm   stm.TM
	base model.TVar
	cap  int
}

// NewQueue returns a queue of the given capacity using t-variables
// [base, base+2+capacity).
func NewQueue(tm stm.TM, base model.TVar, capacity int) (*Queue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("tstruct: queue capacity %d must be positive", capacity)
	}
	return &Queue{tm: tm, base: base, cap: capacity}, nil
}

// Vars returns the number of t-variables the queue occupies.
func (q *Queue) Vars() int { return q.cap + 2 }

func (q *Queue) head() model.TVar { return q.base }
func (q *Queue) tail() model.TVar { return q.base + 1 }
func (q *Queue) slot(i model.Value) model.TVar {
	return q.base + 2 + model.TVar(int(i)%q.cap)
}

// Enqueue appends v, retrying until the enclosing transaction
// commits. It returns ErrFull when the queue is full at commit time.
func (q *Queue) Enqueue(env *sim.Env, v model.Value) error {
	var full bool
	workload.Atomically(q.tm, env, func(tx *workload.Tx) {
		head, tail := tx.Read(q.head()), tx.Read(q.tail())
		full = int(tail-head) >= q.cap
		if full {
			return
		}
		tx.Write(q.slot(tail), v)
		tx.Write(q.tail(), tail+1)
	})
	if full {
		return ErrFull
	}
	return nil
}

// Dequeue removes and returns the oldest element, or ErrEmpty.
func (q *Queue) Dequeue(env *sim.Env) (model.Value, error) {
	var (
		empty bool
		v     model.Value
	)
	workload.Atomically(q.tm, env, func(tx *workload.Tx) {
		head, tail := tx.Read(q.head()), tx.Read(q.tail())
		empty = head == tail
		if empty {
			return
		}
		v = tx.Read(q.slot(head))
		tx.Write(q.head(), head+1)
	})
	if empty {
		return 0, ErrEmpty
	}
	return v, nil
}

// Len returns the current length (in its own transaction).
func (q *Queue) Len(env *sim.Env) int {
	var n int
	workload.Atomically(q.tm, env, func(tx *workload.Tx) {
		n = int(tx.Read(q.tail()) - tx.Read(q.head()))
	})
	return n
}

// Set is a fixed-capacity integer set stored as an unordered array
// with a size field. Layout: base+0: size, base+1..: elements.
// Membership scans are whole-set reads, making Contains a snapshot
// operation — a natural generator of large read sets for conflict
// studies.
type Set struct {
	tm   stm.TM
	base model.TVar
	cap  int
}

// NewSet returns a set of the given capacity using t-variables
// [base, base+1+capacity).
func NewSet(tm stm.TM, base model.TVar, capacity int) (*Set, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("tstruct: set capacity %d must be positive", capacity)
	}
	return &Set{tm: tm, base: base, cap: capacity}, nil
}

// Vars returns the number of t-variables the set occupies.
func (s *Set) Vars() int { return s.cap + 1 }

func (s *Set) size() model.TVar              { return s.base }
func (s *Set) elem(i model.Value) model.TVar { return s.base + 1 + model.TVar(i) }

// Add inserts v; it reports whether the set changed and returns
// ErrFull when v is absent and there is no room.
func (s *Set) Add(env *sim.Env, v model.Value) (bool, error) {
	var (
		added bool
		full  bool
	)
	workload.Atomically(s.tm, env, func(tx *workload.Tx) {
		added, full = false, false
		n := tx.Read(s.size())
		for i := model.Value(0); i < n; i++ {
			if tx.Read(s.elem(i)) == v {
				return // already present
			}
		}
		if int(n) >= s.cap {
			full = true
			return
		}
		tx.Write(s.elem(n), v)
		tx.Write(s.size(), n+1)
		added = true
	})
	if full {
		return false, ErrFull
	}
	return added, nil
}

// Remove deletes v (swap-with-last); it reports whether the set
// changed.
func (s *Set) Remove(env *sim.Env, v model.Value) bool {
	var removed bool
	workload.Atomically(s.tm, env, func(tx *workload.Tx) {
		removed = false
		n := tx.Read(s.size())
		for i := model.Value(0); i < n; i++ {
			if tx.Read(s.elem(i)) == v {
				last := tx.Read(s.elem(n - 1))
				tx.Write(s.elem(i), last)
				tx.Write(s.size(), n-1)
				removed = true
				return
			}
		}
	})
	return removed
}

// Contains reports membership with a full-snapshot read.
func (s *Set) Contains(env *sim.Env, v model.Value) bool {
	var found bool
	workload.Atomically(s.tm, env, func(tx *workload.Tx) {
		found = false
		n := tx.Read(s.size())
		for i := model.Value(0); i < n; i++ {
			if tx.Read(s.elem(i)) == v {
				found = true
				return
			}
		}
	})
	return found
}

// Len returns the cardinality.
func (s *Set) Len(env *sim.Env) int {
	var n model.Value
	workload.Atomically(s.tm, env, func(tx *workload.Tx) {
		n = tx.Read(s.size())
	})
	return int(n)
}

// Snapshot returns the elements as of one transaction.
func (s *Set) Snapshot(env *sim.Env) []model.Value {
	var out []model.Value
	workload.Atomically(s.tm, env, func(tx *workload.Tx) {
		out = out[:0]
		n := tx.Read(s.size())
		for i := model.Value(0); i < n; i++ {
			out = append(out, tx.Read(s.elem(i)))
		}
	})
	return out
}
