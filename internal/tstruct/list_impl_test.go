package tstruct

import (
	"fmt"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/workload"
)

// List is a sorted singly-linked integer set over t-variables — the
// IntSet workload of the DSTM paper [14], rebuilt on this repository's
// TM interface. Unlike Set's array scan, membership walks only a
// prefix of the keys, so transactions conflict exactly where their
// search paths overlap.
//
// Layout (relative to base): nodes live in a fixed arena of capacity
// cells, each node occupying two t-variables (key, next); one
// t-variable holds the allocation bump pointer and one holds the head
// link. Node identifiers are 1-based; 0 is the nil link. Freed nodes
// are not recycled (unlinking suffices for set semantics).
type List struct {
	tm   stm.TM
	base model.TVar
	cap  int
}

// NewList returns a sorted-list set with room for capacity nodes,
// using t-variables [base, base+2+2*capacity).
func NewList(tm stm.TM, base model.TVar, capacity int) (*List, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("tstruct: list capacity %d must be positive", capacity)
	}
	return &List{tm: tm, base: base, cap: capacity}, nil
}

// Vars returns the number of t-variables the list occupies.
func (l *List) Vars() int { return 2 + 2*l.cap }

func (l *List) allocVar() model.TVar { return l.base }
func (l *List) headVar() model.TVar  { return l.base + 1 }
func (l *List) keyVar(node model.Value) model.TVar {
	return l.base + 2 + 2*model.TVar(node-1)
}
func (l *List) nextVar(node model.Value) model.TVar {
	return l.base + 3 + 2*model.TVar(node-1)
}

// locate walks the sorted list inside tx and returns the link variable
// that points at the first node with key >= k (the head link if the
// list is empty or k is smallest), plus that node id (0 if none).
// Once tx aborts every Read returns 0, which ends the walk; the body
// then makes no effective write and the attempt is retried.
func (l *List) locate(tx *workload.Tx, k model.Value) (link model.TVar, node model.Value) {
	link = l.headVar()
	node = tx.Read(link)
	for node != 0 {
		if tx.Read(l.keyVar(node)) >= k {
			return link, node
		}
		link = l.nextVar(node)
		node = tx.Read(link)
	}
	return link, node
}

// Insert adds k; it reports whether the set changed and returns
// ErrFull when the arena is exhausted.
func (l *List) Insert(env *sim.Env, k model.Value) (bool, error) {
	var (
		added bool
		full  bool
	)
	workload.Atomically(l.tm, env, func(tx *workload.Tx) {
		added, full = false, false
		link, node := l.locate(tx, k)
		if node != 0 && tx.Read(l.keyVar(node)) == k {
			return // already present
		}
		used := tx.Read(l.allocVar())
		if int(used) >= l.cap {
			full = true
			return
		}
		fresh := used + 1
		tx.Write(l.allocVar(), fresh)
		tx.Write(l.keyVar(fresh), k)
		tx.Write(l.nextVar(fresh), node)
		tx.Write(link, fresh)
		added = true
	})
	if full {
		return false, ErrFull
	}
	return added, nil
}

// Remove deletes k by unlinking its node; it reports whether the set
// changed.
func (l *List) Remove(env *sim.Env, k model.Value) bool {
	var removed bool
	workload.Atomically(l.tm, env, func(tx *workload.Tx) {
		removed = false
		link, node := l.locate(tx, k)
		if node == 0 {
			return
		}
		if tx.Read(l.keyVar(node)) != k {
			return
		}
		tx.Write(link, tx.Read(l.nextVar(node)))
		removed = true
	})
	return removed
}

// Contains reports membership.
func (l *List) Contains(env *sim.Env, k model.Value) bool {
	var found bool
	workload.Atomically(l.tm, env, func(tx *workload.Tx) {
		found = false
		_, node := l.locate(tx, k)
		if node == 0 {
			return
		}
		found = tx.Read(l.keyVar(node)) == k
	})
	return found
}

// Snapshot returns the keys in ascending order as of one transaction.
func (l *List) Snapshot(env *sim.Env) []model.Value {
	var out []model.Value
	workload.Atomically(l.tm, env, func(tx *workload.Tx) {
		out = out[:0]
		node := tx.Read(l.headVar())
		for node != 0 {
			out = append(out, tx.Read(l.keyVar(node)))
			node = tx.Read(l.nextVar(node))
		}
	})
	return out
}
