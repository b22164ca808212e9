// Package safety decides the two safety properties of the paper on
// finite histories: opacity and strict serializability (§2.4).
//
// A finite history H is opaque iff there is a sequential history Hs
// equivalent to com(H) that preserves the real-time order of com(H)
// and in which every transaction is legal. Strict serializability is
// the same condition applied to the committed projection of H.
//
// Two searches decide them. CheckOpacity, CheckStrictSerializability
// and CheckOpacityNaive look for one witness: they walk the linear
// extensions of the real-time partial order with incremental legality
// pruning and memoization on (placed-set, committed-state) pairs, and
// return the serialization they found or the deepest obstacle. The
// segment checkers — CheckOpacitySegmented and StreamChecker — need
// more than a witness, because different witnesses of one segment may
// leave different committed snapshots to the next: they both call one kernel (kernel.go) that returns every
// feasible final snapshot. It compiles the segment to flat slabs and
// bit masks, searches by apply/undo on one value slice with an
// exact-keyed memo, reuses the checker's scratch from segment to segment, and
// places — rather than branches on — every transaction that commutes
// with all the unplaced ones that could still precede it, so only
// transactions that really conflict cost search. Both searches are
// exponential in the worst case — deciding opacity is NP-hard in
// general — so callers keep the checked windows small.
//
// Both represent transaction sets as 64-bit masks, capping any single
// search window at 64 transactions; exceeding the cap (either directly
// in CheckOpacity/CheckStrictSerializability, or by asking
// CheckOpacitySegmented for a segment budget above 64) is reported as
// ErrTooManyTransactions, detectable with errors.Is. Longer histories
// go through CheckOpacitySegmented, which splits at quiescent cuts so
// each search stays within the cap.
package safety

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"livetm/internal/model"
)

// ErrTooManyTransactions is returned when a history has more
// transactions than the checker's search representation supports.
var ErrTooManyTransactions = errors.New("safety: history exceeds 64 transactions")

// Result is the outcome of a safety check.
type Result struct {
	// Holds reports whether the property is satisfied.
	Holds bool
	// Witness is a serialization order proving the property when Holds
	// is true: the transactions of the (completed or committed-
	// projected) history in a legal real-time-preserving order.
	Witness []*model.Transaction
	// Reason explains a violation when Holds is false.
	Reason string
	// Explored counts the serialization prefixes visited by the
	// search; it is reported for the checker-ablation benchmark.
	Explored int
}

// WitnessHistory renders the witness as a complete sequential history,
// or nil when the property does not hold.
func (r Result) WitnessHistory() model.History {
	if !r.Holds {
		return nil
	}
	return model.SequentialHistory(r.Witness)
}

// CheckOpacity decides whether the finite history is opaque.
//
// Completion follows the paper's reference [18] (Guerraoui & Kapałka,
// Principles of Transactional Memory) rather than the preprint's
// coarser com(H): a live transaction whose pending invocation is tryC
// is *commit-pending* and may be completed as either committed or
// aborted; every other live transaction is aborted. The distinction
// matters for helping TMs — a crashed committer's transaction can be
// finished by a helper, making its writes visible even though the
// crashed process never receives its commit event (found by the
// crash-exhaustive model checker in internal/explore).
func CheckOpacity(h model.History) (Result, error) {
	txns, err := model.Transactions(h)
	if err != nil {
		return Result{}, fmt.Errorf("opacity: %w", err)
	}
	return serialize(txns, true)
}

// CheckStrictSerializability decides whether the finite history is
// strictly serializable.
func CheckStrictSerializability(h model.History) (Result, error) {
	hcom, err := model.CommittedProjection(h)
	if err != nil {
		return Result{}, fmt.Errorf("strict serializability: %w", err)
	}
	txns, err := model.Transactions(hcom)
	if err != nil {
		return Result{}, fmt.Errorf("strict serializability: %w", err)
	}
	return serialize(txns, true)
}

// commitPending reports whether the transaction is live with a
// pending tryC invocation: the TM may have decided its fate without
// the process learning it, so completion may commit or abort it.
func commitPending(t *model.Transaction) bool {
	return t.Status == model.Live && t.PendingInv != nil && t.PendingInv.Kind == model.InvTryCommit
}

// completedAs returns a copy of t completed with the given status,
// for witness construction.
func completedAs(t *model.Transaction, st model.TxnStatus) *model.Transaction {
	c := *t
	c.Status = st
	if st == model.Committed {
		c.Ops = append(append([]model.Op(nil), t.Ops...), model.Op{Kind: model.OpTryCommit})
		c.PendingInv = nil
	}
	return &c
}

// serialize searches for a legal linear extension of the real-time
// order over txns. With prune set, it discards prefixes as soon as a
// placed transaction is illegal; without, it only checks legality of
// complete orders (the naive variant kept for the ablation benchmark).
// Commit-pending transactions branch over both completions.
func serialize(txns []*model.Transaction, prune bool) (Result, error) {
	n := len(txns)
	if n > 64 {
		return Result{}, ErrTooManyTransactions
	}
	if n == 0 {
		return Result{Holds: true}, nil
	}

	// preds[i] is the bitmask of transactions that must precede i.
	preds := make([]uint64, n)
	for i, a := range txns {
		for j, b := range txns {
			if i != j && b.Precedes(a) {
				preds[i] |= 1 << uint(j)
			}
		}
	}

	s := &searcher{txns: txns, preds: preds, prune: prune, failed: make(map[string]bool)}
	order := make([]placement, 0, n)
	found := s.dfs(0, make(model.Snapshot), order)
	res := Result{Holds: found, Explored: s.explored}
	if found {
		res.Witness = make([]*model.Transaction, n)
		for i, pl := range s.witness {
			t := txns[pl.idx]
			switch {
			case t.Status != model.Live:
				res.Witness[i] = t
			case pl.committed:
				res.Witness[i] = completedAs(t, model.Committed)
			default:
				res.Witness[i] = completedAs(t, model.Aborted)
			}
		}
		return res, nil
	}
	res.Reason = s.reason()
	return res, nil
}

// placement records one serialized transaction and, for commit-pending
// ones, the chosen completion.
type placement struct {
	idx       int
	committed bool
}

type searcher struct {
	txns     []*model.Transaction
	preds    []uint64
	prune    bool
	failed   map[string]bool // memo of (placed, state) prefixes known not to extend
	witness  []placement
	explored int
	lastErr  error // deepest legality violation seen, for diagnostics
	lastLen  int
}

func (s *searcher) dfs(placed uint64, state model.Snapshot, order []placement) bool {
	n := len(s.txns)
	if len(order) == n {
		if !s.prune {
			// The naive variant validates the complete order here.
			ordered := make([]*model.Transaction, n)
			for i, pl := range order {
				t := s.txns[pl.idx]
				if t.Status == model.Live {
					st := model.Aborted
					if pl.committed {
						st = model.Committed
					}
					t = completedAs(t, st)
				}
				ordered[i] = t
			}
			if err := model.LegalSequence(ordered); err != nil {
				s.note(err, n)
				return false
			}
		}
		s.witness = append([]placement(nil), order...)
		return true
	}
	// Memoization is sound only when pruning: with pruning, every
	// prefix reaching (placed, state) is already known legal, so
	// extendability depends only on (placed, state). The naive variant
	// validates whole orders at the leaves, where the prefix matters.
	var key string
	if s.prune {
		key = memoKey(placed, state)
		if s.failed[key] {
			return false
		}
	}
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || s.preds[i]&^placed != 0 {
			continue
		}
		t := s.txns[i]
		commits := []bool{t.Status == model.Committed}
		if commitPending(t) {
			// Branch: complete the pending tryC as aborted, then as
			// committed.
			commits = []bool{false, true}
		}
		for _, asCommitted := range commits {
			s.explored++
			if s.prune {
				if err := model.LegalInState(t, state); err != nil {
					s.note(err, len(order))
					break // legality does not depend on the completion
				}
			}
			next := state
			if asCommitted {
				ws := t.WriteSet()
				if len(ws) > 0 {
					next = state.Clone()
					next.Apply(ws)
				}
			}
			if s.dfs(placed|bit, next, append(order, placement{idx: i, committed: asCommitted})) {
				return true
			}
		}
	}
	if s.prune {
		s.failed[key] = true
	}
	return false
}

func (s *searcher) note(err error, depth int) {
	if depth >= s.lastLen {
		s.lastLen = depth
		s.lastErr = err
	}
}

func (s *searcher) reason() string {
	ids := make([]string, len(s.txns))
	for i, t := range s.txns {
		ids[i] = t.ID()
	}
	msg := fmt.Sprintf("no legal real-time-preserving serialization of {%s} exists", strings.Join(ids, ", "))
	if s.lastErr != nil {
		msg += "; deepest obstacle: " + s.lastErr.Error()
	}
	return msg
}

// memoKey canonically encodes a search state. Only committed writes are
// in the snapshot, so two prefixes with the same placed set and the
// same resulting state are interchangeable. The witness search keys its
// memo with it at every node (the segment search in kernel.go has its
// own exact table and never builds a string), hence the hand-rolled
// formatting: insertion sort over the handful of touched variables and
// strconv appends, no fmt machinery.
func memoKey(placed uint64, state model.Snapshot) string {
	vars := make([]model.TVar, 0, len(state))
	for x := range state {
		vars = append(vars, x)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	buf := make([]byte, 0, 16+12*len(vars))
	buf = strconv.AppendUint(buf, placed, 16)
	buf = append(buf, '|')
	for _, x := range vars {
		buf = strconv.AppendInt(buf, int64(x), 10)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(state[x]), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// CheckOpacityNaive is CheckOpacity without incremental pruning:
// complete orders are generated first and validated afterwards. It
// exists to quantify the value of pruning (DESIGN.md §5) and must
// agree with CheckOpacity on every history.
func CheckOpacityNaive(h model.History) (Result, error) {
	txns, err := model.Transactions(h)
	if err != nil {
		return Result{}, fmt.Errorf("opacity (naive): %w", err)
	}
	return serialize(txns, false)
}
