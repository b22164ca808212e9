// Package safety decides the two safety properties of the paper on
// finite histories: opacity and strict serializability (§2.4).
//
// A finite history H is opaque iff there is a sequential history Hs
// equivalent to com(H) that preserves the real-time order of com(H)
// and in which every transaction is legal. Strict serializability is
// the same condition applied to the committed projection of H.
//
// One search decides them (kernel.go). It returns every committed
// snapshot a legal real-time-preserving serialization of a segment can
// end in, from a set of feasible start snapshots. It compiles the
// segment to flat slabs and bit masks, searches by apply/undo on one
// value slice with an exact-keyed memo, and places — rather than
// branches on — every transaction that commutes with all the unplaced
// ones that could still precede it, so only transactions that really
// conflict cost search. It is exponential in the worst case — deciding
// opacity is NP-hard in general — and holds a segment's transaction
// sets in 64-bit masks, so no segment exceeds 64 transactions.
//
// CheckOpacity and CheckStrictSerializability are the front door.
// A history of at most 64 transactions is one segment, searched once
// from the initial state; the search stops at the first serialization,
// which the Result returns as its witness. A longer history goes
// through a StreamChecker, which cuts it at quiescent points — where
// no transaction is live — and propagates the feasible snapshots from
// segment to segment. Such a verdict carries no witness, and a
// cut-free stretch of more than 64 transactions is refused with
// ErrNoQuiescentCut, detectable with errors.Is. Live monitors feed a
// StreamChecker directly.
package safety

import (
	"errors"
	"fmt"
	"strings"

	"livetm/internal/model"
)

// ErrTooManyTransactions is returned when a segment has more
// transactions than the search's 64-bit masks can hold.
var ErrTooManyTransactions = errors.New("safety: history exceeds 64 transactions")

// Result is the outcome of a safety check.
type Result struct {
	// Holds reports whether the property is satisfied.
	Holds bool
	// Witness is a serialization order proving the property when Holds
	// is true: the transactions of the (completed or committed-
	// projected) history in a legal real-time-preserving order. A
	// history of more than 64 transactions is decided without one.
	Witness []*model.Transaction
	// Reason explains a violation when Holds is false.
	Reason string
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
	return check(h, txns)
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
	return check(hcom, txns)
}

// check decides the opacity of h, whose transactions are txns: in one
// search with a witness within the 64-transaction cap, and segment by
// segment at quiescent cuts past it.
func check(h model.History, txns []*model.Transaction) (Result, error) {
	if len(txns) > 64 {
		return checkStream(h)
	}
	var k finalsKernel
	witness, obstacle := k.serialization(txns)
	if witness != nil {
		return Result{Holds: true, Witness: witness}, nil
	}
	ids := make([]string, len(txns))
	for i, t := range txns {
		ids[i] = t.ID()
	}
	reason := fmt.Sprintf("no legal real-time-preserving serialization of {%s} exists", strings.Join(ids, ", "))
	if obstacle != nil {
		reason += "; deepest obstacle: " + obstacle.Error()
	}
	return Result{Reason: reason}, nil
}

// checkStream decides the opacity of a history past the search's cap
// on a StreamChecker with the full 64-transaction budget.
func checkStream(h model.History) (Result, error) {
	c, err := NewStreamChecker(64)
	if err != nil {
		return Result{}, err
	}
	for _, e := range h {
		if err := c.Feed(e); err != nil {
			if !errors.Is(err, ErrStreamNotOpaque) {
				return Result{}, err
			}
			break
		}
	}
	res, err := c.Finish()
	if err != nil {
		return Result{}, err
	}
	return Result{Holds: res.Holds, Reason: res.Reason}, nil
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
