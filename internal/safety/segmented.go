package safety

import (
	"errors"
	"fmt"

	"livetm/internal/model"
)

// The monolithic checker is exponential in the number of transactions,
// which caps it at small histories. Long histories from the simulator,
// however, usually have *quiescent cuts*: moments where no transaction
// is live. Transactions entirely before a cut precede (in real time)
// all transactions entirely after it, so every real-time-preserving
// serialization is a serialization of the first part followed by one
// of the second — the parts only communicate through the committed
// snapshot. CheckOpacitySegmented exploits this: it splits the history
// at quiescent cuts into segments of bounded size and propagates the
// set of feasible committed snapshots across segments. Each segment's
// set comes from the exact search in kernel.go, which returns every
// snapshot some legal serialization of the segment can end in — one
// witness would not do, since the next segment may only be explainable
// from another's final state.
//
// This is sound and complete: it accepts exactly the opaque histories
// among those it can segment. Histories with no suitable cuts (a
// transaction spanning everything) fall back to the caller's choice.

// ErrNoQuiescentCut is returned when the history cannot be split into
// segments of the requested size.
var ErrNoQuiescentCut = errors.New("safety: no quiescent cut within the segment budget")

// SegmentedResult reports the outcome of a segmented opacity check.
type SegmentedResult struct {
	Holds    bool
	Segments int
	// Reason explains the violation (the failing segment) when Holds
	// is false.
	Reason string
	// Approx reports that the verdict was reached through forced
	// serialization frontiers (the streaming checker's bounded-overlap
	// fallback, see StreamChecker.WithApproxFallback): ordering
	// constraints across a forced frontier were not searched, so the
	// verdict is an explicit approximation, not a decision.
	Approx bool
	// ForcedCuts counts the forced frontiers the verdict rests on.
	ForcedCuts int
	// RelaxedStraddlers counts transactions carried across a forced
	// frontier whose reads had to be waived to serialize a later
	// segment: their reads pinned mid-window states whose explaining
	// writers were already flushed, so they are unverifiable rather
	// than wrong (see StreamChecker).
	RelaxedStraddlers int
}

// CheckOpacitySegmented decides opacity of a (possibly long) history
// by splitting it at quiescent cuts into segments of at most
// maxTxnsPerSegment transactions each.
func CheckOpacitySegmented(h model.History, maxTxnsPerSegment int) (SegmentedResult, error) {
	if maxTxnsPerSegment <= 0 {
		return SegmentedResult{}, fmt.Errorf("safety: segment budget %d must be positive", maxTxnsPerSegment)
	}
	if maxTxnsPerSegment > 64 {
		// The same cap as the monolithic checker, reported with the
		// same sentinel so callers handle one error either way.
		return SegmentedResult{}, fmt.Errorf("%w: segment budget %d exceeds the 64-transaction search cap", ErrTooManyTransactions, maxTxnsPerSegment)
	}
	txns, err := model.Transactions(h)
	if err != nil {
		return SegmentedResult{}, fmt.Errorf("segmented opacity: %w", err)
	}
	if len(txns) == 0 {
		return SegmentedResult{Holds: true, Segments: 0}, nil
	}

	segments, err := segment(txns, maxTxnsPerSegment)
	if err != nil {
		return SegmentedResult{}, err
	}

	// Propagate the feasible committed snapshots segment by segment.
	states := []model.Snapshot{make(model.Snapshot)}
	var kernel finalsKernel
	for i, seg := range segments {
		next, err := kernel.feasibleFinals(seg, states, 0)
		if err != nil {
			return SegmentedResult{}, err
		}
		if len(next) == 0 {
			return SegmentedResult{
				Holds:    false,
				Segments: len(segments),
				Reason:   fmt.Sprintf("segment %d of %d (transactions %s..%s) admits no legal serialization from any feasible predecessor state", i+1, len(segments), seg[0].ID(), seg[len(seg)-1].ID()),
			}, nil
		}
		states = next
	}
	return SegmentedResult{Holds: true, Segments: len(segments)}, nil
}

// segment splits the transactions (ordered by first event) at
// quiescent cuts so each segment has at most max transactions. A cut
// before transaction i is quiescent when every earlier transaction
// ends before transaction i's first event.
func segment(txns []*model.Transaction, max int) ([][]*model.Transaction, error) {
	// maxLast[i] = max Last over txns[0..i].
	maxLast := make([]int, len(txns))
	running := -1
	for i, t := range txns {
		if t.Last > running {
			running = t.Last
		}
		// A live transaction extends to the end of the history.
		if t.Status == model.Live {
			running = int(^uint(0) >> 1)
		}
		maxLast[i] = running
	}
	var out [][]*model.Transaction
	start := 0
	for start < len(txns) {
		// The largest end such that txns[start:end] ≤ max and end is a
		// quiescent cut (or the end of the history).
		end := -1
		for e := start + 1; e <= len(txns) && e-start <= max; e++ {
			if e == len(txns) || maxLast[e-1] < txns[e].First {
				end = e
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("%w: %d concurrent transactions at %s", ErrNoQuiescentCut, max+1, txns[start].ID())
		}
		out = append(out, txns[start:end])
		start = end
	}
	return out, nil
}
