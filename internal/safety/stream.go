package safety

import (
	"errors"
	"fmt"
	"math/bits"

	"livetm/internal/model"
)

// ErrNoQuiescentCut is returned when a stretch of a history without a
// quiescent cut holds more transactions than the segment budget.
var ErrNoQuiescentCut = errors.New("safety: no quiescent cut within the segment budget")

// SegmentedResult reports the outcome of a streamed opacity check.
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

// StreamChecker decides opacity of a history fed one event at a time,
// in bounded memory.
//
// Long histories usually have quiescent cuts: points where no
// transaction is open. Transactions entirely before a cut precede, in
// real time, all transactions entirely after it, so every
// real-time-preserving serialization is one of the part before
// followed by one of the part after: the parts communicate only
// through the committed snapshot. Events therefore buffer only while
// some transaction is open. At every quiescent cut the buffered
// segment is checked against the feasible committed snapshots so far
// and discarded, so memory and each search are bounded by one cut-free
// stretch. One witness per segment would not do, since the next
// segment may only be explainable from another serialization's final
// state, so the check is the exact search of kernel.go: it returns every
// committed snapshot a legal serialization of the segment can end in,
// branching only among transactions that conflict — the processes of a
// cut-free stretch that work on different variables are placed in one
// pass — and the checker parses and searches in storage it keeps, so a
// steady stream costs one small allocation per segment. This is sound
// and complete: it accepts exactly the opaque histories among those it
// can cut, and reports a violation at the earliest cut after it. A
// stretch that accumulates more than maxTxnsPerSegment completed
// transactions without quiescing is refused with ErrNoQuiescentCut
// instead of buffering without bound, and so is a final stretch — its
// live transactions included — past the search's 64-transaction cap.
//
// A violation is terminal: Feed reports it once, wrapped around
// ErrStreamNotOpaque, and Finish keeps returning the failing verdict.
// Any other error is terminal too, and Feed and Finish keep returning
// it.
//
// A checker with WithApproxFallback set does not refuse cut-starved
// streams: when the budget overflows with transactions still open, it
// forces a serialization frontier — the completed transactions in the
// buffer are checked and flushed as a segment even though open
// transactions overlap the cut, and the final snapshots of that
// check are propagated — and the verdict degrades to an explicit
// approximation (SegmentedResult.Approx). A transaction carried open
// across a frontier (a straddler) may have read mid-window values
// whose explaining writers were just flushed: its reads are
// unverifiable, not wrong, so when the straddler later completes its
// read legality is waived (SegmentedResult.RelaxedStraddlers counts
// the waivers) while its write set still applies. Waiving — rather
// than judging those reads against over-approximated intermediate
// snapshots — both avoids false alarms (two straddlers pinning
// different mid-window states admit no single serialization path) and
// keeps the propagated states exact for everyone else (a straddler's
// stale reads must not steer the feasible set onto a stale branch).
// The cost is an explicit miss window: a violation whose only
// evidence is a straddler's own reads goes undetected once a frontier
// fires. Everything inside one window, and every non-straddler
// transaction, is still searched exactly.
type StreamChecker struct {
	max      int
	buf      model.History
	states   []model.Snapshot
	segments int
	// parser, kernel and flushed are scratch the flushes reuse: the
	// segment's transactions live in the parser until the next parse,
	// the kernel holds the compiled segment and its search, and flushed
	// holds the window a forced frontier splits off the buffer.
	parser  model.Parser
	kernel  finalsKernel
	flushed model.History

	openTxn   map[model.Proc]bool
	openCount int
	txnsInBuf int // completed transactions in the buffer

	approx bool // bounded-overlap fallback enabled
	forced int  // forced frontiers taken
	// straddler marks processes whose open transaction was carried
	// across the last forced frontier; see the type comment for why
	// such a transaction's reads are waived. relaxed counts the
	// waivers.
	straddler map[model.Proc]bool
	relaxed   int

	done   bool  // violation, error or Finish reached
	err    error // the terminal error, if any
	holds  bool
	reason string

	tel LaneTelemetry // push-style telemetry (bare by default)
}

// ErrStreamNotOpaque wraps the verdict a StreamChecker returns from
// Feed at the moment a segment admits no legal serialization.
var ErrStreamNotOpaque = fmt.Errorf("safety: streamed history is not opaque")

// NewStreamChecker creates a checker with the given per-segment
// transaction budget, 1 to 64.
func NewStreamChecker(maxTxnsPerSegment int) (*StreamChecker, error) {
	if maxTxnsPerSegment <= 0 {
		return nil, fmt.Errorf("safety: segment budget %d must be positive", maxTxnsPerSegment)
	}
	if maxTxnsPerSegment > 64 {
		return nil, fmt.Errorf("%w: segment budget %d exceeds the 64-transaction search cap", ErrTooManyTransactions, maxTxnsPerSegment)
	}
	return &StreamChecker{
		max:       maxTxnsPerSegment,
		states:    []model.Snapshot{make(model.Snapshot)},
		openTxn:   make(map[model.Proc]bool),
		straddler: make(map[model.Proc]bool),
		tel:       LaneTelemetry{}.orBare(),
	}, nil
}

// WithTelemetry routes the checker's counters (segments, forced
// frontiers, waived reads) and its buffered-event backlog into the
// given instruments, so a concurrent scraper can watch the lane
// without racing the checking goroutine. Returns c.
func (c *StreamChecker) WithTelemetry(t LaneTelemetry) *StreamChecker {
	c.tel = t.orBare()
	return c
}

// WithApproxFallback enables the bounded-overlap sliding-window
// fallback: a cut-starved stretch is flushed at a forced serialization
// frontier instead of refused with ErrNoQuiescentCut, and every
// verdict from then on is marked approximate. The segment budget is
// clamped to 63 so a forced window of budget+1 completed transactions
// stays inside the 64-transaction search cap. Returns c.
func (c *StreamChecker) WithApproxFallback() *StreamChecker {
	c.approx = true
	if c.max > 63 {
		c.max = 63
	}
	return c
}

// bufferedEvery is how often, in buffered events, Feed refreshes the
// Buffered gauge between flushes: often enough that a cut-starved
// backlog shows, rarely enough that the gauge's shared write stays off
// the per-event path. Every flush and forced flush sets it exactly.
const bufferedEvery = 64

// Feed consumes one event. A non-nil error is terminal: either the
// stream revealed an opacity violation (errors.Is ErrStreamNotOpaque),
// exceeded the segment budget with no quiescent cut (errors.Is
// ErrNoQuiescentCut), or was malformed.
func (c *StreamChecker) Feed(e model.Event) error {
	if c.done {
		switch {
		case c.err != nil:
			return c.err
		case !c.holds:
			return fmt.Errorf("%w: %s", ErrStreamNotOpaque, c.reason)
		}
		return fmt.Errorf("safety: Feed after Finish")
	}
	c.buf = append(c.buf, e)
	if len(c.buf)%bufferedEvery == 0 {
		c.tel.Buffered.Set(int64(len(c.buf)))
	}
	p := e.Proc
	switch {
	case e.Kind.IsInvocation():
		if !c.openTxn[p] {
			c.openTxn[p] = true
			c.openCount++
		}
	case e.Kind == model.RespCommit || e.Kind == model.RespAbort:
		if c.openTxn[p] {
			c.openTxn[p] = false
			c.openCount--
		}
		c.txnsInBuf++
	}
	// The budget check comes first: a cut-free stretch of max+1
	// completed transactions is refused even if its last event happens
	// to quiesce the buffer, so no segment exceeds the budget and every
	// feasibleFinals call stays within the 64-transaction search cap.
	// With the fallback enabled the stretch is flushed at a forced
	// frontier instead.
	if c.txnsInBuf > c.max {
		if !c.approx {
			return c.fail(fmt.Errorf("%w: %d concurrent transactions without a quiescent point", ErrNoQuiescentCut, c.txnsInBuf))
		}
		return c.forceFlush()
	}
	if c.openCount == 0 && c.txnsInBuf > 0 {
		return c.flush()
	}
	return nil
}

// forceFlush is the bounded-overlap fallback: the completed
// transactions in the buffer are checked and discarded as one segment
// at a frontier that open transactions still straddle. The events of
// open transactions stay buffered — each process's remaining
// subsequence is intact, so the buffer stays a well-formed history —
// and every later verdict is approximate.
func (c *StreamChecker) forceFlush() error {
	txns, err := c.parser.Parse(c.buf)
	if err != nil {
		return c.fail(fmt.Errorf("streaming opacity: %w", err))
	}
	keepFrom := make(map[model.Proc]int, c.openCount)
	for _, t := range txns {
		if t.Status == model.Live {
			// A process's live transaction is its last; everything of
			// that process from its first event on stays buffered.
			keepFrom[t.Proc] = t.First
		}
	}
	seg, kept := c.flushed[:0], c.buf[:0]
	for i, e := range c.buf {
		if from, ok := keepFrom[e.Proc]; ok && i >= from {
			kept = append(kept, e)
		} else {
			seg = append(seg, e)
		}
	}
	c.flushed, c.buf = seg, kept
	c.forced++
	c.tel.Forced.Inc()
	txns, err = c.parser.Parse(seg)
	if err != nil {
		return c.fail(fmt.Errorf("streaming opacity: %w", err))
	}
	c.segments++
	c.tel.Segments.Inc()
	// The frontier propagates the final snapshots of serializing the
	// flushed window — not the visited intermediates — so post-frontier
	// transactions are re-checked against exactly the states a real cut
	// would have left. The straddlers' pre-frontier reads, the one
	// thing only an intermediate state could explain, are waived when
	// they complete (see the type comment), here as in every later
	// segment.
	finals, err := c.kernel.feasibleFinals(txns, c.states, c.waiveMask(txns))
	if err != nil {
		return c.fail(err)
	}
	if len(finals) == 0 {
		c.done, c.holds = true, false
		c.reason = fmt.Sprintf("forced segment %d (transactions %s..%s) admits no legal serialization from any feasible predecessor state (approximate: at forced frontier %d)",
			c.segments, txns[0].ID(), txns[len(txns)-1].ID(), c.forced)
		return fmt.Errorf("%w: %s", ErrStreamNotOpaque, c.reason)
	}
	c.states = finals
	// Every transaction carried across this frontier is a straddler for
	// the windows ahead; everything else (including previous
	// straddlers, now flushed) is not.
	c.straddler = make(map[model.Proc]bool, len(keepFrom))
	for p := range keepFrom {
		c.straddler[p] = true
	}
	c.txnsInBuf = 0
	c.tel.Buffered.Set(int64(len(c.buf)))
	return nil
}

// waiveMask returns the bitmask over txns selecting each straddler
// process's first transaction — the one whose opening half predates
// the last forced frontier — and counts the waivers.
func (c *StreamChecker) waiveMask(txns []*model.Transaction) uint64 {
	if len(c.straddler) == 0 {
		return 0
	}
	var mask uint64
	seen := make(map[model.Proc]bool, len(c.straddler))
	for i, t := range txns {
		if !seen[t.Proc] {
			seen[t.Proc] = true
			if c.straddler[t.Proc] {
				mask |= 1 << uint(i)
			}
		}
	}
	if n := bits.OnesCount64(mask); n > 0 {
		c.relaxed += n
		c.tel.Relaxed.Add(uint64(n))
	}
	return mask
}

// flush checks the buffered segment — the history since the previous
// quiescent cut — against the feasible snapshots and discards it. The
// straddlers of the last forced frontier are flushed with it.
func (c *StreamChecker) flush() error {
	next, violation, err := c.checkSegment(c.buf)
	if err != nil {
		return c.fail(err)
	}
	if violation != "" {
		c.done, c.holds, c.reason = true, false, violation
		return fmt.Errorf("%w: %s", ErrStreamNotOpaque, violation)
	}
	c.states = next
	c.buf = c.buf[:0]
	c.txnsInBuf = 0
	c.tel.Buffered.Set(0)
	if len(c.straddler) > 0 {
		c.straddler = make(map[model.Proc]bool)
	}
	return nil
}

// checkSegment propagates the feasible committed snapshots through one
// segment, with the reads of frontier straddlers waived. A non-empty
// violation string means no legal serialization exists from any
// feasible predecessor state.
func (c *StreamChecker) checkSegment(seg model.History) ([]model.Snapshot, string, error) {
	txns, err := c.parser.Parse(seg)
	if err != nil {
		return nil, "", fmt.Errorf("streaming opacity: %w", err)
	}
	if len(txns) == 0 {
		return c.states, "", nil
	}
	if len(txns) > 64 {
		// Only the final segment can get here: it is the one that may
		// hold live transactions on top of the budget.
		return nil, "", fmt.Errorf("%w: %d transactions after the last quiescent point", ErrNoQuiescentCut, len(txns))
	}
	c.segments++
	c.tel.Segments.Inc()
	next, err := c.kernel.feasibleFinals(txns, c.states, c.waiveMask(txns))
	if err != nil {
		return nil, "", err
	}
	if len(next) == 0 {
		return nil, fmt.Sprintf("segment %d (transactions %s..%s) admits no legal serialization from any feasible predecessor state",
			c.segments, txns[0].ID(), txns[len(txns)-1].ID()), nil
	}
	return next, "", nil
}

// Finish checks whatever remains buffered — including live and
// commit-pending transactions, which only the final segment may
// contain — and returns the verdict for the whole streamed history.
// Finish is terminal; the checker cannot be fed afterwards, and every
// later Finish returns what the first did.
func (c *StreamChecker) Finish() (SegmentedResult, error) {
	if c.err != nil {
		return SegmentedResult{}, c.err
	}
	if c.done {
		return c.result(), nil
	}
	c.done = true
	next, violation, err := c.checkSegment(c.buf)
	if err != nil {
		return SegmentedResult{}, c.fail(err)
	}
	c.buf = nil
	if violation != "" {
		c.holds, c.reason = false, violation
		if c.forced > 0 {
			c.reason = fmt.Sprintf("%s (approximate: after %d forced frontiers)", violation, c.forced)
		}
	} else {
		c.holds = true
		c.states = next
	}
	return c.result(), nil
}

// fail makes err the checker's terminal answer and returns it.
func (c *StreamChecker) fail(err error) error {
	c.done, c.err = true, err
	return err
}

// result snapshots the terminal verdict, marking it approximate when
// any forced frontier contributed to it.
func (c *StreamChecker) result() SegmentedResult {
	return SegmentedResult{
		Holds:             c.holds,
		Segments:          c.segments,
		Reason:            c.reason,
		Approx:            c.forced > 0,
		ForcedCuts:        c.forced,
		RelaxedStraddlers: c.relaxed,
	}
}
