package safety

import (
	"fmt"
	"math/bits"

	"livetm/internal/model"
)

// StreamChecker decides opacity of a history fed one event at a time,
// in bounded memory: the incremental counterpart of
// CheckOpacitySegmented, built on the same quiescent-cut argument and
// the same feasible-snapshot propagation.
//
// Events buffer only while some transaction is open. At every
// quiescent cut — a point where no transaction is open — the buffered
// segment is checked against the feasible committed snapshots so far
// and discarded, so memory and each search are bounded by one cut-free
// stretch. The check is the exact search of kernel.go: it returns every
// committed snapshot a legal serialization of the segment can end in,
// branching only among transactions that conflict — the processes of a
// cut-free stretch that work on different variables are placed in one
// pass — and the checker parses and searches in storage it keeps, so a
// steady stream costs one small allocation per segment. A stretch that
// accumulates more than maxTxnsPerSegment completed transactions
// without quiescing is refused with ErrNoQuiescentCut instead of
// buffering without bound, mirroring the segmented checker's
// ErrTooManyTransactions regime.
//
// Checking at every cut or only at the forced flushes of
// CheckOpacitySegmented propagates the same snapshot sets — the states
// feasible at a cut are a function of the cut, not of the flush
// schedule — so the two checkers agree wherever both decide; the
// streaming one simply reports violations at the earliest cut.
//
// A violation is terminal: Feed reports it once, wrapped around
// ErrStreamNotOpaque, and Finish keeps returning the failing verdict.
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

	done   bool // violation or Finish reached
	holds  bool
	reason string

	tel LaneTelemetry // push-style telemetry (bare by default)
}

// ErrStreamNotOpaque wraps the verdict a StreamChecker returns from
// Feed at the moment a segment admits no legal serialization.
var ErrStreamNotOpaque = fmt.Errorf("safety: streamed history is not opaque")

// NewStreamChecker creates a checker with the given per-segment
// transaction budget (1 to 64, like CheckOpacitySegmented).
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

// Segments returns the number of segments checked so far.
func (c *StreamChecker) Segments() int { return c.segments }

// ForcedCuts returns the number of forced serialization frontiers
// taken so far (always 0 without WithApproxFallback).
func (c *StreamChecker) ForcedCuts() int { return c.forced }

// Buffered returns the number of events currently buffered.
func (c *StreamChecker) Buffered() int { return len(c.buf) }

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
		if !c.holds {
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
	// to quiesce the buffer, matching CheckOpacitySegmented's "at most
	// max per segment" and keeping every feasibleFinals call within
	// the 64-transaction search cap. With the fallback enabled the
	// stretch is flushed at a forced frontier instead.
	if c.txnsInBuf > c.max {
		if !c.approx {
			return fmt.Errorf("%w: %d concurrent transactions without a quiescent point", ErrNoQuiescentCut, c.txnsInBuf)
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
		return fmt.Errorf("streaming opacity: %w", err)
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
		return fmt.Errorf("streaming opacity: %w", err)
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
		return err
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
		return err
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
// Finish is terminal; the checker cannot be fed afterwards.
func (c *StreamChecker) Finish() (SegmentedResult, error) {
	if c.done {
		return c.result(), nil
	}
	c.done = true
	next, violation, err := c.checkSegment(c.buf)
	if err != nil {
		return SegmentedResult{}, err
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
