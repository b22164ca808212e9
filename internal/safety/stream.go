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
// real-time-preserving serialization is one of the part before followed
// by one of the part after: the parts communicate only through the
// committed snapshot. Feed therefore keeps one window: the transactions
// since the last cut, in first-event order, each assembled in place as
// its events arrive. Each process has a slot that holds its open
// transaction and its pending invocation; an operation joins the
// transaction when the response arrives, so no event is kept once it is
// answered, and the transaction moves into the window position it took
// at its first event when it completes. At every quiescent cut the
// window is checked against the feasible committed snapshots so far and
// discarded, so memory and each search are bounded by one cut-free
// stretch. One witness per segment would not do, since the next segment
// may only be explainable from another serialization's final state, so
// the check is the exact search of kernel.go: it returns every
// committed snapshot a legal serialization of the segment can end in,
// branching only among transactions that conflict — the processes of a
// cut-free stretch that work on different variables are placed in one
// pass. The window and the search reuse the storage they keep, so a
// warm checker allocates only for the snapshots a segment adds to the
// feasible set. This is sound and complete: it accepts exactly the
// opaque histories among those it can cut, and reports a violation at
// the earliest cut after it. A stretch that accumulates more than
// maxTxnsPerSegment completed transactions without quiescing is refused
// with ErrNoQuiescentCut instead of growing the window without bound,
// and so is a final stretch — its live transactions included — past the
// search's 64-transaction cap.
//
// A transaction's First and Last are positions in the whole stream and
// its Seq counts its process's transactions from the start of the
// stream, so a violation's reason names transactions as the stream
// does: T1.100 is process 1's 101st.
//
// A violation is terminal: Feed reports it once, wrapped around
// ErrStreamNotOpaque, and Finish keeps returning the failing verdict.
// Any other error is terminal too, and Feed and Finish keep returning
// it.
//
// A checker with WithApproxFallback set does not refuse cut-starved
// streams: when the budget overflows with transactions still open, it
// forces a serialization frontier — the completed transactions in the
// window are checked and flushed as a segment even though open
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
// A writer that has invoked tryC may already have published, so when a
// completed transaction of the window read or wrote one of its
// variables after that invocation, the writer goes out with the forced
// window as commit-pending, completed both ways by the search, and its
// later C or A response is dropped: its fate goes unchecked, which can
// hide a violation but never raise one. Other writers straddle, since
// each one completed both ways doubles the feasible snapshots.
type StreamChecker struct {
	max      int
	states   []model.Snapshot
	segments int
	kernel   finalsKernel

	// slots holds each process's slot at its id. win is the window:
	// the transactions since the last cut in first-event order, a live
	// one as a placeholder its slot fills when it completes. ops holds
	// the operations of the window's completed transactions, and seg is
	// the window as the kernel takes it.
	slots model.ProcTable[procSlot]
	win   []winTxn
	ops   []model.Op
	seg   []*model.Transaction

	pos       int   // stream position of the next event
	held      int   // events held in the window's transactions
	completed int   // completed transactions in the window; the rest are live
	pulled    int   // live transactions the forced window takes along
	bad       error // a malformed event Feed has yet to report

	approx  bool // bounded-overlap fallback enabled
	forced  int  // forced frontiers taken
	relaxed int  // straddler reads waived; see the type comment

	done   bool  // violation, error or Finish reached
	err    error // the terminal error, if any
	holds  bool
	reason string

	tel LaneTelemetry // push-style telemetry (bare by default)
}

// procSlot is one process's state in the stream.
type procSlot struct {
	// txn is the process's open transaction, assembled in place; its
	// Ops storage is kept from one transaction to the next.
	txn model.Transaction
	at  int32        // txn's window position while it is open
	cur model.Cursor // the process's place in its alphabet
	seq int          // transactions the process has opened in the stream
	// straddler marks an open transaction carried across the last
	// forced frontier; the check that first includes it waives its
	// reads and clears the mark.
	straddler bool
	// flushed marks a commit-pending transaction that went out with a
	// forced window: its C or A response is dropped.
	flushed bool
}

// winTxn is a window entry: a transaction, Live while its process's
// slot still assembles it, and the process.
type winTxn struct {
	t    model.Transaction
	proc model.Proc
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
		max:    maxTxnsPerSegment,
		states: []model.Snapshot{make(model.Snapshot)},
		tel:    LaneTelemetry{}.orBare(),
	}, nil
}

// WithTelemetry routes the checker's counters (segments, forced
// frontiers, waived reads) and its backlog of held events into the
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

// bufferedEvery is how often, in held events, Feed refreshes the
// Buffered gauge between flushes: often enough that a cut-starved
// backlog shows, rarely enough that the gauge's shared write stays off
// the per-event path. Every flush and forced flush sets it exactly.
const bufferedEvery = 64

// Feed consumes one event. A non-nil error is terminal: either the
// stream revealed an opacity violation (errors.Is ErrStreamNotOpaque),
// exceeded the segment budget with no quiescent cut (errors.Is
// ErrNoQuiescentCut), or was malformed. A malformed event that ends a
// transaction is reported at once; any other is reported by the next
// Feed or Finish, since it cannot complete a window.
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
	if c.bad != nil {
		return c.fail(c.bad)
	}
	if err := c.step(e); err != nil {
		if model.StatusAfter(e) == model.Live {
			c.bad = err
			return nil
		}
		return c.fail(err)
	}
	if c.held%bufferedEvery == 0 {
		c.tel.Buffered.Set(int64(c.held))
	}
	// The budget check comes first: a cut-free stretch of max+1
	// completed transactions is refused even if its last event happens
	// to quiesce the window, so no segment exceeds the budget and every
	// feasibleFinals call stays within the 64-transaction search cap.
	// With the fallback enabled the stretch is flushed at a forced
	// frontier instead.
	if c.completed > c.max {
		if !c.approx {
			return c.fail(fmt.Errorf("%w: %d concurrent transactions without a quiescent point", ErrNoQuiescentCut, c.completed))
		}
		return c.flush(true)
	}
	if c.completed == len(c.win) && c.completed > 0 {
		return c.flush(false)
	}
	return nil
}

// step checks the event against its process's alphabet and adds it to
// the process's open transaction: an invocation opens one when there
// is none, and a response completes the pending operation.
func (c *StreamChecker) step(e model.Event) error {
	pos := c.pos
	c.pos++
	s := c.slots.At(e.Proc)
	if s == nil {
		return fmt.Errorf("streaming opacity: event %d (%s): non-positive process id", pos, e)
	}
	if e.Kind.IsInvocation() && !s.cur.InTxn {
		c.open(s, e.Proc, pos)
	}
	op, answered, err := s.cur.Step(e)
	if err != nil {
		return fmt.Errorf("streaming opacity: event %d (%s): %w", pos, e, err)
	}
	if answered {
		s.txn.Ops = append(s.txn.Ops, op)
	}
	s.txn.Last = pos
	if s.txn.Status = model.StatusAfter(e); s.txn.Status == model.Live {
		c.held++
	} else if s.flushed {
		s.flushed = false // it went out with a forced window
	} else {
		c.held++
		c.complete(s)
	}
	return nil
}

// open starts the slot's transaction at pos and reserves its window
// position, so the window stays in first-event order.
func (c *StreamChecker) open(s *procSlot, p model.Proc, pos int) {
	c.win = append(c.win, winTxn{t: model.Transaction{Status: model.Live}, proc: p})
	s.at = int32(len(c.win) - 1)
	s.txn = model.Transaction{Proc: p, Seq: s.seq, Status: model.Live, First: pos, Last: pos, Ops: s.txn.Ops[:0]}
	s.seq++
}

// complete moves the slot's finished transaction into its window
// position, its operations into the window's slab.
func (c *StreamChecker) complete(s *procSlot) {
	w := &c.win[s.at]
	w.t = s.txn
	lo := len(c.ops)
	c.ops = append(c.ops, s.txn.Ops...)
	w.t.Ops = c.ops[lo:len(c.ops):len(c.ops)]
	c.completed++
}

// gather lays out the window's transactions for the kernel — without
// the live ones unless withLive or pulled in by a forced frontier —
// and returns them with the mask of the straddlers among them, whose
// reads are waived. A straddler is gathered, and its reads waived,
// once: its mark clears here.
func (c *StreamChecker) gather(withLive bool) ([]*model.Transaction, uint64) {
	c.seg = c.seg[:0]
	var mask uint64
	for i := range c.win {
		w := &c.win[i]
		s := &c.slots[w.proc]
		if w.t.Status == model.Live {
			if !withLive && !s.flushed {
				continue
			}
			// Completion answers a pending invocation, which the slot
			// still holds.
			w.t = s.txn
			if s.cur.Pending {
				w.t.PendingInv = &s.cur.Inv
			}
		}
		if s.straddler {
			s.straddler = false
			mask |= 1 << uint(len(c.seg))
		}
		c.seg = append(c.seg, &w.t)
	}
	if n := bits.OnesCount64(mask); n > 0 {
		c.relaxed += n
		c.tel.Relaxed.Add(uint64(n))
	}
	return c.seg, mask
}

// flush checks the completed transactions of the window — the history
// since the previous cut — against the feasible snapshots as one
// segment and discards them; the straddlers of the last forced
// frontier are flushed with them once complete. At a quiescent cut
// that is the whole window. A forced frontier is the bounded-overlap
// fallback: it flushes while open transactions still straddle the
// cut, takes along the commit-pending writers pullCommitPending
// marks, carries the other open transactions, in order, into the next
// window as straddlers, and makes every later verdict approximate.
func (c *StreamChecker) flush(forced bool) error {
	if forced {
		c.forced++
		c.tel.Forced.Inc()
		c.pullCommitPending()
	}
	// A frontier propagates the final snapshots of serializing the
	// flushed window — not the visited intermediates — so post-frontier
	// transactions are re-checked against exactly the states a real cut
	// would have left. The straddlers' pre-frontier reads, the one
	// thing only an intermediate state could explain, are waived when
	// they complete (see the type comment).
	next, violation, err := c.checkWindow(false)
	if err != nil {
		return c.fail(err)
	}
	if violation != "" {
		if forced {
			violation = fmt.Sprintf("forced %s (approximate: at forced frontier %d)", violation, c.forced)
		}
		c.done, c.holds, c.reason = true, false, violation
		return fmt.Errorf("%w: %s", ErrStreamNotOpaque, violation)
	}
	c.states = next
	carried, held := 0, 0
	for _, w := range c.win {
		if w.t.Status != model.Live || c.slots[w.proc].flushed {
			continue
		}
		s := &c.slots[w.proc]
		s.at, s.straddler = int32(carried), true
		held += 2 * len(s.txn.Ops)
		if s.cur.Pending {
			held++
		}
		c.win[carried] = w
		carried++
	}
	c.win, c.ops = c.win[:carried], c.ops[:0]
	c.held, c.completed, c.pulled = held, 0, 0
	c.tel.Buffered.Set(int64(held))
	return nil
}

// pullCommitPending marks the commit-pending transactions a forced
// window takes along (see the type comment), as far as the search cap
// allows.
func (c *StreamChecker) pullCommitPending() {
	for _, w := range c.win {
		s := &c.slots[w.proc]
		if c.completed+c.pulled < 64 && w.t.Status == model.Live && s.cur.Pending &&
			s.cur.Inv.Kind == model.InvTryCommit && c.touchedAfter(&s.txn) {
			s.flushed = true
			c.pulled++
		}
	}
}

// touchedAfter reports whether a completed transaction of the window
// that ended after w's last event read or wrote a variable w wrote.
func (c *StreamChecker) touchedAfter(w *model.Transaction) bool {
	for _, wo := range w.Ops {
		if wo.Kind != model.OpWrite {
			continue
		}
		for i := range c.win {
			r := &c.win[i].t
			if r.Status == model.Live || r.Last < w.Last {
				continue
			}
			for _, op := range r.Ops {
				if op.Kind != model.OpTryCommit && op.Var == wo.Var && !op.Aborted {
					return true
				}
			}
		}
	}
	return false
}

// checkWindow propagates the feasible committed snapshots through the
// window as one segment, its live transactions included when withLive,
// with the reads of frontier straddlers waived. A non-empty violation
// string means no legal serialization exists from any feasible
// predecessor state.
func (c *StreamChecker) checkWindow(withLive bool) ([]model.Snapshot, string, error) {
	n := c.completed + c.pulled
	if withLive {
		n = len(c.win)
	}
	if n == 0 {
		return c.states, "", nil
	}
	if n > 64 {
		// Only the final segment can get here: it is the one that may
		// hold live transactions on top of the budget.
		return nil, "", fmt.Errorf("%w: %d transactions after the last quiescent point", ErrNoQuiescentCut, n)
	}
	c.segments++
	c.tel.Segments.Inc()
	txns, mask := c.gather(withLive)
	next, err := c.kernel.feasibleFinals(txns, c.states, mask)
	if err != nil {
		return nil, "", err
	}
	if len(next) == 0 {
		return nil, fmt.Sprintf("segment %d (transactions %s..%s) admits no legal serialization from any feasible predecessor state",
			c.segments, txns[0].ID(), txns[len(txns)-1].ID()), nil
	}
	return next, "", nil
}

// Finish checks whatever the window holds — including live and
// commit-pending transactions, which only the final segment may
// contain — and returns the verdict for the whole streamed history.
// Finish is terminal; the checker cannot be fed afterwards, and every
// later Finish returns what the first did.
func (c *StreamChecker) Finish() (SegmentedResult, error) {
	if c.bad != nil && !c.done {
		c.fail(c.bad)
	}
	if c.err != nil {
		return SegmentedResult{}, c.err
	}
	if c.done {
		return c.result(), nil
	}
	c.done = true
	next, violation, err := c.checkWindow(true)
	if err != nil {
		return SegmentedResult{}, c.fail(err)
	}
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
