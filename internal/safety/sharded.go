package safety

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"livetm/internal/model"
)

// ShardedChecker is a StreamChecker fanned out over a partition of the
// keyspace: one checking lane per shard, each with its own buffer,
// feasible-snapshot set and worker goroutine, so disjoint traffic is
// checked in parallel and each search sees only one shard's
// transactions. (The search itself — kernel.go — already places
// transactions over disjoint variables without branching, so a lane
// saves the single checker parsing and routing, not enumeration.)
//
// Events route by variable: an operation (and its response) goes to
// the shard of the variable it touches; a commit or abort fans out to
// every shard the transaction touched, so each lane's buffer is the
// well-formed projection of the stream onto that shard (the model's
// completion-abort relaxation makes the fanned-out abort legal in
// lanes where no invocation is pending). A lane flushes — checks its
// buffered segment against its feasible snapshots and discards it —
// at a *shard-local* quiescent point: no open transaction touching
// that shard, and no buffered transaction spanning into another
// shard. Opacity composes over variable-disjoint transactions (each
// lane's serialization respects real time within the shard, and
// cross-shard real-time edges cannot close a cycle that the per-lane
// orders do not already close), so for disjoint traffic the lane
// verdicts are exact and their conjunction is the global verdict.
//
// A transaction whose read/write-set spans shards links its lanes
// into a group: none of them flushes locally while linked, and when
// the whole group is quiescent the lanes' buffers are merged back
// into stream order (fanned-out duplicates deduplicated by stream
// index) and checked as one segment against the cartesian product of
// the lanes' snapshot sets — the cross-shard merge pass that rechecks
// snapshot consistency across the boundary. The merged finals are
// projected back per lane; when the projection loses cross-lane
// correlation (the product of the projections is larger than the
// merged set) the verdict degrades to an explicit approximation, as
// it does whenever a spanning transaction was already open when one
// of its lanes last flushed (its reads there may only be explainable
// by flushed-away states, so they are waived — the StreamChecker's
// straddler rule applied across shards). Violations are never
// approximate: a lane or merge that finds no legal serialization has
// found a real one, because a projection's violation lifts to the
// whole history.
//
// Budget overflow mirrors the StreamChecker: without the fallback a
// cut-starved lane refuses with ErrNoQuiescentCut; with it the lane
// (or, when spanning content is buffered, its whole group) takes a
// forced serialization frontier, waiving the straddlers it carries.
type ShardedChecker struct {
	cfg   ShardConfig
	lanes []*checkLane

	// Router state, owned by the Feed goroutine.
	next      uint64
	open      map[model.Proc]*openTxnState
	openCount int

	// Cross-shard merge accounting and the merged segments' search
	// kernel, owned by the Feed goroutine.
	kernel        finalsKernel
	mergeSegments int
	mergeForced   int
	mergeRelaxed  int
	mergeApprox   bool
	mtel          LaneTelemetry

	mu         sync.Mutex
	failErr    error
	failReason string // non-empty only for opacity violations

	done  bool
	holds bool
}

// ShardConfig parameterizes a ShardedChecker.
type ShardConfig struct {
	// Shards is the number of lanes (1 to 64).
	Shards int
	// SegmentTxns is the per-lane segment budget (1 to 64, clamped to
	// 63 with Approx, like the StreamChecker).
	SegmentTxns int
	// VarShard assigns each variable to a shard; results outside
	// [0, Shards) are clamped. Required when Shards > 1.
	VarShard func(model.TVar) int
	// ProcShard assigns a home shard per process, used only for
	// transactions that complete without a single operation. Nil means
	// shard 0.
	ProcShard func(model.Proc) int
	// Approx enables the forced-frontier fallback on cut-starved lanes.
	Approx bool
	// Metrics, when non-nil, routes each lane's counters and backlog
	// (plus the cross-shard merge pass's) into pre-resolved telemetry
	// instruments, which a concurrent scraper can read without racing
	// the lane workers. Nil wires bare instruments.
	Metrics *CheckerMetrics
}

// taggedEvent is a buffered event stamped with its global stream
// index, so lane buffers can be merged back into stream order and
// fanned-out duplicates deduplicated.
type taggedEvent struct {
	idx uint64
	ev  model.Event
}

// openTxnState tracks one open transaction in the router.
type openTxnState struct {
	openIdx  uint64         // stream index of the first event
	touched  uint64         // bitmask of lanes touched so far
	lastLane int            // lane of the last operation invocation
	waive    bool           // opened before a touched lane's last cut
	firstIdx map[int]uint64 // lane -> stream index of first event there
}

// checkLane is one shard's checker: buffer and router counters are
// owned by the Feed goroutine; states, straddlers and statistics are
// owned by the lane worker between drains.
type checkLane struct {
	id  int
	bit uint64

	buf       []taggedEvent
	open      int    // open transactions touching this lane
	txnsInBuf int    // completed transactions in the buffer
	group     uint64 // lanes linked to this one by spanning transactions
	cutIdx    uint64 // stream index of the last flush (0 = never)
	waived    map[uint64]bool

	states    []model.Snapshot
	straddler map[model.Proc]bool
	segments  int
	forced    int
	relaxed   int
	// parser, kernel and hist are the worker's scratch: a segment's
	// events stripped of their tags, the transactions parsed from them,
	// and their compiled form and search.
	parser model.Parser
	kernel finalsKernel
	hist   model.History

	tel  LaneTelemetry
	jobs chan func()
}

// NewShardedChecker creates a checker with one lane per shard.
func NewShardedChecker(cfg ShardConfig) (*ShardedChecker, error) {
	if cfg.Shards < 1 || cfg.Shards > 64 {
		return nil, fmt.Errorf("safety: shard count %d outside 1..64", cfg.Shards)
	}
	if cfg.SegmentTxns <= 0 {
		return nil, fmt.Errorf("safety: segment budget %d must be positive", cfg.SegmentTxns)
	}
	if cfg.SegmentTxns > 64 {
		return nil, fmt.Errorf("%w: segment budget %d exceeds the 64-transaction search cap", ErrTooManyTransactions, cfg.SegmentTxns)
	}
	if cfg.Approx && cfg.SegmentTxns > 63 {
		cfg.SegmentTxns = 63
	}
	if cfg.Shards > 1 && cfg.VarShard == nil {
		return nil, fmt.Errorf("safety: %d shards need a VarShard assignment", cfg.Shards)
	}
	c := &ShardedChecker{
		cfg:  cfg,
		open: make(map[model.Proc]*openTxnState),
		next: 1, // index 0 is reserved as "never" for cutIdx
		mtel: cfg.Metrics.merge(),
	}
	for i := 0; i < cfg.Shards; i++ {
		l := &checkLane{
			id:     i,
			bit:    uint64(1) << uint(i),
			group:  uint64(1) << uint(i),
			states: []model.Snapshot{make(model.Snapshot)},
			tel:    cfg.Metrics.lane(i),
			jobs:   make(chan func(), 4),
		}
		c.lanes = append(c.lanes, l)
		go func() {
			for job := range l.jobs {
				job()
			}
		}()
	}
	return c, nil
}

// Segments returns the number of segments checked so far across all
// lanes and merges. Exact only after Finish (lane workers may still
// be checking).
func (c *ShardedChecker) Segments() int {
	n := c.mergeSegments
	for _, l := range c.lanes {
		n += l.segments
	}
	return n
}

// ForcedCuts returns the number of forced frontiers taken so far.
func (c *ShardedChecker) ForcedCuts() int {
	n := c.mergeForced
	for _, l := range c.lanes {
		n += l.forced
	}
	return n
}

// Buffered returns the number of events currently buffered across all
// lanes (fanned-out duplicates counted once per lane holding them).
func (c *ShardedChecker) Buffered() int {
	n := 0
	for _, l := range c.lanes {
		n += len(l.buf)
	}
	return n
}

// PerShardSegments returns the segments checked per lane (merged
// segments are not attributed to a lane). Valid after Finish.
func (c *ShardedChecker) PerShardSegments() []int {
	out := make([]int, len(c.lanes))
	for i, l := range c.lanes {
		out[i] = l.segments
	}
	return out
}

// pushBuf publishes the lane's current backlog. Called wherever buf
// changes — always on the Feed goroutine, which owns buf.
func (l *checkLane) pushBuf() { l.tel.Buffered.Set(int64(len(l.buf))) }

func (c *ShardedChecker) laneOfVar(v model.TVar) int {
	if c.cfg.VarShard == nil {
		return 0
	}
	s := c.cfg.VarShard(v)
	if s < 0 {
		return 0
	}
	if s >= len(c.lanes) {
		return len(c.lanes) - 1
	}
	return s
}

func (c *ShardedChecker) homeLane(p model.Proc) int {
	if c.cfg.ProcShard == nil {
		return 0
	}
	s := c.cfg.ProcShard(p)
	if s < 0 {
		return 0
	}
	if s >= len(c.lanes) {
		return len(c.lanes) - 1
	}
	return s
}

// terminalErr surfaces a violation or error found by a lane worker
// (or a previous Feed) and the fed-after-Finish condition.
func (c *ShardedChecker) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr != nil {
		return c.failErr
	}
	if c.done {
		return fmt.Errorf("safety: Feed after Finish")
	}
	return nil
}

// fail records the first terminal error; later ones (other lanes
// racing to a verdict) are dropped, so Holds is deterministic even
// though the surviving reason string may not be.
func (c *ShardedChecker) fail(err error, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr == nil {
		c.failErr = err
		c.failReason = reason
	}
}

// touch marks the open transaction as touching the lane, links the
// lanes it spans, and applies the cross-shard straddler rule: a
// transaction that was already open when this lane last flushed may
// have reads only a flushed-away state could explain.
func (c *ShardedChecker) touch(st *openTxnState, laneID int, idx uint64) {
	lane := c.lanes[laneID]
	if st.touched&lane.bit != 0 {
		return
	}
	st.touched |= lane.bit
	st.firstIdx[laneID] = idx
	lane.open++
	if lane.cutIdx > 0 && st.openIdx < lane.cutIdx {
		st.waive = true
	}
	if st.touched != lane.bit {
		for _, l := range c.lanes {
			if st.touched&l.bit != 0 {
				l.group |= st.touched
			}
		}
	}
}

// closure returns the transitive closure of the lane-link masks
// starting from mask.
func (c *ShardedChecker) closure(mask uint64) uint64 {
	for {
		next := mask
		for _, l := range c.lanes {
			if mask&l.bit != 0 {
				next |= l.group
			}
		}
		if next == mask {
			return mask
		}
		mask = next
	}
}

// Feed consumes one event. A non-nil error is terminal, with the same
// taxonomy as StreamChecker.Feed; violations found asynchronously by
// a lane worker surface on the next Feed (or at Finish).
func (c *ShardedChecker) Feed(e model.Event) error {
	if err := c.terminalErr(); err != nil {
		return err
	}
	idx := c.next
	c.next++
	p := e.Proc
	st := c.open[p]

	switch {
	case e.Kind.IsInvocation():
		if st == nil {
			st = &openTxnState{openIdx: idx, lastLane: -1, firstIdx: make(map[int]uint64, 2)}
			c.open[p] = st
			c.openCount++
		}
		if e.Kind == model.InvTryCommit {
			if st.touched == 0 {
				c.touch(st, c.homeLane(p), idx)
			}
			for _, l := range c.lanes {
				if st.touched&l.bit != 0 {
					l.buf = append(l.buf, taggedEvent{idx, e})
					l.pushBuf()
				}
			}
			st.lastLane = -1
			return nil
		}
		laneID := c.laneOfVar(e.Var)
		c.touch(st, laneID, idx)
		st.lastLane = laneID
		lane := c.lanes[laneID]
		lane.buf = append(lane.buf, taggedEvent{idx, e})
		lane.pushBuf()
		return nil

	case e.Kind == model.RespCommit || e.Kind == model.RespAbort:
		if st == nil {
			// Completion with no tracked transaction: count it on the
			// home lane, mirroring the StreamChecker's tolerant counting;
			// the parse at flush time reports any real malformation.
			lane := c.lanes[c.homeLane(p)]
			lane.buf = append(lane.buf, taggedEvent{idx, e})
			lane.txnsInBuf++
			lane.pushBuf()
			return c.afterComplete(lane.bit, idx)
		}
		if st.touched == 0 {
			c.touch(st, c.homeLane(p), idx)
		}
		touched := st.touched
		for _, l := range c.lanes {
			if touched&l.bit != 0 {
				l.buf = append(l.buf, taggedEvent{idx, e})
				l.open--
				l.txnsInBuf++
				l.pushBuf()
			}
		}
		if st.waive {
			for _, l := range c.lanes {
				if touched&l.bit != 0 {
					if l.waived == nil {
						l.waived = make(map[uint64]bool)
					}
					l.waived[st.openIdx] = true
				}
			}
		}
		delete(c.open, p)
		c.openCount--
		return c.afterComplete(touched, idx)

	default: // RespValue, RespOK
		laneID := 0
		if st != nil && st.lastLane >= 0 {
			laneID = st.lastLane
		} else {
			laneID = c.homeLane(p)
		}
		c.lanes[laneID].buf = append(c.lanes[laneID].buf, taggedEvent{idx, e})
		c.lanes[laneID].pushBuf()
		return nil
	}
}

// afterComplete runs the budget and quiescence checks for the lanes a
// completion landed on, in the StreamChecker's order: budget first.
func (c *ShardedChecker) afterComplete(touched uint64, idx uint64) error {
	for _, l := range c.lanes {
		if touched&l.bit == 0 || l.txnsInBuf <= c.cfg.SegmentTxns {
			continue
		}
		if !c.cfg.Approx {
			return fmt.Errorf("%w: %d concurrent transactions on shard %d without a quiescent point", ErrNoQuiescentCut, l.txnsInBuf, l.id)
		}
		group := c.closure(l.bit)
		if bits.OnesCount64(group) == 1 {
			c.forceLocal(l, idx)
		} else if err := c.flushGroup(group, idx, true); err != nil {
			return err
		}
	}
	// Shard-local quiescent points: a lane with no open transaction
	// and no spanning links flushes on its own worker.
	for _, l := range c.lanes {
		if touched&l.bit == 0 || l.open != 0 || l.txnsInBuf == 0 {
			continue
		}
		if c.closure(l.bit) == l.bit {
			c.flushLocal(l, idx)
		}
	}
	// Group quiescent points: every lane a spanning transaction linked
	// is idle, so the group's buffers merge into one exact segment.
	group := c.closure(touched)
	if bits.OnesCount64(group) > 1 {
		openInGroup, buffered := 0, 0
		for _, l := range c.lanes {
			if group&l.bit != 0 {
				openInGroup += l.open
				buffered += l.txnsInBuf
			}
		}
		if openInGroup == 0 && buffered > 0 {
			return c.flushGroup(group, idx, false)
		}
	}
	return nil
}

// flushLocal hands the lane's buffered segment to its worker. The
// buffer swap happens on the Feed goroutine; the search runs on the
// lane worker, in FIFO order with the lane's other segments, so the
// snapshot chain stays sequential per lane.
func (c *ShardedChecker) flushLocal(l *checkLane, idx uint64) {
	seg := l.buf
	l.buf = nil
	l.txnsInBuf = 0
	l.cutIdx = idx
	l.waived = nil
	l.pushBuf()
	l.jobs <- func() { c.runSegment(l, seg, false, nil) }
}

// forceLocal is the per-lane forced frontier: completed transactions
// flush, open transactions' events stay buffered, and the carried
// processes become straddlers whose reads the next segments waive.
func (c *ShardedChecker) forceLocal(l *checkLane, idx uint64) {
	seg := make([]taggedEvent, 0, len(l.buf))
	kept := make([]taggedEvent, 0, 8)
	newStraddlers := make(map[model.Proc]bool)
	for _, te := range l.buf {
		st := c.open[te.ev.Proc]
		if st != nil && st.touched&l.bit != 0 && te.idx >= st.firstIdx[l.id] {
			kept = append(kept, te)
			newStraddlers[te.ev.Proc] = true
		} else {
			seg = append(seg, te)
		}
	}
	l.buf = kept
	l.txnsInBuf = 0
	l.cutIdx = idx
	l.waived = nil
	l.pushBuf()
	l.jobs <- func() { c.runSegment(l, seg, true, newStraddlers) }
}

// runSegment checks one lane-local segment on the lane's worker.
func (c *ShardedChecker) runSegment(l *checkLane, seg []taggedEvent, forced bool, newStraddlers map[model.Proc]bool) {
	l.hist = l.hist[:0]
	for _, te := range seg {
		l.hist = append(l.hist, te.ev)
	}
	txns, err := l.parser.Parse(l.hist)
	if err != nil {
		c.fail(fmt.Errorf("streaming opacity (shard %d): %w", l.id, err), "")
		return
	}
	if len(txns) == 0 {
		if forced {
			l.forced++
			l.tel.Forced.Inc()
			l.straddler = newStraddlers
		}
		return
	}
	l.segments++
	l.tel.Segments.Inc()
	mask := laneWaiveMask(l, txns)
	finals, err := l.kernel.feasibleFinals(txns, l.states, mask)
	if err != nil {
		c.fail(fmt.Errorf("streaming opacity (shard %d): %w", l.id, err), "")
		return
	}
	if len(finals) == 0 {
		reason := fmt.Sprintf("shard %d segment %d (transactions %s..%s) admits no legal serialization from any feasible predecessor state",
			l.id, l.segments, txns[0].ID(), txns[len(txns)-1].ID())
		if forced {
			reason += " (approximate: at a forced frontier)"
		}
		c.fail(fmt.Errorf("%w: %s", ErrStreamNotOpaque, reason), reason)
		return
	}
	l.states = finals
	if forced {
		l.forced++
		l.tel.Forced.Inc()
		l.straddler = newStraddlers
	} else {
		l.straddler = nil
	}
}

// laneWaiveMask is the StreamChecker's straddler waiver per lane: the
// first transaction of each process carried across the lane's last
// forced frontier.
func laneWaiveMask(l *checkLane, txns []*model.Transaction) uint64 {
	if len(l.straddler) == 0 {
		return 0
	}
	var mask uint64
	seen := make(map[model.Proc]bool, len(l.straddler))
	for i, t := range txns {
		if !seen[t.Proc] {
			seen[t.Proc] = true
			if l.straddler[t.Proc] {
				mask |= 1 << uint(i)
			}
		}
	}
	if n := bits.OnesCount64(mask); n > 0 {
		l.relaxed += n
		l.tel.Relaxed.Add(uint64(n))
	}
	return mask
}

// drain waits until every lane in the mask has finished its queued
// segments, so the Feed goroutine may read and write their states.
func (c *ShardedChecker) drain(mask uint64) {
	acks := make([]chan struct{}, 0, bits.OnesCount64(mask))
	for _, l := range c.lanes {
		if mask&l.bit == 0 {
			continue
		}
		ack := make(chan struct{})
		l.jobs <- func() { close(ack) }
		acks = append(acks, ack)
	}
	for _, ack := range acks {
		<-ack
	}
}

// flushGroup is the cross-shard merge pass: the group's buffers are
// merged back into stream order, checked as one segment against the
// cartesian product of the lanes' snapshot sets, and the finals are
// projected back per lane. With forced set, open transactions' events
// are carried (a group-wide forced frontier); otherwise the group is
// quiescent and the check is a real cut. Runs on the Feed goroutine
// after draining the involved lanes.
func (c *ShardedChecker) flushGroup(mask uint64, idx uint64, forced bool) error {
	c.drain(mask)
	var all []taggedEvent
	waivedOpen := make(map[uint64]bool)
	straddlers := make(map[model.Proc]bool)
	for _, l := range c.lanes {
		if mask&l.bit == 0 {
			continue
		}
		all = append(all, l.buf...)
		for oi := range l.waived {
			waivedOpen[oi] = true
		}
		for p := range l.straddler {
			straddlers[p] = true
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	merged := all[:0]
	var last uint64
	for _, te := range all {
		if te.idx != last {
			merged = append(merged, te)
			last = te.idx
		}
	}

	// A forced group frontier carries every open transaction whole:
	// its events (on any lane of the group) stay buffered and its
	// process becomes a straddler for the group's next segments.
	var keptIdx map[uint64]bool
	newStraddlers := make(map[model.Proc]bool)
	seg := merged
	if forced {
		keptIdx = make(map[uint64]bool)
		seg = make([]taggedEvent, 0, len(merged))
		for _, te := range merged {
			if st := c.open[te.ev.Proc]; st != nil && te.idx >= st.openIdx {
				keptIdx[te.idx] = true
				newStraddlers[te.ev.Proc] = true
			} else {
				seg = append(seg, te)
			}
		}
	}

	h := make(model.History, len(seg))
	tags := make([]uint64, len(seg))
	for i, te := range seg {
		h[i] = te.ev
		tags[i] = te.idx
	}
	txns, err := model.Transactions(h)
	if err != nil {
		err = fmt.Errorf("streaming opacity (cross-shard merge): %w", err)
		c.fail(err, "")
		return err
	}

	// The waive mask: straddlers of previous forced frontiers (first
	// transaction per process) plus transactions that were open across
	// a member lane's local cut.
	var waive uint64
	seenProc := make(map[model.Proc]bool)
	for i, t := range txns {
		if !seenProc[t.Proc] {
			seenProc[t.Proc] = true
			if straddlers[t.Proc] {
				waive |= 1 << uint(i)
			}
		}
		if waivedOpen[tags[t.First]] {
			waive |= 1 << uint(i)
		}
	}
	if waive != 0 {
		n := bits.OnesCount64(waive)
		c.mergeRelaxed += n
		c.mtel.Relaxed.Add(uint64(n))
		c.mergeApprox = true
	}

	states := c.productStates(mask)
	finals, verr := c.mergedFinals(txns, states, waive)
	if verr != nil {
		c.fail(verr, "")
		return verr
	}
	if len(finals) == 0 {
		reason := fmt.Sprintf("cross-shard segment %d over shards %s (transactions %s..%s) admits no legal serialization from any feasible predecessor state",
			c.mergeSegments+1, maskString(mask), txns[0].ID(), txns[len(txns)-1].ID())
		if forced {
			reason += " (approximate: at a forced frontier)"
		}
		err := fmt.Errorf("%w: %s", ErrStreamNotOpaque, reason)
		c.fail(err, reason)
		return err
	}
	if len(txns) > 0 {
		c.mergeSegments++
		c.mtel.Segments.Inc()
	}
	if forced {
		c.mergeForced++
		c.mtel.Forced.Inc()
		c.mergeApprox = true
	}

	// Project the merged finals back per lane. The projection drops
	// cross-lane correlation whenever the product of the projections
	// exceeds the merged set; that information loss makes later
	// verdicts approximate (more feasible states can only hide
	// violations, never invent them).
	product := 1
	for _, l := range c.lanes {
		if mask&l.bit == 0 {
			continue
		}
		proj := c.projectStates(finals, l.id)
		l.states = proj
		product *= len(proj)
	}
	if product > uniqueStates(finals) {
		c.mergeApprox = true
	}

	for _, l := range c.lanes {
		if mask&l.bit == 0 {
			continue
		}
		if forced {
			kept := l.buf[:0]
			for _, te := range l.buf {
				if keptIdx[te.idx] {
					kept = append(kept, te)
				}
			}
			l.buf = kept
			l.straddler = newStraddlers
		} else {
			l.buf = nil
			l.straddler = nil
		}
		l.txnsInBuf = 0
		l.group = l.bit
		l.cutIdx = idx
		l.waived = nil
		l.pushBuf()
	}
	return nil
}

// mergedFinals runs the merged segment through the relaxed search,
// splitting it at forced frontiers into chunks of at most 63
// transactions when the group outgrows the 64-transaction cap (only
// the Approx regime may reach that size: each chunk boundary is one
// more forced frontier).
func (c *ShardedChecker) mergedFinals(txns []*model.Transaction, states []model.Snapshot, waive uint64) ([]model.Snapshot, error) {
	if len(txns) <= 64 {
		return c.kernel.feasibleFinals(txns, states, waive)
	}
	if !c.cfg.Approx {
		return nil, fmt.Errorf("%w: %d transactions in one cross-shard segment", ErrTooManyTransactions, len(txns))
	}
	const chunk = 63
	for start := 0; start < len(txns); start += chunk {
		end := start + chunk
		if end > len(txns) {
			end = len(txns)
		}
		var mask uint64
		for i := start; i < end; i++ {
			if waive&(1<<uint(i)) != 0 {
				mask |= 1 << uint(i-start)
			}
		}
		next, err := c.kernel.feasibleFinals(txns[start:end], states, mask)
		if err != nil {
			return nil, err
		}
		if len(next) == 0 {
			return nil, nil
		}
		states = next
		if end < len(txns) {
			c.mergeForced++
			c.mtel.Forced.Inc()
			c.mergeApprox = true
		}
	}
	return states, nil
}

// productStates returns the cartesian combination of the masked
// lanes' snapshot sets; lane domains are disjoint, so each combination
// is their union.
func (c *ShardedChecker) productStates(mask uint64) []model.Snapshot {
	states := []model.Snapshot{make(model.Snapshot)}
	for _, l := range c.lanes {
		if mask&l.bit == 0 {
			continue
		}
		next := make([]model.Snapshot, 0, len(states)*len(l.states))
		for _, a := range states {
			for _, b := range l.states {
				m := a.Clone()
				for k, v := range b {
					m[k] = v
				}
				next = append(next, m)
			}
		}
		states = next
	}
	return states
}

// projectStates restricts each final snapshot to the lane's variables
// and deduplicates.
func (c *ShardedChecker) projectStates(finals []model.Snapshot, laneID int) []model.Snapshot {
	seen := make(map[string]bool, len(finals))
	out := make([]model.Snapshot, 0, len(finals))
	for _, s := range finals {
		p := make(model.Snapshot)
		for k, v := range s {
			if c.laneOfVar(k) == laneID {
				p[k] = v
			}
		}
		key := memoKey(0, p)
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

func uniqueStates(states []model.Snapshot) int {
	seen := make(map[string]bool, len(states))
	for _, s := range states {
		seen[memoKey(0, s)] = true
	}
	return len(seen)
}

func maskString(mask uint64) string {
	out := ""
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			if out != "" {
				out += ","
			}
			out += fmt.Sprint(i)
		}
	}
	return "{" + out + "}"
}

// Finish flushes whatever remains buffered — including live and
// commit-pending transactions — waits for every lane worker, and
// returns the verdict for the whole streamed history. Finish is
// terminal.
func (c *ShardedChecker) Finish() (SegmentedResult, error) {
	if c.done {
		return c.result(), nil
	}
	if err := c.finalFlush(); err != nil && !errors.Is(err, ErrStreamNotOpaque) {
		c.stop()
		c.done = true
		return SegmentedResult{}, err
	}
	c.stop()
	c.done = true
	c.mu.Lock()
	failErr, failReason := c.failErr, c.failReason
	c.mu.Unlock()
	if failErr != nil && failReason == "" {
		// A terminal non-violation error (malformed stream, search cap).
		return SegmentedResult{}, failErr
	}
	c.holds = failErr == nil
	return c.result(), nil
}

// finalFlush checks every remaining buffered segment: linked lanes
// merge, independent lanes flush locally.
func (c *ShardedChecker) finalFlush() error {
	if err := c.terminalErr(); err != nil {
		if errors.Is(err, ErrStreamNotOpaque) {
			return nil // verdict already reached
		}
		return nil
	}
	idx := c.next
	var doneMask uint64
	for _, l := range c.lanes {
		if doneMask&l.bit != 0 || len(l.buf) == 0 {
			continue
		}
		group := c.closure(l.bit)
		doneMask |= group
		if group == l.bit {
			c.flushLocal(l, idx)
			continue
		}
		if err := c.flushGroup(group, idx, false); err != nil {
			return err
		}
	}
	c.drain((uint64(1) << uint(len(c.lanes))) - 1)
	return nil
}

// stop terminates the lane workers after a final drain.
func (c *ShardedChecker) stop() {
	c.drain((uint64(1) << uint(len(c.lanes))) - 1)
	for _, l := range c.lanes {
		close(l.jobs)
		l.jobs = nil
	}
}

// result snapshots the terminal verdict. Approx marks verdicts that
// rest on forced frontiers, waived cross-shard straddlers, or
// projection-lossy merges; violations are always real.
func (c *ShardedChecker) result() SegmentedResult {
	c.mu.Lock()
	reason := c.failReason
	c.mu.Unlock()
	segments := c.mergeSegments
	forced := c.mergeForced
	relaxed := c.mergeRelaxed
	for _, l := range c.lanes {
		segments += l.segments
		forced += l.forced
		relaxed += l.relaxed
	}
	return SegmentedResult{
		Holds:             c.holds,
		Segments:          segments,
		Reason:            reason,
		Approx:            forced > 0 || c.mergeApprox,
		ForcedCuts:        forced,
		RelaxedStraddlers: relaxed,
	}
}
