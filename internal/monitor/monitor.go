// Package monitor is the online counterpart of the offline checkers:
// it consumes a history one event at a time — live from a recording
// run or replayed from a trace file — and maintains both halves of the
// paper's story simultaneously:
//
//   - Safety: a streaming opacity check (safety.StreamChecker), which
//     propagates feasible committed snapshots across quiescent cuts so
//     memory stays bounded no matter how long the run is.
//   - Liveness: per-process progress accounting (commits, aborts,
//     declined commits, starvation intervals) plus a classification of
//     the observed run against the paper's liveness lattice. The
//     classifier reads the run as an eventually-periodic history whose
//     cycle is the tail window of recent events — exactly the lasso
//     reading `livetm classify` applies to finite traces, kept
//     incremental here.
//
// An opacity violation is terminal and surfaces from Observe as soon
// as the failing segment is checked; progress accounting keeps its
// figures per process so a starving or wedged process is visible while
// the run is still going.
package monitor

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"livetm/internal/liveness"
	"livetm/internal/model"
	"livetm/internal/safety"
)

// Config sizes a monitor.
type Config struct {
	// SegmentTxns is the per-segment transaction budget of the
	// streaming opacity check (default 10, max 64).
	SegmentTxns int
	// TailWindow is how many recent events form the lasso cycle for
	// liveness classification (default 256).
	TailWindow int
	// Procs optionally fixes the process set P of the system. Processes
	// that never produce an event still count (the paper fixes P up
	// front); nil defaults to the processes observed.
	Procs []model.Proc
	// Approx enables the streaming checker's bounded-overlap fallback:
	// a cut-starved stream degrades to an explicit approximate verdict
	// (Report.Opacity.Approx) at forced serialization frontiers instead
	// of failing with ErrNoQuiescentCut. Live monitoring sets it — a
	// run must not die because its schedule never quiesced.
	Approx bool
	// RecordGaps retains every process's closed commit gaps
	// (ProcProgress.CommitGaps) instead of only the maximum, so a run's
	// starvation-interval distribution can be reported. Off by default:
	// a long run would retain one int per commit.
	RecordGaps bool
	// Telemetry wires live instruments through the streaming checker:
	// segment, forced-frontier and waived-read counters and a backlog
	// gauge that a scraper can read mid-run without touching
	// checker-owned state. Unset instruments stay bare (no registry,
	// same cost).
	Telemetry safety.LaneTelemetry
}

func (c Config) withDefaults() Config {
	if c.SegmentTxns <= 0 {
		c.SegmentTxns = 10
	}
	if c.TailWindow <= 0 {
		c.TailWindow = 256
	}
	return c
}

// ProcProgress is one process's online accounting.
type ProcProgress struct {
	Proc model.Proc
	// Commits, Aborts and Ops count commit events, abort events and
	// operation invocations (reads, writes, tryCommits).
	Commits uint64
	Aborts  uint64
	Ops     uint64
	// LastCommitAt is the global event index of the last commit event,
	// -1 before the first.
	LastCommitAt int
	// MaxStarvation is the longest interval, in global events, the
	// process has been active without landing a commit: the largest
	// gap between consecutive commits, counting the still-open gap at
	// the end of the run.
	MaxStarvation int
	// CommitGaps holds every closed commit gap in arrival order when
	// Config.RecordGaps is set: the global-event distance between
	// consecutive commits (the first entry counts from the start of the
	// run). Nil otherwise.
	CommitGaps []int
	// OpenGap is the still-open commit gap at the end of the run, set
	// when the report is assembled: global events since the process's
	// last commit, or since the run began if it never committed.
	OpenGap int

	firstEvent model.Event // first observed event, for the lasso prefix; zero before it
	activeFrom int         // global index the current commit gap started at
}

// starvation returns the process's current starvation figure at
// global event index now.
func (p *ProcProgress) starvation(now int) int {
	gap := now - p.activeFrom
	if gap > p.MaxStarvation {
		return gap
	}
	return p.MaxStarvation
}

// Monitor consumes events incrementally. Not safe for concurrent use;
// feed it from one goroutine (histories are totally ordered anyway).
type Monitor struct {
	cfg     Config
	checker *safety.StreamChecker
	events  int
	// procs holds each known process's accounting at its id (Proc is 0
	// in the other entries), and order lists the known ids, ascending.
	procs   model.ProcTable[ProcProgress]
	order   []model.Proc
	window  []model.Event // ring buffer of the last TailWindow events
	wnext   int           // next ring slot: the oldest event once the ring is full
	safeErr error         // terminal opacity/structure error from the checker
	// reading is the lasso every classification reads (see lasso): its
	// prefix and cycle storage is reused from one reading to the next.
	reading liveness.Lasso
}

// lattice is the liveness lattice a run is classified against,
// strongest property first.
var lattice = []liveness.Property{
	liveness.LocalProgress, liveness.KProgress(2),
	liveness.GlobalProgress, liveness.SoloProgress,
}

// LivenessRank places a liveness-class name on the lattice: len(lattice)
// for the strongest property ("local progress") down to 1 for the
// weakest ("solo progress"), and 0 for "none" or any name outside the
// lattice. A stronger class ranks higher, so the rank can floor a class
// (a release gate) or chart it (a gauge).
func LivenessRank(class string) int {
	for i, prop := range lattice {
		if prop.Name == class {
			return len(lattice) - i
		}
	}
	return 0
}

// New creates a monitor.
func New(cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	checker, err := safety.NewStreamChecker(cfg.SegmentTxns)
	if err != nil {
		return nil, err
	}
	if cfg.Approx {
		checker.WithApproxFallback()
	}
	checker.WithTelemetry(cfg.Telemetry)
	m := &Monitor{
		cfg:     cfg,
		checker: checker,
		window:  make([]model.Event, 0, cfg.TailWindow),
	}
	for _, p := range cfg.Procs {
		if m.progress(p) == nil {
			return nil, fmt.Errorf("monitor: process id %d is not positive", p)
		}
	}
	return m, nil
}

// progress returns the process's accounting, or nil when p is not a
// process id.
func (m *Monitor) progress(p model.Proc) *ProcProgress {
	pp := m.procs.At(p)
	if pp != nil && pp.Proc == 0 {
		*pp = ProcProgress{Proc: p, LastCommitAt: -1}
		at, _ := slices.BinarySearch(m.order, p)
		m.order = slices.Insert(m.order, at, p)
	}
	return pp
}

// Observe consumes one event. A non-nil error is terminal: the history
// violated opacity (errors.Is safety.ErrStreamNotOpaque), starved the
// streaming checker of quiescent cuts, or was malformed. Progress
// accounting still absorbs the event either way, unless its process id
// is below 1: then only the checker sees it, and reports it malformed.
func (m *Monitor) Observe(e model.Event) error {
	if pp := m.progress(e.Proc); pp != nil {
		m.account(pp, e)
	}
	m.events++

	if m.safeErr != nil {
		return m.safeErr
	}
	if err := m.checker.Feed(e); err != nil {
		m.safeErr = err
		return err
	}
	return nil
}

// account adds the event to its process's figures and to the tail
// window.
func (m *Monitor) account(pp *ProcProgress, e model.Event) {
	if pp.firstEvent.Proc == 0 {
		pp.firstEvent = e
	}
	switch e.Kind {
	case model.RespCommit:
		pp.Commits++
		gap := m.events - pp.activeFrom
		if gap > pp.MaxStarvation {
			pp.MaxStarvation = gap
		}
		if m.cfg.RecordGaps {
			pp.CommitGaps = append(pp.CommitGaps, gap)
		}
		pp.LastCommitAt = m.events
		pp.activeFrom = m.events
	case model.RespAbort:
		pp.Aborts++
	default:
		if e.Kind.IsInvocation() {
			pp.Ops++
		}
	}
	if len(m.window) < m.cfg.TailWindow {
		m.window = append(m.window, e)
	} else {
		m.window[m.wnext] = e
	}
	// A compare, not a modulo: the division would be the costliest
	// instruction on the per-event path.
	if m.wnext++; m.wnext == m.cfg.TailWindow {
		m.wnext = 0
	}
}

// ObserveHistory feeds a whole history. Unlike a bare Observe loop it
// does not stop at the first terminal safety error: progress
// accounting absorbs every event (the liveness half outlives an
// undecided or violated safety half), and the first terminal error is
// returned at the end.
func (m *Monitor) ObserveHistory(h model.History) error {
	var first error
	for _, e := range h {
		if err := m.Observe(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StarvationNow writes each process's current commit gap — global
// events since its last commit (or since the run began) — into out,
// indexed by process id minus one, for len(out) processes; an index no
// process has gets 0. Unlike MaxStarvation it is the instantaneous
// figure, which makes it the feedback signal for starvation-aware
// contention management: a hot process shows a small gap, a starving
// one a growing gap. Non-terminal; call it while the run is still
// being observed.
func (m *Monitor) StarvationNow(out []int) {
	clear(out)
	for _, p := range m.order {
		if i := int(p) - 1; i < len(out) {
			out[i] = m.events - m.procs[p].activeFrom
		}
	}
}

// LivenessClassNow classifies the run so far against the liveness
// lattice on the current lasso reading (the tail window repeated
// forever) and returns the strongest property that holds: "local
// progress", "2-progress", "global progress", "solo progress", or
// "none". Unlike Report it is non-terminal — it does not finish the
// streaming checker — so a live run can expose its current liveness
// class while still being observed. Call it from the goroutine that
// feeds Observe; the lasso reads the same window state.
func (m *Monitor) LivenessClassNow() string {
	l := m.lasso()
	if l == nil {
		return "none"
	}
	for _, prop := range lattice {
		if prop.Contains(l) {
			return prop.Name
		}
	}
	return "none"
}

// Verdict is one liveness property evaluated on the observed run.
type Verdict struct {
	Property string
	Holds    bool
}

// ProcReport is one process's final accounting and fault class.
type ProcReport struct {
	ProcProgress
	// Class is the paper's classification of the process on the lasso
	// reading of the run: "progressing", "starving", "parasitic" or
	// "crashed".
	Class string
}

// Report is the monitor's summary of the run so far.
type Report struct {
	// Events is the number of events observed.
	Events int
	// Opacity is the streaming opacity verdict; Checked is false when
	// the streaming checker was starved of quiescent cuts or the
	// history was malformed, with the reason in Opacity.Reason.
	Checked bool
	Opacity safety.SegmentedResult
	// Procs holds per-process accounting, sorted by process id.
	Procs []ProcReport
	// Verdicts evaluates the liveness lattice on the lasso reading of
	// the run: local, 2-, global and solo progress.
	Verdicts []Verdict
}

// LivenessClass names the strongest liveness-lattice property the
// observed run satisfied, scanning the verdicts strongest first:
// "local progress", "2-progress", "global progress", "solo progress",
// or "none" when nothing in the lattice held (or no events were
// observed).
func (r Report) LivenessClass() string {
	for _, v := range r.Verdicts {
		if v.Holds {
			return v.Property
		}
	}
	return "none"
}

// StarvationIntervals returns each process's starvation intervals in
// global events: the closed commit gaps (retained under
// Config.RecordGaps) followed by the still-open gap at the end of the
// run when it is positive. A process that was active but never
// committed contributes exactly one interval — the whole run — which
// is how a starving process of the paper's infinite histories shows up
// in a finite sample.
func (r Report) StarvationIntervals() map[model.Proc][]int {
	out := make(map[model.Proc][]int, len(r.Procs))
	for _, p := range r.Procs {
		intervals := append([]int(nil), p.CommitGaps...)
		if p.OpenGap > 0 {
			intervals = append(intervals, p.OpenGap)
		}
		out[p.Proc] = intervals
	}
	return out
}

// Format renders the report as an aligned text block. An unchecked run
// reads opaque=undecided: a check that did not decide is no violation.
func (r Report) Format() string {
	var b strings.Builder
	opaque := "undecided"
	if r.Checked {
		opaque = strconv.FormatBool(r.Opacity.Holds)
	}
	fmt.Fprintf(&b, "events=%d segments=%d opaque=%s", r.Events, r.Opacity.Segments, opaque)
	if r.Opacity.Approx {
		fmt.Fprintf(&b, " (approximate: %d forced frontiers)", r.Opacity.ForcedCuts)
		if r.Opacity.RelaxedStraddlers > 0 {
			fmt.Fprintf(&b, " (%d straddler reads waived)", r.Opacity.RelaxedStraddlers)
		}
	}
	if !r.Checked {
		fmt.Fprintf(&b, " (%s)", r.Opacity.Reason)
	} else if !r.Opacity.Holds {
		fmt.Fprintf(&b, "\nopacity violation: %s", r.Opacity.Reason)
	}
	b.WriteString("\n")
	for _, p := range r.Procs {
		fmt.Fprintf(&b, "  p%-3d %-11s commits=%-6d aborts=%-6d ops=%-7d max-starvation=%d\n",
			p.Proc, p.Class, p.Commits, p.Aborts, p.Ops, p.MaxStarvation)
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "  %-15s %v\n", v.Property, v.Holds)
	}
	return b.String()
}

// Report finalizes the streaming opacity check and classifies the run
// against the liveness lattice. It is terminal for the safety half:
// the monitor must not be fed afterwards.
func (m *Monitor) Report() Report {
	r := Report{Events: m.events}

	switch {
	case m.safeErr != nil && errors.Is(m.safeErr, safety.ErrStreamNotOpaque):
		res, _ := m.checker.Finish()
		r.Checked, r.Opacity = true, res
	case m.safeErr != nil:
		r.Opacity.Reason = m.safeErr.Error()
	default:
		res, err := m.checker.Finish()
		if err != nil {
			r.Opacity.Reason = err.Error()
		} else {
			r.Checked, r.Opacity = true, res
		}
	}
	lasso := m.lasso()
	for _, p := range m.order {
		pp := m.procs[p]
		pp.MaxStarvation = pp.starvation(m.events)
		pp.OpenGap = m.events - pp.activeFrom
		r.Procs = append(r.Procs, ProcReport{ProcProgress: pp, Class: m.class(lasso, p)})
	}
	if lasso != nil {
		for _, prop := range lattice {
			r.Verdicts = append(r.Verdicts, Verdict{Property: prop.Name, Holds: prop.Contains(lasso)})
		}
	}
	return r
}

// lasso is the classification reading of the run: the tail window
// repeated forever, with each process's first event standing in for
// its pre-window activity (the classifiers only test event existence
// on the prefix, so one representative event per process suffices).
// Returns nil while no events have been observed.
//
// The lasso is borrowed, not built: it is the monitor's one reading,
// its cycle the copy of the window made here (in arrival order) and its
// process set the monitor's own, so it is valid until the next Observe
// or lasso call and must not be kept or modified. Every process it
// mentions is in the set by construction, which is all
// liveness.NewLassoWithProcs would check.
func (m *Monitor) lasso() *liveness.Lasso {
	if len(m.window) == 0 {
		return nil
	}
	l := &m.reading
	// Before the ring wraps wnext is len(window): all of it, in order.
	l.Cycle = append(append(l.Cycle[:0], m.window[m.wnext:]...), m.window[:m.wnext]...)
	l.Prefix = l.Prefix[:0]
	if m.events > len(l.Cycle) {
		for _, p := range m.order {
			if first := m.procs[p].firstEvent; first.Proc != 0 {
				l.Prefix = append(l.Prefix, first)
			}
		}
	}
	l.Procs = m.order
	return l
}

func (m *Monitor) class(l *liveness.Lasso, p model.Proc) string {
	if l == nil {
		return "silent"
	}
	switch {
	case l.Crashes(p):
		return "crashed"
	case l.Parasitic(p):
		return "parasitic"
	case l.Starving(p):
		return "starving"
	case l.MakesProgress(p):
		return "progressing"
	default:
		return "silent"
	}
}
