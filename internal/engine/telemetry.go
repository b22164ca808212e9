package engine

import (
	"strconv"

	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/record"
	"livetm/internal/safety"
	"livetm/internal/telemetry"
)

// sessionMetrics is a session's pre-resolved telemetry handle bundle.
// The Stats-backing handles (submitted, completed, commits, noCommits,
// cutPause, queue gauges) are always non-nil: with no registry
// they are bare (unregistered) instruments, which a nil
// telemetry.Registry hands out and which cost exactly what the
// ad-hoc atomics they replaced cost, so the hot paths carry no nil
// checks and SessionStats has one source of truth either way. The
// clock-involving extras (execLat, tx) and the live-monitor gauges are
// nil without a registry: they are pure observability, and skipping
// them is what makes a registry-free session the uninstrumented
// baseline the overhead benchmark compares against.
type sessionMetrics struct {
	submitted *telemetry.Counter
	completed *telemetry.Counter
	noCommits *telemetry.Counter
	commits   []*telemetry.Counter // per worker slot

	queueShared *telemetry.Gauge
	queuePinned *telemetry.Gauge
	workers     *telemetry.Gauge
	admissions  *telemetry.Counter

	// cutPause is the quiescent-cut pause-latency histogram; it is the
	// single sampling path behind SessionStats.CutLatency (no separate
	// reservoir).
	cutPause *telemetry.Histogram

	// execLat times whole submissions (queue exit to completion).
	// Nil without a registry: skip the clock reads.
	execLat *telemetry.Histogram

	// tx instruments the native retry loop. Nil without a registry
	// (native.RunOpts.Metrics is nil-gated there).
	tx *native.TxMetrics

	// rec and checker are handed to the recorder and the live checker
	// at open time; unset checker instruments leave that layer on its
	// bare defaults.
	rec     *record.Metrics
	checker safety.LaneTelemetry

	// Live-monitor gauges, synced from the pump's rebias tick. Nil
	// without a registry.
	class      *telemetry.Gauge
	starvation []*telemetry.Gauge // per worker slot
	bias       []*telemetry.Gauge // per worker slot
}

// newSessionMetrics resolves the session's instruments in reg (bare
// ones when reg is nil, without the extras). workers is the
// provisioned slot count (MaxWorkers), live whether the monitor gauges
// and checker telemetry apply.
func newSessionMetrics(reg *telemetry.Registry, workers int, live bool) *sessionMetrics {
	m := &sessionMetrics{commits: make([]*telemetry.Counter, workers), rec: record.NewMetrics(reg)}
	m.submitted = reg.Counter("livetm_session_submitted_total",
		"Transactions accepted by the session")
	m.completed = reg.Counter("livetm_session_completed_total",
		"Transactions completed (committed, declined, or failed)")
	m.noCommits = reg.Counter("livetm_session_nocommits_total",
		"Transactions declined without a commit attempt (ErrNoCommit)")
	m.queueShared = reg.Gauge("livetm_session_queue_depth",
		"Pending submissions per lane", "lane", "shared")
	m.queuePinned = reg.Gauge("livetm_session_queue_depth",
		"Pending submissions per lane", "lane", "pinned")
	m.workers = reg.Gauge("livetm_session_workers",
		"Admitted workers")
	m.admissions = reg.Counter("livetm_session_admissions_total",
		"Workers admitted after open (AddWorkers)")
	for i := range m.commits {
		m.commits[i] = reg.Counter("livetm_session_commits_total",
			"Committed transactions per worker", "worker", strconv.Itoa(i))
	}
	m.cutPause = reg.Histogram("livetm_cut_pause_ns",
		"Quiescent-cut pause latency, nanoseconds")
	if reg == nil {
		return m
	}
	m.execLat = reg.Histogram("livetm_session_exec_latency_ns",
		"Submission latency from queue exit to completion, nanoseconds")
	if live {
		m.checker = safety.LaneTelemetry{
			Segments: reg.Counter("livetm_checker_segments_total",
				"Segments the streaming checker verified"),
			Forced: reg.Counter("livetm_checker_forced_total",
				"Forced serialization frontiers"),
			Relaxed: reg.Counter("livetm_checker_relaxed_total",
				"Straddler reads waived"),
			Buffered: reg.Gauge("livetm_checker_lane_lag",
				"Buffered checker events (lag behind the producers)"),
		}
		m.class = reg.Gauge("livetm_monitor_liveness_class",
			"Current liveness class of the run, strongest-first ordinal (0 none, 1 solo, 2 global, 3 2-progress, 4 local)")
		m.starvation = make([]*telemetry.Gauge, workers)
		m.bias = make([]*telemetry.Gauge, workers)
		for i := range m.starvation {
			proc := strconv.Itoa(i)
			m.starvation[i] = reg.Gauge("livetm_monitor_starvation",
				"Current commit gap per process, in observed events", "proc", proc)
			m.bias[i] = reg.Gauge("livetm_backoff_bias",
				"Starvation-feedback backoff bias per process", "proc", proc)
		}
	}
	return m
}

// syncLive pushes the live monitor's current view into the gauges.
// Runs on the pump goroutine (the monitor's owner) at each rebias
// tick and once more when the stream closes, so the monitor reads are
// race-free.
func (m *sessionMetrics) syncLive(mon *monitor.Monitor, starvation []int, bo *native.Backoff) {
	if m.class == nil {
		return
	}
	m.class.Set(int64(monitor.LivenessRank(mon.LivenessClassNow())))
	for i, s := range starvation {
		if i < len(m.starvation) {
			m.starvation[i].Set(int64(s))
		}
	}
	for i := range m.bias {
		m.bias[i].Set(int64(bo.Bias(i)))
	}
}

// histCutStats folds one cut-pause histogram into the CutStats shape.
func histCutStats(h *telemetry.Histogram) CutStats {
	n := h.Count()
	if n == 0 {
		return CutStats{}
	}
	return CutStats{Count: n, P50ns: h.Quantile(0.5), P99ns: h.Quantile(0.99)}
}
