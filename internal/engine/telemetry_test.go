package engine

import (
	"context"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"livetm/internal/monitor"
	"livetm/internal/telemetry"
)

// requiredFamilies is the family list a live instrumented session must
// expose: one per layer the telemetry tentpole threads through (retry
// loop, session pool, cuts, recorder, checker lanes, monitor).
var requiredFamilies = []string{
	"livetm_tx_starts_total",
	"livetm_tx_commits_total",
	"livetm_tx_aborts_total",
	"livetm_tx_retry_latency_ns",
	"livetm_tx_backoff_wait_ns",
	"livetm_session_submitted_total",
	"livetm_session_completed_total",
	"livetm_session_commits_total",
	"livetm_session_queue_depth",
	"livetm_session_exec_latency_ns",
	"livetm_session_workers",
	"livetm_cut_pause_ns",
	"livetm_recorder_events_total",
	"livetm_recorder_chunks",
	"livetm_checker_segments_total",
	"livetm_checker_lane_lag",
	"livetm_monitor_liveness_class",
	"livetm_monitor_starvation",
	"livetm_backoff_bias",
}

// TestMetricsEndpointUnderLoad scrapes /metrics concurrently with Exec
// traffic and a mid-run AddWorkers admission: every required family
// must be present, monotone counters must never regress between
// scrapes, and scraping must never block a worker (the run completes
// while scrapes are in flight). Run with -race this also proves the
// scrape path reads no session-owned state.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTestSession(t, "native-tl2", SessionConfig{
		Workers: 2, MaxWorkers: 4, Vars: 8,
		Record: true, Live: true, QuiesceEvery: 2,
		Telemetry: reg,
	})
	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()

	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := s.ExecOn(context.Background(), w, func(tx Tx) error {
					v, err := tx.Read(w)
					if err != nil {
						return err
					}
					return tx.Write((w+1)%8, v+1)
				})
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if i == rounds/2 && w == 0 {
					if err := s.AddWorkers(2); err != nil {
						t.Errorf("add workers: %v", err)
					}
				}
			}
		}(w)
	}

	// Scrape concurrently with the traffic: monotone counters must
	// never regress between successive snapshots.
	scrape := func() string {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read scrape: %v", err)
		}
		return string(body)
	}
	monotone := []string{
		"livetm_tx_starts_total", "livetm_tx_commits_total",
		"livetm_session_submitted_total", "livetm_session_completed_total",
	}
	last := make(map[string]float64)
	for i := 0; i < 20; i++ {
		scrape()
		snap := reg.Snapshot()
		for _, name := range monotone {
			now := familyTotal(snap, name)
			if now < last[name] {
				t.Fatalf("%s regressed: %v -> %v", name, last[name], now)
			}
			last[name] = now
		}
	}
	wg.Wait()

	body := scrape()
	for _, fam := range requiredFamilies {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	if _, err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snap := reg.Snapshot()
	if got, want := familyTotal(snap, "livetm_session_commits_total"), float64(2*rounds); got != want {
		t.Errorf("commits_total = %v, want %v", got, want)
	}
	if got := familyTotal(snap, "livetm_session_submitted_total"); got != float64(2*rounds) {
		t.Errorf("submitted_total = %v, want %d", got, 2*rounds)
	}
	if familyTotal(snap, "livetm_session_workers") != 4 {
		t.Errorf("workers gauge = %v, want 4 after AddWorkers", familyTotal(snap, "livetm_session_workers"))
	}
	if familyTotal(snap, "livetm_recorder_events_total") == 0 {
		t.Errorf("no recorder events counted")
	}
	// Quiescent points, natural or forced, at the cadence of the
	// largest pool.
	quiescedWithin(t, int(familyTotal(snap, "livetm_checker_segments_total")), s.Stats(), 2, 4)
}

// TestSessionStatsMatchRegistry opens an instrumented session and
// asserts SessionStats and the registry agree — Stats is a fold of the
// same instruments, not a second set of counters.
func TestSessionStatsMatchRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTestSession(t, "native-norec", SessionConfig{
		Workers: 2, Vars: 4, Telemetry: reg,
	})
	for i := 0; i < 50; i++ {
		if err := s.ExecOn(context.Background(), AnyWorker, func(tx Tx) error {
			v, err := tx.Read(i % 4)
			if err != nil {
				return err
			}
			return tx.Write(i%4, v+1)
		}); err != nil {
			t.Fatalf("exec: %v", err)
		}
	}
	st := s.Stats()
	snap := reg.Snapshot()
	if got := familyTotal(snap, "livetm_session_commits_total"); got != float64(st.Commits) {
		t.Errorf("registry commits %v != stats %d", got, st.Commits)
	}
	if got := familyTotal(snap, "livetm_session_submitted_total"); got != float64(st.Submitted) {
		t.Errorf("registry submitted %v != stats %d", got, st.Submitted)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestLiveGaugesSettleAtClose: a registry-backed live session shorter
// than one rebias tick still leaves the gauges on the final figures —
// the report's liveness class, each process's open commit gap and the
// closing backoff bias — once Close returns.
func TestLiveGaugesSettleAtClose(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTestSession(t, "native-tl2", SessionConfig{
		Workers: 2, Vars: 2, Live: true, Telemetry: reg,
	})
	for i := 0; i < 10; i++ {
		if err := s.ExecOn(context.Background(), i%2, counterSessionBody(i%2)); err != nil {
			t.Fatalf("exec: %v", err)
		}
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if rep.Events >= liveRebiasEvery {
		t.Fatalf("%d events reach a rebias tick; the test needs fewer than %d", rep.Events, liveRebiasEvery)
	}
	rank := monitor.LivenessRank(rep.LivenessClass())
	if rank == 0 {
		t.Fatalf("healthy session classified %q", rep.LivenessClass())
	}
	bias := s.Stats().BackoffBias
	snap := reg.Snapshot()
	if got, _ := snap.Value("livetm_monitor_liveness_class"); got != float64(rank) {
		t.Errorf("liveness-class gauge %v, report says %q (rank %d)", got, rep.LivenessClass(), rank)
	}
	for _, p := range rep.Procs {
		proc := strconv.Itoa(int(p.Proc) - 1)
		if got, _ := snap.Value("livetm_monitor_starvation", "proc", proc); got != float64(p.OpenGap) {
			t.Errorf("p%d starvation gauge %v, report's open gap %d", p.Proc, got, p.OpenGap)
		}
		if got, _ := snap.Value("livetm_backoff_bias", "proc", proc); got != float64(bias[p.Proc-1]) {
			t.Errorf("p%d bias gauge %v, closing bias %d", p.Proc, got, bias[p.Proc-1])
		}
	}
}

// familyTotal sums every series of family name (0 if absent).
func familyTotal(s telemetry.Snapshot, name string) float64 {
	var t float64
	if f := s.Family(name); f != nil {
		for _, ser := range f.Series {
			t += ser.Value
		}
	}
	return t
}
