package workload

import (
	"strings"
	"testing"

	"livetm/internal/engine"
	"livetm/internal/monitor"
)

// quiescedWithin reports whether a live cell's checker found a
// quiescent point, natural or forced, within every cut interval. At the
// session's default cadence (QuiesceEvery 4) at most 4 × procs attempts
// end between two such points, plus the procs - 1 in flight when a cut
// is made pending, and every attempt is a transaction of the stream.
func quiescedWithin(r Result) bool {
	const quiesce = 4
	return uint64(r.Segments) >= (r.Commits+r.Aborts)/uint64(quiesce*r.Procs+r.Procs-1)
}

// TestRunMatrixLive: native cells run under the in-process monitor —
// verdicts come from the live checker, every cell carries a liveness
// class, a quiescent point within every cut interval and a consistent
// forced-cut summary, and the table prints each live cell's class —
// while simulated cells ride along unaffected.
func TestRunMatrixLive(t *testing.T) {
	var engines []engine.Engine
	for _, name := range []string{"sim-tl2", "native-tl2", "native-dstm"} {
		e, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("engine %s not registered", name)
		}
		engines = append(engines, e)
	}
	specs := Matrix([]int{2})
	results, err := RunMatrix(engines, specs,
		Budget{SimSteps: 300, NativeOps: 24},
		Options{Live: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Substrate != "native" {
			if r.Live {
				t.Errorf("%s/%s: simulated cell marked live", r.Engine, r.Workload)
			}
			continue
		}
		if !r.Live {
			t.Errorf("%s/%s: native cell not live", r.Engine, r.Workload)
		}
		if r.LivenessClass == "" {
			t.Errorf("%s/%s: live cell without liveness class", r.Engine, r.Workload)
		}
		if !r.Checked {
			t.Errorf("%s/%s: live cell undecided", r.Engine, r.Workload)
		}
		if !quiescedWithin(r) || r.CutP50ns > r.CutP99ns {
			t.Errorf("%s/%s: %d segments over %d commits and %d aborts; %d forced cuts, p50 %dns, p99 %dns",
				r.Engine, r.Workload, r.Segments, r.Commits, r.Aborts, r.Cuts, r.CutP50ns, r.CutP99ns)
		}
	}
	lines := strings.Split(strings.TrimSuffix(FormatResults(results), "\n"), "\n")
	if len(lines) != 1+len(results) {
		t.Fatalf("table has %d lines, want a header and %d rows", len(lines), len(results))
	}
	if h := strings.Fields(lines[0]); len(h) < 8 || h[7] != "liveness" {
		t.Fatalf("live matrix header %q lacks the liveness column", lines[0])
	}
	for i, r := range results {
		row := lines[1+i]
		if !strings.HasPrefix(row, r.Engine) {
			t.Errorf("row %d %q, want engine %s", i, row, r.Engine)
		}
		if r.Live && !strings.Contains(row, " "+r.LivenessClass) {
			t.Errorf("row %d %q lacks liveness class %q", i, row, r.LivenessClass)
		}
	}
}

// TestLiveBackoffPreservesOpacity is the property check for
// starvation-aware backoff: whatever the feedback loop does to the
// retry schedule, it must never change a correct cell's opacity
// verdict. The hottest cell of the matrix (update mix, hot contention,
// shared variables) runs repeatedly with the bias active and the
// recorded history is re-checked offline with the exact (non-approx)
// checker; both verdicts must be opaque every time. Run with -race.
func TestLiveBackoffPreservesOpacity(t *testing.T) {
	var spec Spec
	for _, s := range Matrix([]int{4}) {
		if s.Mix.Name == "update" && s.Contention.Name == "hot" && s.Sharing == Shared {
			spec = s
			break
		}
	}
	for _, name := range []string{"native-tl2", "native-tinystm"} {
		e, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("engine %s not registered", name)
		}
		for iter := 0; iter < 3; iter++ {
			st, err := e.Run(engine.RunConfig{
				Procs: spec.Procs, Vars: spec.Vars, OpsPerProc: 25,
				Live: true, Record: true,
			}, spec.Body())
			if err != nil {
				t.Fatalf("%s iter %d: live run failed: %v", name, iter, err)
			}
			if !st.Live.Checked || !st.Live.Opacity.Holds {
				t.Fatalf("%s iter %d: live verdict changed under backoff bias: %+v",
					name, iter, st.Live.Opacity)
			}
			// Offline exact re-check of the same recorded history: the
			// live (possibly approximate) verdict and the exact one must
			// agree wherever the exact checker decides.
			m, err := monitor.New(monitor.Config{SegmentTxns: 48})
			if err != nil {
				t.Fatal(err)
			}
			_ = m.ObserveHistory(st.History)
			rep := m.Report()
			if rep.Checked && !rep.Opacity.Holds {
				t.Fatalf("%s iter %d: offline check found a violation the live monitor missed: %s",
					name, iter, rep.Opacity.Reason)
			}
		}
	}
}
