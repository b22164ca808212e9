package engine

import (
	"strings"
	"testing"

	"livetm/internal/monitor"
)

// disjointBody gives each process its own counter, so a sharded
// session with procs == shards keeps every transaction inside its
// home shard.
func disjointBody() TxBody {
	return func(proc, round int, tx Tx) error {
		v, err := tx.Read(proc)
		if err != nil {
			return err
		}
		return tx.Write(proc, v+1)
	}
}

// TestShardConfigValidation: the shard knob's fitness rules surface as
// configuration errors, not as runtime misbehavior.
func TestShardConfigValidation(t *testing.T) {
	native, _ := Lookup("native-tl2")
	sim, _ := Lookup("sim-tl2")
	cases := []struct {
		name string
		e    Engine
		cfg  RunConfig
	}{
		{"not power of two", native, RunConfig{Procs: 6, Vars: 6, OpsPerProc: 4, Record: true, Shards: 3}},
		{"without record or live", native, RunConfig{Procs: 4, Vars: 4, OpsPerProc: 4, Shards: 2}},
		{"more shards than procs", native, RunConfig{Procs: 2, Vars: 8, OpsPerProc: 4, Record: true, Shards: 4}},
		{"not dividing procs", native, RunConfig{Procs: 6, Vars: 8, OpsPerProc: 4, Record: true, Shards: 4}},
		{"more shards than vars", native, RunConfig{Procs: 4, Vars: 2, OpsPerProc: 4, Record: true, Shards: 4}},
		{"simulated substrate", sim, RunConfig{Procs: 4, Vars: 4, SimSteps: 100, Record: true, Shards: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.e.Run(tc.cfg, disjointBody()); err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
		})
	}
}

// TestShardedLiveAgreesWithSingleChecker is the engine-level half of
// the sharded-equals-single property: a sharded live run's verdict
// must match a single-lane replay of the same history through the
// monitor an unsharded live session runs, and the per-shard cut
// accounting must add up. Run with -race.
func TestShardedLiveAgreesWithSingleChecker(t *testing.T) {
	for _, body := range []struct {
		name string
		fn   TxBody
		vars int
	}{
		{"disjoint", disjointBody(), 4},
		// Every process hammers both shards: the spanning degrade path
		// (global cuts) and the checker's cross-shard merges.
		{"spanning", mixedBody(4), 4},
	} {
		t.Run(body.name, func(t *testing.T) {
			e, ok := Lookup("native-tl2")
			if !ok {
				t.Fatal("native-tl2 not registered")
			}
			const procs, ops, shards = 4, 200, 4
			st, err := e.Run(RunConfig{
				Procs: procs, Vars: body.vars, OpsPerProc: ops,
				Record: true, Live: true, QuiesceEvery: 4, Shards: shards,
			}, body.fn)
			if err != nil {
				t.Fatal(err)
			}
			if st.Shards != shards {
				t.Fatalf("Stats.Shards = %d, want %d", st.Shards, shards)
			}
			if len(st.ShardCuts) != shards {
				t.Fatalf("ShardCuts covers %d shards, want %d", len(st.ShardCuts), shards)
			}
			var sum uint64
			for _, cs := range st.ShardCuts {
				sum += cs.Count
			}
			if sum != st.CutLatency.Count || sum == 0 {
				t.Fatalf("per-shard cuts sum to %d, total %d (want equal and nonzero)", sum, st.CutLatency.Count)
			}
			if st.Live == nil || !st.Live.Checked {
				t.Fatalf("sharded live run undecided: %+v", st.Live)
			}
			if len(st.Live.ShardSegments) != shards {
				t.Fatalf("ShardSegments covers %d lanes, want %d", len(st.Live.ShardSegments), shards)
			}
			// Replay the recorded history through the monitor of an
			// unsharded live session (48-transaction segments, forced
			// frontiers when cut-starved): shard-local cuts are not global
			// quiescent points, so an exact replay would refuse whenever
			// the schedule supplied no global one. The verdicts must agree.
			m, err := monitor.New(monitor.Config{SegmentTxns: 48, Approx: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ObserveHistory(st.History); err != nil && !strings.Contains(err.Error(), "violation") {
				t.Fatal(err)
			}
			rep := m.Report()
			if !rep.Checked {
				t.Fatal("single-checker replay undecided")
			}
			if rep.Opacity.Holds != st.Live.Opacity.Holds {
				t.Fatalf("verdict flip: sharded live says holds=%v, single checker says holds=%v (%s)",
					st.Live.Opacity.Holds, rep.Opacity.Holds, rep.Opacity.Reason)
			}
		})
	}
}
