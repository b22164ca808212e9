package workload

import (
	"strings"
	"testing"

	"livetm/internal/engine"
)

func TestMatrixShape(t *testing.T) {
	procs := []int{2, 4}
	specs := Matrix(procs)
	want := len(procs) * len(Mixes()) * len(Contentions()) * 2
	if len(specs) != want {
		t.Fatalf("matrix has %d specs, want %d", len(specs), want)
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
		if s.Vars < s.Procs {
			t.Errorf("%s: vars %d < procs %d (disjoint partitions impossible)", s.Name, s.Vars, s.Procs)
		}
	}
}

// indexRecorder captures the variable indexes a body touches.
type indexRecorder struct{ touched []int }

func (r *indexRecorder) Read(i int) (int64, error) { r.touched = append(r.touched, i); return 0, nil }
func (r *indexRecorder) Write(i int, v int64) error {
	r.touched = append(r.touched, i)
	return nil
}

// TestDisjointPartitions: a disjoint spec's body must stay inside its
// process's own variable partition, and the operation sequence must
// be a pure function of (proc, round) — idempotent across retries.
func TestDisjointPartitions(t *testing.T) {
	for _, spec := range Matrix([]int{4}) {
		body := spec.Body()
		for proc := 0; proc < spec.Procs; proc++ {
			for round := 0; round < 10; round++ {
				a, b := &indexRecorder{}, &indexRecorder{}
				if err := body(proc, round, a); err != nil {
					t.Fatal(err)
				}
				if err := body(proc, round, b); err != nil {
					t.Fatal(err)
				}
				if len(a.touched) != len(b.touched) {
					t.Fatalf("%s: body not deterministic", spec.Name)
				}
				per := spec.Vars / spec.Procs
				for k, i := range a.touched {
					if i != b.touched[k] {
						t.Fatalf("%s: body not deterministic", spec.Name)
					}
					if i < 0 || i >= spec.Vars {
						t.Fatalf("%s: index %d out of range", spec.Name, i)
					}
					if spec.Sharing == Disjoint && (i < proc*per || i >= (proc+1)*per) {
						t.Fatalf("%s: proc %d touched foreign variable %d", spec.Name, proc, i)
					}
				}
				if want := spec.Mix.Reads + 2*spec.Mix.Writes; len(a.touched) != want {
					t.Fatalf("%s: %d operations, want %d", spec.Name, len(a.touched), want)
				}
			}
		}
	}
}

// TestUndersizedDisjointSpec: a hand-built spec with fewer variables
// than processes must fail with a clean error, not divide by zero.
func TestUndersizedDisjointSpec(t *testing.T) {
	spec := Spec{Name: "bad", Procs: 4, Vars: 2, Mix: Mix{Reads: 1, Writes: 1}, Sharing: Disjoint}
	body := spec.Body()
	rec := &indexRecorder{}
	if err := body(0, 0, rec); err != nil { // in-range process still works
		t.Fatal(err)
	}
	e, ok := engine.Lookup("native-tl2")
	if !ok {
		t.Fatal("native-tl2 not registered")
	}
	_, err := e.Run(engine.RunConfig{Procs: spec.Procs, Vars: spec.Vars, OpsPerProc: 2}, body)
	if err == nil {
		t.Fatal("undersized disjoint spec must surface an error")
	}
}

// TestRunMatrixCrossEngine runs a small matrix on one engine per
// substrate: one cell per (engine, spec) in declaration order, each
// with its substrate's throughput figure, and one table row per cell.
func TestRunMatrixCrossEngine(t *testing.T) {
	var engines []engine.Engine
	for _, name := range []string{"sim-tl2", "native-tl2"} {
		e, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("engine %s not registered", name)
		}
		engines = append(engines, e)
	}
	specs := Matrix([]int{2})
	results, err := RunMatrix(engines, specs, Budget{SimSteps: 400, NativeOps: 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(engines)*len(specs) {
		t.Fatalf("got %d cells, want %d", len(results), len(engines)*len(specs))
	}
	for i, r := range results {
		if want := engines[i/len(specs)].Name() + "/" + specs[i%len(specs)].Name; r.Engine+"/"+r.Workload != want {
			t.Errorf("cell %d is %s/%s, want %s", i, r.Engine, r.Workload, want)
		}
		if r.Commits == 0 {
			t.Errorf("%s/%s: no commits", r.Engine, r.Workload)
		}
		if r.Substrate == "native" && r.OpsPerSec == 0 {
			t.Errorf("%s/%s: native cell without ops/sec", r.Engine, r.Workload)
		}
		if r.Substrate == "sim" && r.CommitsPerStep == 0 {
			t.Errorf("%s/%s: sim cell without commits/step", r.Engine, r.Workload)
		}
	}
	lines := strings.Split(strings.TrimSuffix(FormatResults(results), "\n"), "\n")
	if len(lines) != 1+len(results) {
		t.Fatalf("table has %d lines, want a header and %d rows", len(lines), len(results))
	}
	if !strings.HasPrefix(lines[0], "engine") || strings.Contains(lines[0], "liveness") {
		t.Errorf("plain matrix header %q", lines[0])
	}
	for i, r := range results {
		if f := strings.Fields(lines[1+i]); len(f) < 2 || f[0] != r.Engine || f[1] != r.Workload {
			t.Errorf("row %d %q, want %s %s", i, lines[1+i], r.Engine, r.Workload)
		}
	}
}

// TestRunMatrixShardSweep runs one native engine live over the p4
// matrix: every spec yields exactly one cell, each cell had a quiescent
// point within every cut interval and carries a consistent forced-cut
// summary, and no cell flips its
// opacity verdict (a violation would fail the sweep outright). The
// name predates the removal of keyspace sharding, when the sweep also
// ran each spec split four ways.
func TestRunMatrixShardSweep(t *testing.T) {
	e, ok := engine.Lookup("native-tl2")
	if !ok {
		t.Fatal("native-tl2 not registered")
	}
	specs := Matrix([]int{4})
	results, err := RunMatrix([]engine.Engine{e}, specs,
		Budget{NativeOps: 24},
		Options{Check: true, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d cells, want %d (one per spec)", len(results), len(specs))
	}
	for _, r := range results {
		if !r.Live {
			t.Errorf("%s: cell did not run live", r.Workload)
		}
		if !quiescedWithin(r) {
			t.Errorf("%s: %d segments over %d commits and %d aborts: some cut interval had no quiescent point",
				r.Workload, r.Segments, r.Commits, r.Aborts)
		}
		if r.CutP50ns > r.CutP99ns {
			t.Errorf("%s: cut p50 %dns above p99 %dns", r.Workload, r.CutP50ns, r.CutP99ns)
		}
	}
}

// TestRunMatrixRecordChecked runs the record/check path on both
// substrates: every cell must capture a history and
// pass the online monitor's well-formedness and opacity checks.
func TestRunMatrixRecordChecked(t *testing.T) {
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
		Budget{SimSteps: 400, NativeOps: 16},
		Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	undecided := 0
	for _, r := range results {
		if !r.Recorded {
			t.Errorf("%s/%s: cell not recorded", r.Engine, r.Workload)
		}
		if !r.Checked {
			undecided++
		}
	}
	// Recorded native cells take quiescent cuts and simulated
	// cells quiesce naturally, so the vast majority of cells must be
	// decided, not refused.
	if undecided > len(results)/4 {
		t.Errorf("%d of %d cells undecided", undecided, len(results))
	}
}
