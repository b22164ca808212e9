package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livetm/internal/adversary"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/workload"
)

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand must error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand must error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestCmdTMs(t *testing.T) {
	if err := run([]string{"tms"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdServe runs a short soak: the service must drain after
// -duration with a clean final report. Run with -race.
func TestCmdServe(t *testing.T) {
	if err := run([]string{"serve", "-engine", "native-norec", "-workers", "2", "-submitters", "5",
		"-duration", "400ms", "-progress", "150ms"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"serve", "-engine", "sim-tl2", "-duration", "100ms"}); err == nil {
		t.Error("serve on a simulated engine must error")
	}
	if err := run([]string{"serve", "-engine", "nope", "-duration", "100ms"}); err == nil {
		t.Error("serve on an unknown engine must error")
	}
}

func TestCmdMatrixSmall(t *testing.T) {
	if err := run([]string{"matrix", "-steps", "600", "-ablations=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdAdversary(t *testing.T) {
	if err := run([]string{"adversary", "-tm", "dstm", "-alg", "1", "-rounds", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"adversary", "-tm", "tl2", "-alg", "2", "-parasitic", "-rounds", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"adversary", "-tm", "nope"}); err == nil {
		t.Error("unknown TM must error")
	}
	if err := run([]string{"adversary", "-tm", "dstm", "-alg", "9"}); err == nil {
		t.Error("invalid algorithm must error")
	}
}

func TestCmdAdversaryNativeEngine(t *testing.T) {
	if err := run([]string{"adversary", "-engine", "native-tl2", "-alg", "2", "-rounds", "3"}); err != nil {
		t.Fatal(err)
	}
	// A sim engine name routes to the simulated driver for the same
	// algorithm.
	if err := run([]string{"adversary", "-engine", "sim-tl2", "-rounds", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"adversary", "-engine", "native-nope", "-rounds", "2"}); err == nil {
		t.Error("unknown native engine must error")
	}
	if err := run([]string{"adversary", "-engine", "bogus", "-rounds", "2"}); err == nil {
		t.Error("an engine name without a substrate prefix must error")
	}
	if err := run([]string{"adversary", "-artifact", "x.json"}); err == nil {
		t.Error("-artifact without -matrix must error")
	}
	if err := run([]string{"adversary", "-matrix", "-alg", "2", "-rounds", "2"}); err == nil {
		t.Error("-matrix runs every variant; combining it with -alg must error")
	}
	if err := run([]string{"adversary", "-matrix", "-out", "x.jsonl", "-rounds", "2"}); err == nil {
		t.Error("-matrix cannot honour -out and must error")
	}
}

func TestCmdAdversaryMatrixArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "starvation.json")
	if err := run([]string{"adversary", "-matrix", "-rounds", "2", "-artifact", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art adversary.StarvationArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) == 0 || art.Rounds != 2 {
		t.Errorf("artifact rounds=%d cells=%d", art.Rounds, len(art.Cells))
	}
	for _, c := range art.Cells {
		if c.Substrate != "sim" && c.Substrate != "native" {
			t.Errorf("cell %s/%s has substrate %q", c.Strategy, c.Engine, c.Substrate)
		}
	}
}

func TestCmdAdversaryOutAndCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"adversary", "-tm", "ostm", "-rounds", "3", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-file", path, "-render=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check"}); err == nil {
		t.Error("check without -file must error")
	}
	if err := run([]string{"check", "-file", filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Error("check with a missing file must error")
	}
}

func TestCmdClassify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"adversary", "-tm", "tl2", "-rounds", "3", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-file", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-file", path, "-split", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify"}); err == nil {
		t.Error("classify without -file must error")
	}
	if err := run([]string{"classify", "-file", path, "-split", "100000"}); err == nil {
		t.Error("out-of-range split must error")
	}
}

func TestCmdTheorem1(t *testing.T) {
	if err := run([]string{"theorem1", "-rounds", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdTheorem3(t *testing.T) {
	if err := run([]string{"theorem3", "-schedules", "3", "-ops", "60"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdExplore(t *testing.T) {
	if err := run([]string{"explore", "-tm", "tl2", "-depth", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"explore", "-tm", "nope"}); err == nil {
		t.Error("unknown TM must error")
	}
}

func TestCmdFgpDOT(t *testing.T) {
	if err := run([]string{"fgp-dot"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fgp-dot", "-procs", "2", "-limit", "3"}); err == nil {
		t.Error("limit overflow must error")
	}
}

func TestCmdFgpStates(t *testing.T) {
	if err := run([]string{"fgp-states"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fgp-states", "-variant", "corrected"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fgp-states", "-variant", "wat"}); err == nil {
		t.Error("invalid variant must error")
	}
	if err := run([]string{"fgp-states", "-procs", "2", "-vars", "1", "-limit", "5"}); err == nil {
		t.Error("limit overflow must error")
	}
}

func TestCmdLattice(t *testing.T) {
	if err := run([]string{"lattice", "-samples", "500"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdReport(t *testing.T) {
	if err := run([]string{"report", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdEngines(t *testing.T) {
	if err := run([]string{"engines"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdWorkloads: the plain matrix prints one table row per
// (engine, spec) cell and writes nothing; -out is refused, since the
// matrix writes no artifact.
func TestCmdWorkloads(t *testing.T) {
	table := workloadsTable(t, "-procs", "2", "-simsteps", "300", "-ops", "20")
	cells := len(engine.Engines(false)) * len(workload.Matrix([]int{2}))
	if len(table) != 1+cells {
		t.Fatalf("table has %d lines, want a header and %d rows:\n%s", len(table), cells, strings.Join(table, "\n"))
	}
	if strings.Contains(table[0], "liveness") {
		t.Errorf("plain matrix header %q has a liveness column", table[0])
	}
	for _, row := range table[1:] {
		if f := strings.Fields(row); len(f) < 7 || !strings.HasPrefix(f[1], "p2/") {
			t.Errorf("malformed row %q", row)
		}
	}
	if err := run([]string{"workloads", "-procs", "zero"}); err == nil {
		t.Error("bad process list must error")
	}
	if err := run([]string{"workloads", "-out", filepath.Join(t.TempDir(), "m.json")}); err == nil {
		t.Error("-out must be refused: the matrix writes no artifact")
	}
}

// workloadsTable runs `livetm workloads` with args and returns the
// result table it prints: the header line and one row per cell.
func workloadsTable(t *testing.T, args ...string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "workloads.out")
	withStdout(t, path, func() {
		if err := run(append([]string{"workloads"}, args...)); err != nil {
			t.Fatal(err)
		}
	})
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "engine ") || strings.HasPrefix(line, "sim-") || strings.HasPrefix(line, "native-") {
			table = append(table, line)
		}
	}
	if len(table) == 0 || !strings.HasPrefix(table[0], "engine ") {
		t.Fatalf("no result table in the output:\n%s", out)
	}
	return table
}

func TestCmdRecordAndMonitor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "native.jsonl")
	if err := run([]string{"record", "-engine", "native-tl2", "-procs", "2", "-ops", "15", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace missing or empty: %v", err)
	}
	if err := run([]string{"monitor", "-file", path, "-every", "50"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-file", path, "-render=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"record", "-engine", "no-such"}); err == nil {
		t.Error("unknown engine must error")
	}
	if err := run([]string{"record", "-engine", "native-tl2", "-mix", "wat"}); err == nil {
		t.Error("unknown mix must error")
	}
	if err := run([]string{"monitor"}); err == nil {
		t.Error("monitor without -file must error")
	}
	if err := run([]string{"monitor", "-file", filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Error("monitor with a missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	lines := `{"proc":1,"kind":"tryC"}` + "\n" + `{"proc":1,"kind":"C"}` + "\n" + `{"proc":1,"kind":"?"}` + "\n"
	if err := os.WriteFile(bad, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"monitor", "-file", bad}); err == nil || !strings.Contains(err.Error(), `monitor: decode event 2: model: unknown event kind "?"`) {
		t.Errorf("monitor over a trace whose third event is bad: %v", err)
	}
}

func TestCmdRecordSimEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim.jsonl")
	if err := run([]string{"record", "-engine", "sim-tl2", "-procs", "2", "-ops", "5", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"monitor", "-file", path}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdCheckStdin: `livetm record ... | livetm check -file -` works
// without a temp file (stdin stands in for the pipe here).
func TestCmdCheckStdin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"record", "-engine", "native-norec", "-procs", "2", "-ops", "10", "-out", path}); err != nil {
		t.Fatal(err)
	}
	withStdin(t, path, func() {
		if err := run([]string{"check", "-file", "-", "-render=false"}); err != nil {
			t.Error(err)
		}
	})
	withStdin(t, path, func() {
		if err := run([]string{"monitor", "-file", "-"}); err != nil {
			t.Error(err)
		}
	})
	withStdin(t, path, func() {
		if err := run([]string{"classify", "-file", "-"}); err != nil {
			t.Error(err)
		}
	})
}

// TestCmdRecordDefaultsIntoCheck: `livetm record | livetm check -file -`
// with record's defaults — more transactions than the whole-history
// search takes — is decided segment by segment, not refused.
func TestCmdRecordDefaultsIntoCheck(t *testing.T) {
	dir := t.TempDir()
	tracePath, outPath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "check.out")
	withStdout(t, tracePath, func() {
		if err := run([]string{"record"}); err != nil {
			t.Fatal(err)
		}
	})
	h, err := model.LoadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if txns, err := model.Transactions(h); err != nil || len(txns) <= 64 {
		t.Fatalf("record's default trace has %d transactions (%v), want more than 64", len(txns), err)
	}
	withStdin(t, tracePath, func() {
		withStdout(t, outPath, func() {
			if err := run([]string{"check", "-file", "-", "-render=false"}); err != nil {
				t.Fatal(err)
			}
		})
	})
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "opaque=true strictly-serializable=true") {
		t.Errorf("check did not decide record's default trace:\n%s", out)
	}
}

func TestCmdWorkloadsChecked(t *testing.T) {
	if err := run([]string{"workloads", "-procs", "2", "-simsteps", "300", "-ops", "12", "-check"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdRunLive: `livetm run` drives a native cell under the
// in-process monitor, optionally retaining the trace.
func TestCmdRunLive(t *testing.T) {
	if err := run([]string{"run", "-engine", "native-tl2", "-procs", "2", "-ops", "20"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.jsonl")
	if err := run([]string{"run", "-engine", "native-dstm", "-procs", "2", "-ops", "15", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("live trace missing or empty: %v", err)
	}
	if err := run([]string{"check", "-file", path, "-render=false"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-engine", "no-such"}); err == nil {
		t.Error("unknown engine must error")
	}
	if err := run([]string{"run", "-engine", "sim-tl2"}); err == nil {
		t.Error("live run on a simulated engine must error")
	}
}

// TestCmdWorkloadsLive: with -live the table gains the liveness and
// quiescent-cut columns, and every native row prints a liveness class
// and a non-zero cut count; -overhead is refused, since the matrix
// measures no overhead ratio.
func TestCmdWorkloadsLive(t *testing.T) {
	table := workloadsTable(t, "-procs", "2", "-simsteps", "200", "-ops", "12", "-live", "-check")
	header := strings.Fields(table[0])
	if len(header) != 10 || header[7] != "liveness" || header[8] != "cuts" {
		t.Fatalf("live matrix header %q, want liveness and cut columns", table[0])
	}
	liveCells := 0
	for _, row := range table[1:] {
		if !strings.HasPrefix(row, "native-") {
			continue
		}
		liveCells++
		// The class may contain spaces ("local progress"), so the cut
		// columns are read from the end of the row.
		f := strings.Fields(row)
		if class := strings.Join(f[7:len(f)-2], " "); class == "" || class == "-" {
			t.Errorf("live row without a liveness class: %q", row)
		}
		if f[len(f)-2] == "0" {
			t.Errorf("live row took no quiescent cuts: %q", row)
		}
	}
	if liveCells == 0 {
		t.Fatal("no native rows in the table")
	}
	if err := run([]string{"workloads", "-overhead"}); err == nil {
		t.Error("-overhead must be refused: the matrix measures no overhead ratio")
	}
}
