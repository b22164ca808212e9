package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"livetm/internal/adversary"
	"livetm/internal/fgp"
	"livetm/internal/liveness"
	"livetm/internal/model"
	"livetm/internal/safety"
)

// TestFig01 pins Figure 1's verdicts: opaque, strictly serializable.
func TestFig01(t *testing.T) {
	op, err := safety.CheckOpacity(Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !op.Holds {
		t.Errorf("figure 1 must be opaque: %s", op.Reason)
	}
	ss, err := safety.CheckStrictSerializability(Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Holds {
		t.Error("figure 1 must be strictly serializable")
	}
}

func TestFigureSafetyVerdicts(t *testing.T) {
	tests := []struct {
		name   string
		h      model.History
		opaque bool
		ss     bool
	}{
		{"fig3", Fig3(), false, false},
		{"fig4", Fig4(), false, true},
		{"fig8(v=0)", Fig8(0), false, false},
		{"fig11(v=7)", Fig11(7), false, false},
		{"fig16", Fig16Hex(), true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			op, err := safety.CheckOpacity(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if op.Holds != tt.opaque {
				t.Errorf("opaque = %v, want %v (%s)", op.Holds, tt.opaque, op.Reason)
			}
			ss, err := safety.CheckStrictSerializability(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if ss.Holds != tt.ss {
				t.Errorf("strictly serializable = %v, want %v", ss.Holds, tt.ss)
			}
		})
	}
}

func TestLassoFigures(t *testing.T) {
	if !liveness.LocalProgress.Contains(Fig5()) {
		t.Error("figure 5 ensures local progress")
	}
	l6 := Fig6()
	if liveness.LocalProgress.Contains(l6) || !liveness.GlobalProgress.Contains(l6) {
		t.Error("figure 6 ensures global but not local progress")
	}
	l7 := Fig7()
	if !liveness.SoloProgress.Contains(l7) {
		t.Error("figure 7 ensures solo progress")
	}
	if p, ok := l7.RunsAlone(); !ok || p != 3 {
		t.Error("p3 runs alone in figure 7")
	}
	l14 := Fig14()
	if !liveness.ViolatesNonblocking(l14) {
		t.Error("figure 14 violates every nonblocking property")
	}
}

func TestFig16IsFgpHistory(t *testing.T) {
	for _, variant := range []fgp.Variant{fgp.Faithful, fgp.Corrected} {
		a, err := fgp.New(3, 2, variant)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.IOAutomaton().Replay(Fig16Hex()); err != nil {
			t.Errorf("Hex must replay under %s: %v", variant, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	base := Registry(false)
	if len(base) != 8 {
		t.Fatalf("base registry has %d entries, want 8", len(base))
	}
	all := Registry(true)
	if len(all) != 13 {
		t.Fatalf("full registry has %d entries, want 13", len(all))
	}
	seen := map[string]bool{}
	for _, nf := range all {
		if seen[nf.Name] {
			t.Errorf("duplicate name %q", nf.Name)
		}
		seen[nf.Name] = true
		tm := nf.Factory(4, 2)
		if tm == nil {
			t.Fatalf("%s factory returned nil", nf.Name)
		}
	}
	if _, ok := Lookup("tl2"); !ok {
		t.Error("Lookup(tl2) must succeed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) must fail")
	}
}

// TestLivenessMatrix is E20: the measured matrix must match the
// paper's §3.2.3 claims for every TM, including the ablations.
func TestLivenessMatrix(t *testing.T) {
	rows := RunMatrix(MatrixConfig{Steps: 1200, Sweep: 30, Ablations: true})
	if len(rows) != 13 {
		t.Fatalf("matrix has %d rows, want 13", len(rows))
	}
	for _, r := range rows {
		if !r.Match() {
			t.Errorf("%s: measured %+v, paper predicts %+v "+
				"(fault-free min %d, crash worst %d, parasitic %d/%d)",
				r.Name, r.Measured, r.Expected,
				r.FaultFreeMinCommits, r.CrashWorstCommits,
				r.ParasiticFairCommits, r.ParasiticBiasedCommits)
		}
	}
	table := FormatMatrix(rows)
	for _, want := range []string{"glock", "tl2", "fgp", "match"} {
		if !strings.Contains(table, want) {
			t.Errorf("formatted matrix missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "MISMATCH") {
		t.Errorf("matrix reports mismatches:\n%s", table)
	}
	checkGolden(t, "matrix.golden", table)
}

// checkGolden compares got with testdata/name byte for byte. The
// goldens pin the rendered tables, so a change to the simulator, a TM
// or the adversary that moves any count fails here.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal([]byte(got), want) {
		return
	}
	gl := strings.Split(got, "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from testdata/%s at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/%s %d", len(gl), name, len(wl))
}

// TestTheorem1Evidence is E17: local progress fails against every TM.
func TestTheorem1Evidence(t *testing.T) {
	outs := Theorem1Evidence(5, true)
	if len(outs) != 26 { // 13 TMs × 2 strategies
		t.Fatalf("got %d outcomes, want 26", len(outs))
	}
	for _, o := range outs {
		if !o.Starved {
			t.Errorf("%s/%s: p1 committed — impossibility breached", o.TM, o.Strategy)
		}
	}
	table := FormatTheorem1(outs)
	if !strings.Contains(table, "starved") && !strings.Contains(table, "blocked") {
		t.Errorf("table must classify outcomes:\n%s", table)
	}
	if strings.Contains(table, "P1-COMMITTED") {
		t.Errorf("table reports a breach:\n%s", table)
	}
	checkGolden(t, "theorem1.golden", table)
}

// TestFormalVerdicts closes the loop: the Theorem 1 runs, read as
// infinite histories, formally fail local progress and 2-progress
// while satisfying global progress.
func TestFormalVerdicts(t *testing.T) {
	for _, name := range []string{"dstm", "tl2", "tinystm", "ostm", "fgp", "norec"} {
		nf, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		res := adversary.NewSimDriver(nf.Factory, adversary.Config{Rounds: 8, Seed: 3}).Run(adversary.Strategy{Algorithm: 1})
		v, err := FormalVerdicts(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v["local"] {
			t.Errorf("%s: run must fail local progress", name)
		}
		if v["2-progress"] {
			t.Errorf("%s: run must fail 2-progress", name)
		}
		if !v["global"] {
			t.Errorf("%s: run must satisfy global progress (p2 keeps committing)", name)
		}
	}

	// Figures 9 and 12 (cmd/figures' runs): p1 crashes or is parasitic,
	// so it is faulty and owed no progress, and local progress holds.
	nf, _ := Lookup("dstm")
	for name, res := range map[string]adversary.Result{
		"crash":     adversary.NewSimDriver(nf.Factory, adversary.Config{Rounds: 3, Seed: 5}).Run(adversary.Strategy{Algorithm: 1, Crash: true}),
		"parasitic": adversary.NewSimDriver(nf.Factory, adversary.Config{Rounds: 3, Seed: 5}).Run(adversary.Strategy{Algorithm: 2, Parasitic: true}),
	} {
		v, err := FormalVerdicts(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v["local"] || !v["global"] {
			t.Errorf("%s: local=%t global=%t, want both true with p1 faulty", name, v["local"], v["global"])
		}
	}
}

// TestTheorem2Evidence is E18.
func TestTheorem2Evidence(t *testing.T) {
	notes := Theorem2Evidence()
	if len(notes) != 2 {
		t.Fatalf("want 2 evidence notes, got %v", notes)
	}
	for _, n := range notes {
		if strings.Contains(n, "ERROR") {
			t.Errorf("evidence note reports an error: %s", n)
		}
	}
}

// TestTheorem3Evidence is E19.
func TestTheorem3Evidence(t *testing.T) {
	out := Theorem3Evidence(10, 150)
	if out.Violation != "" {
		t.Fatalf("Fgp violated Theorem 3: %s", out.Violation)
	}
	if out.SchedulesChecked != 10 || out.PrefixesOpaque != 10 {
		t.Errorf("checked %d schedules, %d opaque prefixes; want 10, 10",
			out.SchedulesChecked, out.PrefixesOpaque)
	}
	if out.Commits == 0 {
		t.Error("Fgp must commit during the runs")
	}
	// The seeded schedules are deterministic, so the counts are pinned.
	if want := (Theorem3Outcome{SchedulesChecked: 10, PrefixesOpaque: 10, Commits: 196}); out != want {
		t.Errorf("Theorem 3 evidence = %+v, want %+v", out, want)
	}
}

// Fig11 is Figure 11, identical in shape to Figure 8.
func Fig11(v model.Value) model.History { return Fig8(v) }
