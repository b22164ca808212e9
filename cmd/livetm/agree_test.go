package main

import (
	"errors"
	"path/filepath"
	"testing"

	"livetm/internal/core"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/safety"
)

// TestCheckAgreesWithMonitor: `check`, the offline monitor (exact, with
// the live monitor's 48-transaction budget) and safety.CheckOpacity
// give one opacity verdict on the violating-stream fixtures, the
// paper's figure histories and a recorded trace of every native engine
// at two processes. The monitor's smaller budget may leave a trace
// undecided that the others decide, never the other way round.
func TestCheckAgreesWithMonitor(t *testing.T) {
	type trace struct {
		name string
		h    model.History
		want string // "" when only agreement is asserted
	}
	var traces []trace
	files, err := filepath.Glob("../../internal/safety/testdata/violating_b4_*.jsonl")
	if err != nil || len(files) != 4 {
		t.Fatalf("fixtures: %v %v", files, err)
	}
	for _, f := range files {
		h, err := model.LoadTrace(f)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trace{filepath.Base(f), h, "false"})
	}
	traces = append(traces,
		trace{"fig1", core.Fig1(), "true"},
		trace{"fig3", core.Fig3(), "false"},
		trace{"fig4", core.Fig4(), "false"},
		trace{"fig8", core.Fig8(0), "false"},
		trace{"fig11", core.Fig11(7), "false"},
		trace{"fig16", core.Fig16Hex(), "true"},
	)
	dir := t.TempDir()
	for _, e := range engine.Engines(false) {
		if e.Capabilities().Substrate != engine.Native {
			continue
		}
		path := filepath.Join(dir, e.Name()+".jsonl")
		if err := run([]string{"record", "-engine", e.Name(), "-procs", "2", "-ops", "100", "-out", path}); err != nil {
			t.Fatal(err)
		}
		h, err := model.LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trace{e.Name(), h, ""})
	}

	for _, tr := range traces {
		check, err := checkVerdict(tr.h, false)
		if err != nil {
			t.Fatalf("%s: check: %v", tr.name, err)
		}
		front := "undecided"
		res, err := safety.CheckOpacity(tr.h)
		switch {
		case err == nil && res.Holds:
			front = "true"
		case err == nil:
			front = "false"
		case !errors.Is(err, safety.ErrNoQuiescentCut):
			t.Fatalf("%s: CheckOpacity: %v", tr.name, err)
		}
		m, err := monitor.New(monitor.Config{SegmentTxns: 48})
		if err != nil {
			t.Fatal(err)
		}
		_ = m.ObserveHistory(tr.h) // a refusal or violation lands in the report
		mon := "undecided"
		if rep := m.Report(); rep.Checked {
			mon = "false"
			if rep.Opacity.Holds {
				mon = "true"
			}
		}
		t.Logf("%s: check=%s front=%s monitor=%s", tr.name, check.word, front, mon)
		if check.word != front || mon != "undecided" && mon != front {
			t.Errorf("%s: check=%s CheckOpacity=%s monitor=%s disagree", tr.name, check.word, front, mon)
		}
		if tr.want != "" && front != tr.want {
			t.Errorf("%s: opacity %s, want %s", tr.name, front, tr.want)
		}
	}
}
