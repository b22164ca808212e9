package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// paper's figure histories, a recorded trace of every native engine
// at two processes, and native-tl2 traces of about 10², 10³ and 10⁴
// transactions. The monitor's smaller budget may leave a trace
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
		trace{"fig11", core.Fig8(7), "false"}, // Figure 11 has Figure 8's shape
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
	// Traces of about 10², 10³ and 10⁴ transactions, each decoded from
	// its file and again from memory. ReadTrace counts the events of
	// both before it sizes the history: the two must be one history,
	// with no event reserved past its end.
	for _, ops := range []int{50, 500, 5000} {
		name := fmt.Sprintf("native-tl2-ops%d", ops)
		path := filepath.Join(dir, name+".jsonl")
		if err := run([]string{"record", "-engine", "native-tl2", "-procs", "2", "-ops", strconv.Itoa(ops), "-out", path}); err != nil {
			t.Fatal(err)
		}
		h, err := model.LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		counted, err := model.ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(counted, h) {
			t.Fatalf("%s: the in-memory decode (%d events) differs from the file's (%d)", name, len(counted), len(h))
		}
		if cap(h) != len(h) || cap(counted) != len(counted) {
			t.Errorf("%s: the decodes reserved %d (file) and %d (memory) events for %d", name, cap(h), cap(counted), len(h))
		}
		traces = append(traces, trace{name, counted, ""})
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
