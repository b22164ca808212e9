package monitor

import (
	"errors"
	"testing"

	"livetm/internal/model"
	"livetm/internal/record"
	"livetm/internal/safety"
)

// committedTxn is one whole committed increment transaction of p.
func committedTxn(p model.Proc, from model.Value) []model.Event {
	return []model.Event{
		model.Read(p, 0), model.ValueResp(p, from),
		model.Write(p, 0, from+1), model.OK(p),
		model.TryCommit(p), model.Commit(p),
	}
}

// TestPumpFeedsMonitorInOrder streams two processes' interleaved logs
// through a recorder and pump: the monitor must see every event, in
// the stamped total order, and report per-process progress.
func TestPumpFeedsMonitorInOrder(t *testing.T) {
	rec := record.NewWithOptions(2, record.Options{StreamCapacity: 64})
	mon, err := New(Config{Procs: []model.Proc{1, 2}, RecordGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	pump := &Pump{Mon: mon, Procs: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pump.Run(rec)
	}()
	logs := []*record.ProcLog{rec.Log(1), rec.Log(2)}
	for round := 0; round < 8; round++ {
		p := round % 2
		l := logs[p]
		l.ReadInv(0)
		l.ReadReturn(0, int64(round), false)
		l.WriteInv(0, int64(round+1))
		l.WriteReturn(0, int64(round+1), false)
		l.TryCommitInv()
		l.TryCommitReturn(true)
	}
	rec.CloseStream()
	<-done
	rep := mon.Report()
	if rep.Events != 48 {
		t.Fatalf("monitor observed %d events, want 48", rep.Events)
	}
	for _, p := range rep.Procs {
		if p.Commits != 4 {
			t.Errorf("p%d commits = %d, want 4", p.Proc, p.Commits)
		}
		if len(p.CommitGaps) != 4 {
			t.Errorf("p%d recorded %d gaps, want 4", p.Proc, len(p.CommitGaps))
		}
	}
}

// TestPumpViolationFiresOnce: the first terminal safety error invokes
// OnViolation exactly once, and the pump keeps draining afterwards so
// producers never block.
func TestPumpViolationFiresOnce(t *testing.T) {
	rec := record.NewWithOptions(1, record.Options{StreamCapacity: 64})
	mon, err := New(Config{Procs: []model.Proc{1}})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	var got error
	pump := &Pump{Mon: mon, Procs: 1, OnViolation: func(err error) { fired++; got = err }}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pump.Run(rec)
	}()
	l := rec.Log(1)
	// A committed transaction that reads a value nobody ever wrote:
	// not opaque at the first quiescent cut.
	l.ReadInv(0)
	l.ReadReturn(0, 41, false)
	l.TryCommitInv()
	l.TryCommitReturn(true)
	// More traffic after the violation: the pump must keep draining.
	for i := 0; i < 4; i++ {
		l.ReadInv(0)
		l.ReadReturn(0, 41, false)
		l.TryCommitInv()
		l.TryCommitReturn(true)
	}
	rec.CloseStream()
	<-done
	if fired != 1 {
		t.Fatalf("OnViolation fired %d times, want 1", fired)
	}
	if !errors.Is(got, safety.ErrStreamNotOpaque) {
		t.Fatalf("violation = %v, want ErrStreamNotOpaque", got)
	}
	if mon.Events() != 20 {
		t.Fatalf("monitor observed %d events, want all 20", mon.Events())
	}
}

// TestStarvationIntervals: closed gaps plus the open tail, and a
// never-committing process contributes exactly one whole-run interval.
func TestStarvationIntervals(t *testing.T) {
	mon, err := New(Config{Procs: []model.Proc{1, 2}, RecordGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	var h model.History
	h = append(h, committedTxn(2, 0)...)
	h = append(h, committedTxn(2, 1)...)
	h = append(h, model.Read(1, 0), model.Abort(1)) // p1 only ever aborts
	if err := mon.ObserveHistory(h); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	iv := rep.StarvationIntervals()
	if len(iv[1]) != 1 || iv[1][0] != rep.Events {
		t.Errorf("starving p1 must report one whole-run interval, got %v (events=%d)", iv[1], rep.Events)
	}
	if len(iv[2]) != 3 { // two closed gaps + open tail
		t.Errorf("p2 intervals = %v, want 3 entries", iv[2])
	}
}
