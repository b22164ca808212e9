package monitor

import (
	"livetm/internal/model"
	"livetm/internal/record"
)

// Pump drains a recorder's live stream into a Monitor while the run
// executes: it reads each process's stream ring in place
// (Recorder.Receive), restores the recorded total order
// (record.Resequencer), and feeds each event to Monitor.Observe on the
// pump's goroutine, so the monitor needs no locking. It is the
// consumer half of live monitoring: every live internal/engine session
// runs one.
//
// A terminal safety error fires OnViolation exactly once; the pump
// then keeps draining (so no producer stays blocked on a full ring)
// and keeps the progress accounting current, but stops the rebias
// feedback — a violated run is being torn down, not tuned.
type Pump struct {
	// Mon is the monitor every restored event is fed to.
	Mon *Monitor
	// Procs is the run's process count, sizing the starvation snapshot
	// handed to Rebias.
	Procs int
	// OnViolation, when non-nil, is called once with the first terminal
	// error Observe returns (the mid-flight stop hook).
	OnViolation func(error)
	// RebiasEvery is how often, in observed events, the measured
	// starvation is fed back through Rebias (0 = no feedback).
	RebiasEvery int
	// Rebias receives Monitor.StarvationNow snapshots on the feedback
	// cadence (nil = no feedback). The slice is the pump's own, rewritten
	// at the next tick: a callback that keeps it must copy it.
	Rebias func(starvation []int)
}

// Run consumes rec's stream until it closes. Call it on a dedicated
// goroutine — it is the stream's one consumer, and sleeps while no
// producer has published — and close the stream
// (Recorder.CloseStream) once the producers quiesced; Run returning is
// the signal that the monitor absorbed every event and may be asked to
// Report.
func (p *Pump) Run(rec *record.Recorder) {
	rs := record.NewResequencer()
	starvation := make([]int, p.Procs)
	observed := 0
	violated := false
	emit := func(ev model.Event) {
		observed++
		err := p.Mon.Observe(ev)
		if err != nil && !violated {
			violated = true
			if p.OnViolation != nil {
				p.OnViolation(err)
			}
		}
		if !violated && p.RebiasEvery > 0 && p.Rebias != nil && observed%p.RebiasEvery == 0 {
			p.Mon.StarvationNow(starvation)
			p.Rebias(starvation)
		}
	}
	// Push copies the events into its own window before the ring slots
	// are released.
	push := func(events []record.Streamed) { rs.Push(events, emit) }
	for rec.Receive(push) {
	}
}
