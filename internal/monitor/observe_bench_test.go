package monitor_test

import (
	"testing"

	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/workload"
)

// BenchmarkObserve measures the checker lane per event: a fresh
// monitor, at the segment budget `livetm monitor` and check-replay
// use and with the approximate fallback, observing a whole recorded
// history, reported in ns/event. Each history is recorded once, before
// the timer starts, and must check opaque.
//
//   - check-replay: sim-tl2, five processes each on its own 16
//     variables (the matrix's writeheavy/cold/disjoint cell), 64 000
//     scheduler steps. The interleaved stream never quiesces, so the
//     approximate fallback forces every frontier; the history is a
//     function of the seed.
//   - native-tl2: two processes on 16 shared variables (update/cold),
//     2 000 rounds each, recorded with a quiescent cut after every
//     4 × 2 completed transactions, the default cadence of a recorded
//     session, as `livetm record` runs it.
func BenchmarkObserve(b *testing.B) {
	cases := []struct {
		name, engine, spec string
		run                engine.RunConfig
	}{
		{"check-replay", "sim-tl2", "p5/writeheavy/cold/disjoint", engine.RunConfig{Seed: 1, SimSteps: 64000}},
		{"native-tl2", "native-tl2", "p2/update/cold/shared", engine.RunConfig{OpsPerProc: 2000}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			h := recordCell(b, c.engine, c.spec, c.run)
			observe := func() *monitor.Monitor {
				m, err := monitor.New(monitor.Config{SegmentTxns: 48, Approx: true})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.ObserveHistory(h); err != nil {
					b.Fatal(err)
				}
				return m
			}
			if r := observe().Report(); !r.Checked || !r.Opacity.Holds {
				b.Fatalf("%d events: checked=%v %+v", len(h), r.Checked, r.Opacity)
			}
			b.ReportAllocs()
			for b.Loop() {
				observe()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(h)), "ns/event")
		})
	}
}

// recordCell records one workload-matrix cell on the named engine.
func recordCell(b *testing.B, engineName, specName string, cfg engine.RunConfig) model.History {
	b.Helper()
	e, ok := engine.Lookup(engineName)
	if !ok {
		b.Fatalf("engine %s is not registered", engineName)
	}
	for _, spec := range workload.Matrix([]int{2, 5}) {
		if spec.Name != specName {
			continue
		}
		cfg.Procs, cfg.Vars, cfg.Record = spec.Procs, spec.Vars, true
		st, err := e.Run(cfg, spec.Body())
		if err != nil {
			b.Fatal(err)
		}
		return st.History
	}
	b.Fatalf("no matrix cell %s", specName)
	return nil
}
