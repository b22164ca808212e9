package engine

import (
	"runtime"
	"testing"
)

// checkReplayCfg is the shape of bench's check-replay recording on
// sim-tl2, run with partitionedBody.
func checkReplayCfg(steps int) RunConfig {
	return RunConfig{Procs: 5, Vars: 80, Seed: 1, SimSteps: steps, Record: true}
}

// recorderChunks is the number of chunks stm.Recorder fills with n
// events: 16, 32, … 4096 events, then 4096 each.
func recorderChunks(n int) int {
	chunks := 0
	for size := 16; n > 0; size = min(2*size, 4096) {
		n -= size
		chunks++
	}
	return chunks
}

// TestAllocBudgetPerSimStep pins a recorded simulator step to no
// allocation: doubling a run in check-replay's shape from 32 000 to
// 64 000 steps may add only the recorder's extra chunks, and slack for
// the slice that lists them growing and for the runtime's goroutine
// records, which each run's coroutines take from a free list or
// allocate. Each length takes the least of three runs. The dstm family
// and ostm are not rows: they allocate a descriptor per transaction and
// a locator per write (dstm) by design, since other processes hold
// pointers to them.
func TestAllocBudgetPerSimStep(t *testing.T) {
	for _, name := range []string{"sim-tl2", "sim-norec", "sim-tinystm", "sim-2pl", "sim-glock"} {
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s is not registered", name)
			}
			run := func(steps int) (least uint64, events int) {
				for i := 0; i < 3; i++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					st, err := e.Run(checkReplayCfg(steps), partitionedBody)
					runtime.ReadMemStats(&after)
					if err != nil || st.Steps != steps {
						t.Fatalf("%d steps: ran %d, err %v", steps, st.Steps, err)
					}
					if n := after.Mallocs - before.Mallocs; i == 0 || n < least {
						least = n
					}
					events = len(st.History)
				}
				return least, events
			}
			short, shortEvents := run(32000)
			long, longEvents := run(64000)
			const slack = 8
			budget := uint64(recorderChunks(longEvents)-recorderChunks(shortEvents)) + slack
			t.Logf("32 000 steps: %d allocs, %d events; 64 000 steps: %d allocs, %d events", short, shortEvents, long, longEvents)
			if long > short+budget {
				t.Errorf("the second 32 000 steps allocated %d times, budget %d", long-short, budget)
			}
		})
	}
}

// BenchmarkSimRun measures a recorded simulated Run per scheduler step:
// every simulated engine on goldenBody's shape, and sim-tl2 in
// check-replay's.
func BenchmarkSimRun(b *testing.B) {
	type run struct {
		name string
		e    Engine
		cfg  RunConfig
		body TxBody
	}
	var runs []run
	for _, e := range Engines(true) {
		if e.Capabilities().Substrate == Simulated {
			runs = append(runs, run{e.Name(), e, RunConfig{Procs: 3, Vars: 8, Seed: 1, SimSteps: 4000, Record: true}, goldenBody(8)})
		}
	}
	if e, ok := Lookup("sim-tl2"); ok {
		runs = append(runs, run{"sim-tl2/check-replay", e, checkReplayCfg(64000), partitionedBody})
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			steps := 0
			for b.Loop() {
				st, err := r.e.Run(r.cfg, r.body)
				if err != nil {
					b.Fatal(err)
				}
				steps += st.Steps
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(steps), "allocs/step")
		})
	}
}
