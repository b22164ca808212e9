package record

import (
	"sync"
	"testing"

	"livetm/internal/alloctest"
	"livetm/internal/model"
)

// produce runs rounds committed increments on every log of r, one
// goroutine per process, each writing values only it writes, and
// returns once they have all finished.
func produce(r *Recorder, procs, rounds int) {
	var wg sync.WaitGroup
	for p := 1; p <= procs; p++ {
		l := r.Log(model.Proc(p))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				script(l, p, int64(p*rounds+i))
			}
		}()
	}
	wg.Wait()
}

// TestRecycledBatchesKeepOrderAndEvents: a consumer that hands every
// batch back after Resequencer.Push restores exactly the recorded
// history — no event lost, duplicated, reordered or overwritten by a
// producer that got the batch back too early. Run with -race: a batch
// recycled while the consumer still reads it is a data race here.
func TestRecycledBatchesKeepOrderAndEvents(t *testing.T) {
	const procs, rounds = 4, 2000
	// A channel of two batches keeps the free list busy: producers run
	// at most a couple of batches ahead of the consumer.
	r := NewWithOptions(procs, Options{CapacityHint: 16, StreamCapacity: 2 * streamBatch})
	got := make(chan model.History, 1)
	go func() {
		rs := NewResequencer()
		var h model.History
		emit := func(e model.Event) { h = append(h, e) }
		for batch := range r.Stream() {
			rs.Push(batch, emit)
			r.Recycle(batch)
		}
		got <- h
	}()
	produce(r, procs, rounds)
	r.CloseStream()
	streamed, h := <-got, r.History()
	if len(streamed) != len(h) || len(h) != procs*rounds*6 {
		t.Fatalf("streamed %d events, drained %d, recorded %d", len(streamed), len(h), procs*rounds*6)
	}
	for i := range h {
		if streamed[i] != h[i] {
			t.Fatalf("event %d differs: streamed %s, drained %s", i, streamed[i], h[i])
		}
	}
	if reused := len(r.free); reused == 0 {
		t.Error("no batch ever came back to the free list: the test recycled nothing")
	}
}

// TestStopMutedLogNeverRecycles: when Stop mutes publishers blocked on
// a consumer that left, every event is either delivered intact or
// counted as dropped — a muted log's batch goes to the collector, not
// back into a list the departed consumer's batches also feed.
func TestStopMutedLogNeverRecycles(t *testing.T) {
	const procs, rounds, consumed = 3, 400, 25
	stop := make(chan struct{})
	met := bareMetrics()
	r := NewWithOptions(procs, Options{CapacityHint: 16, StreamCapacity: 2 * streamBatch, Stop: stop, Metrics: met})
	var delivered []Streamed
	take := func(batch []Streamed) {
		delivered = append(delivered, batch...)
		r.Recycle(batch)
	}
	left := make(chan struct{})
	go func() {
		defer close(left)
		for i := 0; i < consumed; i++ {
			take(<-r.Stream())
		}
		close(stop) // the consumer leaves with producers mid-run
	}()
	produce(r, procs, rounds)
	<-left
	r.CloseStream() // never blocks: stop is closed
	for batch := range r.Stream() {
		take(batch) // sent before their publisher saw the stop
	}

	h := r.History() // local recording outlives the muted stream
	if len(h) != procs*rounds*6 {
		t.Fatalf("recorded %d events, want %d", len(h), procs*rounds*6)
	}
	dropped := int(met.Dropped.Load())
	if len(delivered)+dropped != len(h) {
		t.Fatalf("%d delivered + %d dropped != %d recorded", len(delivered), dropped, len(h))
	}
	if dropped == 0 {
		t.Fatal("no publisher was muted: the test did not reach the stop path")
	}
	seen := make(map[uint64]bool, len(delivered))
	for _, s := range delivered {
		if s.Seq == 0 || s.Seq > uint64(len(h)) || seen[s.Seq] {
			t.Fatalf("delivered sequence number %d is out of range or repeated", s.Seq)
		}
		seen[s.Seq] = true
		if s.Ev != h[s.Seq-1] {
			t.Fatalf("delivered event %d is %s, recorded %s", s.Seq, s.Ev, h[s.Seq-1])
		}
	}
}

// TestAllocBudgetPerStreamedCommit: in drop mode, with a consumer that
// recycles, recording and streaming a committed transaction allocates
// nothing — the chunk is a ring and the batch comes back.
func TestAllocBudgetPerStreamedCommit(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	r := NewWithOptions(1, Options{CapacityHint: 64, StreamCapacity: streamBatch, DropStreamed: true})
	l, rs := r.Log(1), NewResequencer()
	emitted := 0
	emit := func(model.Event) { emitted++ }
	v := int64(0)
	commit := func() {
		script(l, 0, v)
		v++
		batch := <-r.Stream()
		rs.Push(batch, emit)
		r.Recycle(batch)
	}
	for i := 0; i < 64; i++ { // past the first ring lap
		commit()
	}
	if got := testing.AllocsPerRun(500, commit); got > 0 {
		t.Errorf("%.2f allocs per streamed commit, budget 0", got)
	}
	if emitted != r.Events() {
		t.Errorf("%d of %d events came through", emitted, r.Events())
	}
}
