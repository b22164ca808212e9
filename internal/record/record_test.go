package record

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"livetm/internal/model"
	"livetm/internal/native"
)

var _ native.Observer = (*ProcLog)(nil)

// script replays one committed increment transaction through a log.
func script(l *ProcLog, x int, v int64) {
	l.ReadInv(x)
	l.ReadReturn(x, v, false)
	l.WriteInv(x, v+1)
	l.WriteReturn(x, v+1, false)
	l.TryCommitInv()
	l.TryCommitReturn(true)
}

func TestSingleProcHistory(t *testing.T) {
	r := New(1, 0)
	l := r.Log(1)
	script(l, 0, 0)
	l.ReadInv(1)
	l.ReadReturn(1, 0, true) // aborted read
	l.Abandon()              // no open transaction: must be a no-op
	h := r.History()
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatalf("malformed: %v\n%s", err, h)
	}
	want := model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Write(1, 0, 1), model.OK(1),
		model.TryCommit(1), model.Commit(1),
		model.Read(1, 1), model.Abort(1),
	}
	if h.String() != want.String() {
		t.Fatalf("history = %s, want %s", h, want)
	}
	if r.Truncated() {
		t.Fatal("nothing was dropped")
	}
}

func TestAbandonCompletesOpenTransaction(t *testing.T) {
	r := New(1, 0)
	l := r.Log(1)
	l.WriteInv(0, 5)
	l.WriteReturn(0, 5, false)
	l.Abandon()
	h := r.History()
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatalf("malformed: %v", err)
	}
	txns, err := model.Transactions(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0].Status != model.Aborted {
		t.Fatalf("transactions = %v", txns)
	}
}

// TestMergePreservesGlobalOrder: events logged from concurrent
// goroutines drain into one history ordered by the shared sequence
// counter, with each process's subsequence intact. Run with -race.
func TestMergePreservesGlobalOrder(t *testing.T) {
	const procs, rounds = 4, 200
	r := New(procs, 16)
	var wg sync.WaitGroup
	for p := 1; p <= procs; p++ {
		l := r.Log(model.Proc(p))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				script(l, 0, int64(i))
			}
		}()
	}
	wg.Wait()
	h := r.History()
	if want := procs * rounds * 6; len(h) != want {
		t.Fatalf("events = %d, want %d", len(h), want)
	}
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatalf("malformed: %v", err)
	}
	for p := 1; p <= procs; p++ {
		proj := h.Projection(model.Proc(p))
		if len(proj) != rounds*6 {
			t.Fatalf("proc %d: %d events, want %d", p, len(proj), rounds*6)
		}
		// Per-process order must be exactly the logged order.
		for i, s := range r.Log(model.Proc(p)).all() {
			if proj[i] != s.Ev {
				t.Fatalf("proc %d event %d reordered: %s vs %s", p, i, proj[i], s.Ev)
			}
		}
	}
}

// TestTruncation: hitting the cap stops the log at an event boundary
// and the drained history stays well-formed.
func TestTruncation(t *testing.T) {
	r := New(1, 0)
	l := r.Log(1)
	l.max = 7 // truncate mid-transaction, right after an invocation
	script(l, 0, 0)
	script(l, 0, 1)
	if !r.Truncated() {
		t.Fatal("cap was hit but Truncated is false")
	}
	h := r.History()
	if len(h) != 7 {
		t.Fatalf("events = %d, want 7", len(h))
	}
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatalf("truncated history malformed: %v\n%s", err, h)
	}
}

// consume is the stream's consumer on a goroutine of its own: a
// Receive loop that restores the recorded total order through a
// Resequencer until the stream closes, then yields the history.
func consume(r *Recorder) <-chan model.History {
	got := make(chan model.History, 1)
	go func() {
		rs := NewResequencer()
		var h model.History
		emit := func(e model.Event) { h = append(h, e) }
		for r.Receive(func(events []Streamed) { rs.Push(events, emit) }) {
		}
		got <- h
	}()
	return got
}

// TestStreamMatchesHistory: the streamed events, reordered by
// sequence number, are exactly the drained history. Run with -race.
func TestStreamMatchesHistory(t *testing.T) {
	const procs, rounds = 4, 300
	r := NewWithOptions(procs, Options{CapacityHint: 16, StreamCapacity: 64})
	got := consume(r)
	var wg sync.WaitGroup
	for p := 1; p <= procs; p++ {
		l := r.Log(model.Proc(p))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				script(l, 0, int64(i))
			}
		}()
	}
	wg.Wait()
	r.CloseStream()
	streamed := <-got
	sameHistory(t, streamed, r.History())
	if err := model.CheckWellFormed(streamed); err != nil {
		t.Fatalf("streamed history malformed: %v", err)
	}
}

// TestDropStreamedCapsChunks: in drop mode each process's stream ring
// is its only log, so allocation stays capped at one ring per process
// no matter how many events the run records, the rings lap, and
// History returns nil (the stream was the record).
func TestDropStreamedCapsChunks(t *testing.T) {
	const procs = 2
	met := NewMetrics(nil)
	r := NewWithOptions(procs, Options{CapacityHint: 8, StreamCapacity: 32, DropStreamed: true, Metrics: met})
	done := make(chan int, 1)
	go func() {
		n := 0
		for r.Receive(func(events []Streamed) { n += len(events) }) {
		}
		done <- n
	}()
	var wg sync.WaitGroup
	const rounds = 10000 // far beyond one chunk per process
	for p := 1; p <= procs; p++ {
		l := r.Log(model.Proc(p))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				script(l, 0, int64(i))
			}
		}()
	}
	wg.Wait()
	r.CloseStream()
	if n := <-done; n != procs*rounds*6 {
		t.Fatalf("streamed %d events, want %d", n, procs*rounds*6)
	}
	if got := r.Chunks(); got > procs {
		t.Fatalf("drop mode allocated %d chunks, want <= %d (one ring per process)", got, procs)
	}
	if met.Laps.Load() == 0 {
		t.Fatal("no ring lapped: the test never reused a slot")
	}
	if r.Events() != procs*rounds*6 {
		t.Fatalf("events = %d, want %d", r.Events(), procs*rounds*6)
	}
	if h := r.History(); h != nil {
		t.Fatalf("drop mode retained %d events", len(h))
	}
}

// TestRetainedChunksLinear: retained mode allocates chunks linearly in
// the event count (no doubling waste) and drains the full history.
func TestRetainedChunksLinear(t *testing.T) {
	r := NewWithOptions(1, Options{CapacityHint: 8})
	l := r.Log(1)
	const rounds = 5000
	for i := 0; i < rounds; i++ {
		script(l, 0, int64(i))
	}
	events := rounds * 6
	want := 1 + (events-8+chunkEvents-1)/chunkEvents // first hint-sized chunk, then full chunks
	if got := r.Chunks(); got != want {
		t.Fatalf("chunks = %d, want %d", got, want)
	}
	h := r.History()
	if len(h) != events {
		t.Fatalf("drained %d events, want %d", len(h), events)
	}
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatalf("malformed: %v", err)
	}
}

// TestStreamStopUnblocks: a producer blocked on a full ring whose
// consumer departed is released by the stop signal and keeps
// recording locally.
func TestStreamStopUnblocks(t *testing.T) {
	stop := make(chan struct{})
	r := NewWithOptions(1, Options{CapacityHint: 8, StreamCapacity: 1, Stop: stop})
	l := r.Log(1)
	blocked := make(chan struct{})
	go func() {
		// The first event fills the one-slot ring and the second waits
		// for room — nobody consumes.
		script(l, 0, 0)
		script(l, 0, 1)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("producer was not blocked by the full ring")
	case <-time.After(50 * time.Millisecond):
	}
	close(stop)
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not unblock the producer")
	}
	// Local recording continued past the muted stream.
	if got := r.Events(); got != 12 {
		t.Fatalf("events = %d, want 12", got)
	}
	if err := model.CheckWellFormed(r.History()); err != nil {
		t.Fatalf("malformed: %v", err)
	}
}

// Every history, stream ring, retained chunk and resequencer ring holds
// events at these sizes; a field added to model.Event must not regrow
// them unnoticed.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(model.Event{}); n != 16 {
		t.Errorf("model.Event is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Streamed{}); n != 24 {
		t.Errorf("record.Streamed is %d bytes, want 24", n)
	}
}
