package record

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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

// sameHistory fails the test unless streamed is exactly h.
func sameHistory(t *testing.T, streamed, h model.History) {
	t.Helper()
	if len(streamed) != len(h) {
		t.Fatalf("streamed %d events, drained %d", len(streamed), len(h))
	}
	for i := range h {
		if streamed[i] != h[i] {
			t.Fatalf("event %d differs: streamed %s, drained %s", i, streamed[i], h[i])
		}
	}
}

// within fails the test unless done closes within d — the watchdog for
// a producer or consumer that sleeps through its wake-up.
func within(t *testing.T, d time.Duration, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v: a lost wake-up", what, d)
	}
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestRecycledBatchesKeepOrderAndEvents: rings that lap many times
// restore exactly the recorded history — no event lost, duplicated,
// reordered or overwritten by a producer that got its slot back too
// early. Run with -race: a slot released while the consumer still
// reads it is a data race here.
func TestRecycledBatchesKeepOrderAndEvents(t *testing.T) {
	const procs, rounds = 4, 2000
	// Eight slots per process: producers run at most a transaction and
	// a bit ahead of the consumer.
	r := NewWithOptions(procs, Options{CapacityHint: 16, StreamCapacity: 2 * streamBatch})
	got := consume(r)
	produce(r, procs, rounds)
	r.CloseStream()
	streamed, h := <-got, r.History()
	if len(h) != procs*rounds*6 {
		t.Fatalf("drained %d events, recorded %d", len(h), procs*rounds*6)
	}
	sameHistory(t, streamed, h)
	for p := 1; p <= procs; p++ {
		if l := r.Log(model.Proc(p)); l.tail <= uint64(len(l.ring)) {
			t.Errorf("p%d's ring of %d slots never lapped (%d events)", p, len(l.ring), l.tail)
		}
	}
}

// TestStopMutedLogNeverRecycles: when Stop mutes producers waiting on a
// consumer that left, every event is either delivered intact or counted
// as dropped — a muted log writes nothing more into its ring, so no
// slot the departed consumer never released is overwritten.
func TestStopMutedLogNeverRecycles(t *testing.T) {
	const procs, rounds, consumed = 3, 400, 25
	stop := make(chan struct{})
	met := NewMetrics(nil)
	r := NewWithOptions(procs, Options{CapacityHint: 16, StreamCapacity: 2 * streamBatch, Stop: stop, Metrics: met})
	var delivered []Streamed
	take := func(events []Streamed) { delivered = append(delivered, events...) }
	left := make(chan struct{})
	go func() {
		defer close(left)
		for i := 0; i < consumed; i++ {
			r.Receive(take)
		}
		close(stop) // the consumer leaves with producers mid-run
	}()
	produce(r, procs, rounds)
	<-left
	r.CloseStream() // never blocks: stop is closed
	for r.Receive(take) {
		// published before their producer saw the stop
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
		t.Fatal("no producer was muted: the test did not reach the stop path")
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

// TestAllocBudgetPerStreamedCommit: in drop mode, recording and
// streaming a committed transaction allocates nothing — the ring is the
// log and the consumer reads it in place.
func TestAllocBudgetPerStreamedCommit(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	r := NewWithOptions(1, Options{CapacityHint: 64, StreamCapacity: streamBatch, DropStreamed: true})
	l, rs := r.Log(1), NewResequencer()
	emitted := 0
	emit := func(model.Event) { emitted++ }
	push := func(events []Streamed) { rs.Push(events, emit) }
	v := int64(0)
	commit := func() {
		script(l, 0, v)
		v++
		r.Receive(push)
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

// TestStreamRingContract holds the ring hand-off to its contract: a
// consumer reads wrapped slots in place, a full ring is backpressure
// until the consumer drains it, Stop releases a waiting producer,
// CloseStream publishes partial tails, and neither side sleeps through
// a wake-up — the two re-checks after raising a parking flag. Run with
// -race.
func TestStreamRingContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"wrap-around is read in place, in two slices", func(t *testing.T) {
			r := NewWithOptions(1, Options{StreamCapacity: 8, DropStreamed: true})
			l := r.Log(1)
			var lens []int
			var seqs []uint64
			take := func(events []Streamed) {
				lens = append(lens, len(events))
				for _, s := range events {
					seqs = append(seqs, s.Seq)
				}
			}
			script(l, 0, 0) // slots 0-5
			if !r.Receive(take) || fmt.Sprint(lens) != "[6]" {
				t.Fatalf("first transaction came as %v, want one slice of 6", lens)
			}
			lens = nil
			script(l, 0, 1) // slots 6, 7, then 0-3
			if !r.Receive(take) || fmt.Sprint(lens) != "[2 4]" {
				t.Fatalf("wrapped transaction came as %v, want slices of 2 and 4", lens)
			}
			for i, s := range seqs {
				if s != uint64(i+1) {
					t.Fatalf("sequence numbers %v, want 1..12 in order", seqs)
				}
			}
			if r.Chunks() != 1 {
				t.Errorf("chunks = %d, want the one ring", r.Chunks())
			}
		}},
		{"a full ring blocks until the consumer drains it", func(t *testing.T) {
			r := NewWithOptions(1, Options{StreamCapacity: 4})
			l := r.Log(1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				script(l, 0, 0)
				script(l, 0, 1)
			}()
			eventually(t, "the producer waits for room", l.waiting.Load)
			select {
			case <-done:
				t.Fatal("the producer finished past a full ring")
			default:
			}
			if got := l.pub.Load(); got != 4 {
				t.Fatalf("published %d events before waiting, want the full ring of 4", got)
			}
			got := consume(r)
			within(t, 10*time.Second, done, "the drained producer")
			r.CloseStream()
			sameHistory(t, <-got, r.History())
		}},
		{"stop releases a producer waiting on a full ring", func(t *testing.T) {
			stop := make(chan struct{})
			met := NewMetrics(nil)
			r := NewWithOptions(1, Options{StreamCapacity: 2, Stop: stop, Metrics: met})
			l := r.Log(1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				script(l, 0, 0)
				script(l, 0, 1)
			}()
			eventually(t, "the producer waits for room", l.waiting.Load)
			close(stop)
			within(t, 10*time.Second, done, "the stopped producer")
			if l.waiting.Load() || !l.mute {
				t.Fatalf("stopped producer: waiting=%v mute=%v, want false/true", l.waiting.Load(), l.mute)
			}
			r.CloseStream()
			var delivered []Streamed
			for r.Receive(func(events []Streamed) { delivered = append(delivered, events...) }) {
			}
			if len(delivered) != 2 || delivered[0].Seq != 1 || delivered[1].Seq != 2 {
				t.Fatalf("delivered %v, want the two events that filled the ring", delivered)
			}
			if d := met.Dropped.Load(); d != 10 {
				t.Errorf("dropped %d events, want the 10 recorded after the ring filled", d)
			}
			if r.Events() != 12 || met.Events.Load() != 12 {
				t.Errorf("events = %d, metric %d, want 12 recorded locally", r.Events(), met.Events.Load())
			}
		}},
		{"close publishes partial tails", func(t *testing.T) {
			const procs = 3
			r := NewWithOptions(procs, Options{StreamCapacity: 64})
			for p := 1; p <= procs; p++ {
				l := r.Log(model.Proc(p))
				l.ReadInv(p) // p open reads: no completion, under streamBatch
				for i := 1; i < p; i++ {
					l.ReadReturn(p, 0, false)
					l.ReadInv(p)
				}
			}
			if r.pending() {
				t.Fatal("an open transaction under streamBatch events was published")
			}
			r.CloseStream()
			n, rs := 0, NewResequencer()
			for r.Receive(func(events []Streamed) { rs.Push(events, func(model.Event) { n++ }) }) {
			}
			if want := 1 + 3 + 5; n != want || rs.Pending() != 0 {
				t.Fatalf("close delivered %d events in order (%d pending), want %d", n, rs.Pending(), want)
			}
			if r.Receive(func([]Streamed) { t.Fatal("Receive handed out events after the last") }) {
				t.Fatal("Receive reported more after the stream closed and drained")
			}
		}},
		{"the consumer's re-check sees a publish its flag missed", func(t *testing.T) {
			r := NewWithOptions(1, Options{StreamCapacity: 8})
			script(r.Log(1), 0, 0) // published with the consumer awake: no bell
			if len(r.bell) != 0 {
				t.Fatal("a publish rang the bell of a consumer that was not parked")
			}
			woke := make(chan struct{})
			go func() { r.sleep(); close(woke) }()
			within(t, 10*time.Second, woke, "the consumer parking on a published ring")
		}},
		{"the producer's re-check sees a release its flag missed", func(t *testing.T) {
			r := NewWithOptions(1, Options{StreamCapacity: 2})
			l := r.Log(1)
			l.ReadInv(0)
			l.ReadReturn(0, 0, false) // the ring is full
			l.publish()
			if !r.Receive(func([]Streamed) {}) || len(l.room) != 0 {
				t.Fatal("the consumer released the ring and rang a producer that was not waiting")
			}
			woke := make(chan struct{})
			go func() {
				if !l.wait() {
					t.Error("wait reported a stop that never fired")
				}
				close(woke)
			}()
			within(t, 10*time.Second, woke, "the producer waiting on a released ring")
		}},
		{"no lost wake-up on 1 to 8 processes", func(t *testing.T) {
			// Each producer waits for the consumer to deliver its commit
			// before the next transaction, so the consumer parks between
			// rounds; two slots per process make every transaction wait for
			// room three times. A side that sleeps without re-checking
			// after raising its flag wedges the round, and the watchdog
			// fires.
			for procs := 1; procs <= 8; procs++ {
				r := NewWithOptions(procs, Options{StreamCapacity: 2 * procs})
				acks := make([]chan struct{}, procs+1)
				for p := range acks {
					acks[p] = make(chan struct{}, 1)
				}
				const rounds = 300
				done := make(chan struct{})
				go func() {
					defer close(done)
					rs := NewResequencer()
					emit := func(e model.Event) {
						if e.Kind == model.RespCommit {
							acks[e.Proc] <- struct{}{}
						}
					}
					for r.Receive(func(events []Streamed) { rs.Push(events, emit) }) {
					}
				}()
				var wg sync.WaitGroup
				for p := 1; p <= procs; p++ {
					l := r.Log(model.Proc(p))
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							script(l, p, int64(i))
							<-acks[p]
						}
					}()
				}
				quiesced := make(chan struct{})
				go func() { wg.Wait(); close(quiesced) }()
				within(t, 30*time.Second, quiesced, fmt.Sprintf("%d producers", procs))
				r.CloseStream()
				within(t, 30*time.Second, done, "the consumer")
				if got := r.Events(); got != procs*rounds*6 {
					t.Fatalf("%d processes recorded %d events, want %d", procs, got, procs*rounds*6)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestEventsMetricAtQuiescence: Metrics.Events is added once per
// publish, not per event, yet once every transaction has completed it
// equals Recorder.Events in every mode — retained without a stream,
// retained and streamed, and streamed only.
func TestEventsMetricAtQuiescence(t *testing.T) {
	const procs, rounds = 3, 500
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"retained", Options{}},
		{"live, retained", Options{StreamCapacity: 64}},
		{"live, dropped", Options{StreamCapacity: 64, DropStreamed: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := NewMetrics(nil)
			tc.o.Metrics = met
			r := NewWithOptions(procs, tc.o)
			got := consume(r)
			produce(r, procs, rounds)
			r.CloseStream()
			streamed := <-got
			want := procs * rounds * 6
			if r.Events() != want || int(met.Events.Load()) != want {
				t.Fatalf("Events() = %d, metric %d, want %d", r.Events(), met.Events.Load(), want)
			}
			if tc.o.StreamCapacity > 0 && len(streamed) != want {
				t.Fatalf("streamed %d events, want %d", len(streamed), want)
			}
		})
	}
}
