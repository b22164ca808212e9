package engine

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"livetm/internal/model"
)

// goid is the calling goroutine's id, read from its stack header — how
// a test tells whether a body ran on the goroutine that called ExecOn.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)])) // "goroutine 18 [running]:"
	id, _ := strconv.ParseUint(f[1], 10, 64)
	return id
}

// closing reports whether Close has sealed the native session.
func closing(s *Session) bool {
	ns := s
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.closed
}

// enqueueUnwoken queues a job without waking any worker, holding open
// the moment between a push and its worker's wake-up.
func enqueueUnwoken(s *Session, worker int, body Body) {
	ns := s
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.met.submitted.Inc()
	ns.q.push(worker, sessionJob{body: body, done: func(error) {}})
}

// eventually polls cond until it holds, failing the test after 20 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// orderLog records the order in which labelled bodies ran.
type orderLog struct {
	mu  sync.Mutex
	ran []string
}

func (o *orderLog) body(label string, gate <-chan struct{}) Body {
	return func(tx Tx) error {
		if gate != nil {
			<-gate
		}
		o.mu.Lock()
		o.ran = append(o.ran, label)
		o.mu.Unlock()
		return tx.Write(0, 1)
	}
}

func (o *orderLog) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return strings.Join(o.ran, ",")
}

// TestExecOnInline: a blocking ExecOn with an uncancellable context,
// pinned to an idle worker with nothing queued for it, runs on its
// caller as that worker, and is indistinguishable from a queued run in
// everything but the goroutine: ordering, Close, Drain, Stats, live
// stops and cut cadence. Every other call queues. Run with -race.
func TestExecOnInline(t *testing.T) {
	bg := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"two callers share one worker", func(t *testing.T) {
			// Each goroutine's calls go inline when they find the slot idle
			// and queue behind the other's otherwise; either way process 1
			// must run one transaction at a time.
			const callers, per = 2, 300
			s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1, Record: true})
			// The yield holds each transaction open across a reschedule,
			// so a second run on the slot would overlap it.
			incr := func(tx Tx) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				runtime.Gosched()
				return tx.Write(0, v+1)
			}
			var wg sync.WaitGroup
			for range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range per {
						if err := s.ExecOn(bg, 0, incr); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
			h := s.History()
			if err := model.CheckWellFormed(h); err != nil {
				t.Fatalf("history is not well-formed: %v", err)
			}
			txns, err := model.Transactions(h)
			if err != nil {
				t.Fatal(err)
			}
			read := make(map[model.Value]bool)
			last := -1
			for _, tx := range txns {
				if tx.First <= last {
					t.Fatalf("%s starts inside the previous transaction of its process", tx.ID())
				}
				last = tx.Last
				if tx.Status != model.Committed {
					continue
				}
				ops := tx.Ops
				if len(ops) != 3 || ops[0].Kind != model.OpRead || ops[1].Kind != model.OpWrite ||
					ops[1].Val != ops[0].Val+1 || ops[2].Kind != model.OpTryCommit {
					t.Fatalf("%s is not one increment: %v", tx.ID(), tx)
				}
				if read[ops[0].Val] {
					t.Fatalf("two commits read %d", ops[0].Val)
				}
				read[ops[0].Val] = true
			}
			if len(read) != callers*per {
				t.Errorf("%d committed increments in the history, want %d", len(read), callers*per)
			}
		}},
		{"queues behind a gated pinned job", func(t *testing.T) {
			s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
			var order orderLog
			started, release := make(chan struct{}), make(chan struct{})
			gate := goExecOn(s, 0, func(tx Tx) error {
				close(started)
				return order.body("gate", release)(tx)
			})
			<-started
			errc := make(chan error, 1)
			go func() { errc <- s.ExecOn(bg, 0, order.body("exec", nil)) }()
			eventually(t, "the ExecOn is queued", func() bool { return s.Stats().Submitted == 2 })
			close(release)
			for _, res := range []<-chan error{gate, errc} {
				if err := <-res; err != nil {
					t.Fatal(err)
				}
			}
			if got := order.String(); got != "gate,exec" {
				t.Errorf("ran %s, want gate,exec", got)
			}
			s.Close()
		}},
		{"queues behind a queued shared job", func(t *testing.T) {
			// The worker runs the gate; on its next two takes it prefers the
			// shared lane, then its pinned one, so the order is fixed.
			s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
			var order orderLog
			started, release := make(chan struct{}), make(chan struct{})
			gate := goExecOn(s, 0, func(tx Tx) error {
				close(started)
				return order.body("gate", release)(tx)
			})
			<-started
			shared := goExecOn(s, AnyWorker, order.body("shared", nil))
			eventually(t, "the shared job is queued", func() bool { return s.Stats().Submitted == 2 })
			errc := make(chan error, 1)
			go func() { errc <- s.ExecOn(bg, 0, order.body("exec", nil)) }()
			eventually(t, "the ExecOn is queued", func() bool { return s.Stats().Submitted == 3 })
			close(release)
			for _, res := range []<-chan error{gate, shared, errc} {
				if err := <-res; err != nil {
					t.Fatal(err)
				}
			}
			if got := order.String(); got != "gate,shared,exec" {
				t.Errorf("ran %s, want gate,shared,exec", got)
			}
			s.Close()
		}},
		{"queues behind work its idle worker has not taken", func(t *testing.T) {
			s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
			me := goid()
			for _, lane := range []int{0, AnyWorker} {
				var order orderLog
				enqueueUnwoken(s, lane, order.body("queued", nil))
				var ranOn uint64
				if err := s.ExecOn(bg, 0, func(tx Tx) error {
					ranOn = goid()
					return order.body("exec", nil)(tx)
				}); err != nil {
					t.Fatal(err)
				}
				if err := s.Drain(bg); err != nil {
					t.Fatal(err)
				}
				if ranOn == me {
					t.Errorf("lane %d: ExecOn ran on its caller past a queued job (%s)", lane, order.String())
				}
				// A pinned lane is FIFO; where a shared job falls is up to
				// the worker's lane alternation.
				if lane == 0 && order.String() != "queued,exec" {
					t.Errorf("lane %d: ran %s, want queued,exec", lane, order.String())
				}
			}
			s.Close()
		}},
		{"close waits for an inline transaction", func(t *testing.T) {
			s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1, Record: true})
			caller, started, release := make(chan uint64, 1), make(chan struct{}), make(chan struct{})
			var ranOn uint64
			errc := make(chan error, 1)
			go func() {
				caller <- goid()
				errc <- s.ExecOn(bg, 0, func(tx Tx) error {
					if ranOn == 0 {
						ranOn = goid()
						close(started)
					}
					<-release
					return tx.Write(0, 7)
				})
			}()
			<-started
			closed := make(chan error, 1)
			go func() {
				_, err := s.Close()
				closed <- err
			}()
			eventually(t, "Close seals the session", func() bool { return closing(s) })
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while a transaction was running", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-errc; err != nil {
				t.Fatalf("inline transaction: %v", err)
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if want := <-caller; ranOn != want {
				t.Errorf("body ran on goroutine %d, want its caller %d", ranOn, want)
			}
			txns, err := model.Transactions(s.History())
			if err != nil {
				t.Fatal(err)
			}
			if len(txns) != 1 || txns[0].Status != model.Committed || txns[0].Ops[0] != (model.Op{Kind: model.OpWrite, Val: 7}) {
				t.Errorf("history holds %v, want the inline transaction's commit", txns)
			}
			if err := s.ExecOn(bg, 0, counterSessionBody(0)); !errors.Is(err, ErrClosed) {
				t.Errorf("ExecOn after Close: %v, want ErrClosed", err)
			}
		}},
		{"drain and stats count inline runs", func(t *testing.T) {
			const n = 50
			s := openTestSession(t, "native-norec", SessionConfig{Workers: 2, Vars: 1})
			me := goid()
			for i := range n {
				if err := s.ExecOn(bg, 1, func(tx Tx) error {
					if g := goid(); g != me {
						t.Errorf("transaction %d ran on goroutine %d, not its caller %d", i, g, me)
					}
					return counterSessionBody(0)(tx)
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(bg); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Submitted != n || st.Completed != n || st.Commits != n {
				t.Errorf("submitted %d completed %d commits %d, want %d", st.Submitted, st.Completed, st.Commits, n)
			}
			if len(st.PerWorkerCommits) != 2 || st.PerWorkerCommits[0] != 0 || st.PerWorkerCommits[1] != n {
				t.Errorf("per-worker commits %v, want [0 %d]", st.PerWorkerCommits, n)
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"a live stop yields ErrStopped", func(t *testing.T) {
			s, err := bogusEngine().Open(SessionConfig{Workers: 2, Vars: 2, Live: true})
			if err != nil {
				t.Fatal(err)
			}
			read := func(tx Tx) error { _, err := tx.Read(0); return err }
			stopped := false
			for i := 0; i < 200000 && !stopped; i++ {
				switch err := s.ExecOn(bg, i%2, read); {
				case errors.Is(err, ErrStopped):
					stopped = true
				case err != nil:
					t.Fatalf("exec %d: %v", i, err)
				}
			}
			if !stopped {
				t.Fatal("no inline transaction was stopped by the live monitor")
			}
			if err := s.ExecOn(bg, 0, read); !errors.Is(err, ErrStopped) {
				t.Errorf("post-stop ExecOn: %v, want ErrStopped", err)
			}
			if _, err := s.Close(); !errors.Is(err, ErrLiveViolation) {
				t.Errorf("close: %v, want ErrLiveViolation", err)
			}
			if !s.Stats().Stopped {
				t.Error("Stats.Stopped must report the stop")
			}
		}},
		{"inline and queued commits take the same cuts", func(t *testing.T) {
			const n = 40 // ten cuts at the default cadence on one worker
			cuts := func(ctx context.Context) uint64 {
				s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1, Record: true})
				for range n {
					if err := s.ExecOn(ctx, 0, counterSessionBody(0)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return s.Stats().CutLatency.Count
			}
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			inline, queued := cuts(bg), cuts(ctx)
			if inline != queued || inline != n/4 {
				t.Errorf("%d cuts inline, %d queued, want %d each", inline, queued, n/4)
			}
		}},
		{"a cancellable context queues", func(t *testing.T) {
			s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			me := goid()
			var ranOn uint64
			if err := s.ExecOn(ctx, 0, func(tx Tx) error {
				ranOn = goid()
				return counterSessionBody(0)(tx)
			}); err != nil {
				t.Fatal(err)
			}
			if ranOn == me {
				t.Error("a cancellable ExecOn ran on its caller")
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
