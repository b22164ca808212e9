package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// execProbe runs one transaction whose body is the only reference to a
// heap object, and arranges for collected to close when that object is
// finalized. It is its own function so that no frame of the caller
// keeps the body alive.
//
//go:noinline
func execProbe(t *testing.T, s *Session, worker int, collected chan struct{}) {
	t.Helper()
	probe := new([64]int64)
	runtime.SetFinalizer(probe, func(*[64]int64) { close(collected) })
	err := s.ExecOn(context.Background(), worker, func(tx Tx) error {
		_, err := tx.Read(int(probe[0]))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLanePoppedJobIsCollectable: once a job has run, nothing in an
// open, idle session still refers to its body — not the lane slot it
// was popped from, not the worker that ran it. (The lanes used to be
// slices popped with q[1:], which kept every finished job's closures
// reachable from the dead prefix of the backing array.)
func TestLanePoppedJobIsCollectable(t *testing.T) {
	for _, tc := range []struct {
		engine string
		cfg    SessionConfig
	}{
		{"native-tl2", SessionConfig{Workers: 2, Vars: 1}},
	} {
		for lane, worker := range map[string]int{"pinned": 1, "shared": AnyWorker} {
			t.Run(tc.engine+"/"+lane, func(t *testing.T) {
				s := openTestSession(t, tc.engine, tc.cfg)
				defer s.Close()
				if worker == AnyWorker {
					// A shared job is handed to an idle worker's own lane:
					// park both workers, so that the probe waits on the
					// shared lane, and let them go once it is queued.
					release := make(chan struct{})
					park(s, 0, release)
					park(s, 1, release)
					go func() {
						for s.Stats().Submitted < 3 {
							runtime.Gosched()
						}
						close(release)
					}()
				}
				collected := make(chan struct{})
				execProbe(t, s, worker, collected)
				for i := 0; i < 200; i++ { // a finalizer runs some time after the collection that found it
					runtime.GC()
					select {
					case <-collected:
						return
					case <-time.After(5 * time.Millisecond):
					}
				}
				t.Fatal("the finished job's body is still reachable from the idle session")
			})
		}
	}
}

// TestExecOnCancelledWaiterIsNeverRecycled: a waiter whose Exec gave up
// on a done context still belongs to the worker that will send the
// abandoned transaction's result on it, so it must not go back to the
// pool — the next Exec to draw it would receive a stranger's result.
// Every body here fails with an error only it returns; an ordinary call
// must get exactly its own back. Each round has one call whose context
// is done before it starts and one whose context ends while its job is
// queued behind a gate, each followed on the same goroutine (the one a
// pooled waiter would come back to) by an ordinary call. Run with -race.
func TestExecOnCancelledWaiterIsNeverRecycled(t *testing.T) {
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 1})
	failing := func(id string) (Body, error) {
		mine := errors.New(id)
		return func(Tx) error { return mine }, mine
	}
	submitted := func(n uint64) {
		for deadline := time.Now().Add(20 * time.Second); s.Stats().Submitted < n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d submissions were accepted", s.Stats().Submitted, n)
			}
		}
	}
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	// Ordinary calls never give up in a correct run; the deadline only
	// turns a call whose result went to a stranger into a failure
	// instead of a hang.
	patient, cancelPatient := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelPatient()
	var accepted uint64
	for round := 0; round < 30; round++ {
		// The gate holds the worker, so everything below queues behind it.
		release := make(chan struct{})
		gate := park(s, 0, release)
		midQueue, cancelMidQueue := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for _, ctx := range []context.Context{done, midQueue} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				abandoned, theirs := failing(fmt.Sprintf("abandoned in round %d", round))
				if err := s.ExecOn(ctx, 0, abandoned); !errors.Is(err, context.Canceled) && err != theirs {
					t.Errorf("abandoned call returned %v", err)
				}
				ordinary, mine := failing(fmt.Sprintf("ordinary in round %d", round))
				if err := s.ExecOn(patient, 0, ordinary); err != mine {
					t.Errorf("ordinary call returned %q, want its own %q", err, mine)
				}
			}()
		}
		accepted += 3
		submitted(accepted) // the gate and both abandoned-to-be calls are in
		cancelMidQueue()
		accepted += 2
		submitted(accepted) // both ordinary calls are queued behind the abandoned ones
		close(release)
		wg.Wait()
		if err := <-gate; err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			// A result that went astray can leave the worker blocked on a
			// full waiter; Close would wait for it.
			t.FailNow()
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Completed != st.Submitted || st.Submitted != accepted {
		t.Errorf("completed %d of %d submitted, %d accepted", st.Completed, st.Submitted, accepted)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedLaneSpreadsOverWorkers: sequential AnyWorker submissions
// land on every worker. Each is handed to an idle worker, the next one
// after the last picked, so each of 4 workers commits at least an
// eighth of 400 calls. A job queued on the shared lane with every
// worker woken goes to whichever worker runs first, nearly always the
// same one.
func TestSharedLaneSpreadsOverWorkers(t *testing.T) {
	const workers, calls = 4, 400
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: workers, Vars: 1})
	ctx, cancel := context.WithCancel(context.Background()) // cancellable: every call queues
	defer cancel()
	for i := range calls {
		// Each call finds every worker idle, so where it lands depends
		// on the pick alone, not on how soon the last worker got back.
		eventually(t, "every worker is idle", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return !slices.Contains(s.busy, true)
		})
		if err := s.ExecOn(ctx, AnyWorker, counterSessionBody(0)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	st := s.Stats()
	for p, c := range st.PerWorkerCommits {
		if c < calls/8 {
			t.Errorf("worker %d committed %d of %d calls, want at least %d (per worker: %v)", p, c, calls, calls/8, st.PerWorkerCommits)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
