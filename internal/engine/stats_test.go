package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsSnapshotOrder holds every Stats snapshot to
// Commits + NoCommits ≤ Completed ≤ Submitted while jobs complete on
// every path: a snapshot is taken continuously while submitters run
// committing and declining Execs, inline and queued. Run with -race.
func TestStatsSnapshotOrder(t *testing.T) {
	s := openTestSession(t, "native-tl2", SessionConfig{Workers: 2, Vars: 4})
	var stop atomic.Bool
	var snaps int
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ; !stop.Load(); snaps++ {
			st := s.Stats()
			if st.Commits+st.NoCommits > st.Completed || st.Completed > st.Submitted {
				t.Errorf("snapshot %d: commits %d + no-commits %d, completed %d, submitted %d",
					snaps, st.Commits, st.NoCommits, st.Completed, st.Submitted)
				return
			}
		}
	}()
	decline := func(tx Tx) error {
		if _, err := tx.Read(3); err != nil {
			return err
		}
		return ErrNoCommit
	}
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 1 { // cancellable: the queued path
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			for j := 0; j < 2000; j++ {
				body := counterSessionBody(i % 2)
				if j%3 == 0 {
					body = decline
				}
				if err := s.ExecOn(ctx, i%2, body); err != nil && !errors.Is(err, ErrNoCommit) {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-watched
	s.Close()
	if snaps == 0 {
		t.Error("no snapshot was taken during the load")
	}
}

// TestStatsCountDeliveredResults holds Session.Stats to its contract:
// by the time a result is delivered — an ExecOn returns, or a Begin's
// done callback starts — Stats already counts it, whichever way the
// transaction ran and however it ended. Sessions are native only, so
// the native rows are the ones left. Run with -race.
func TestStatsCountDeliveredResults(t *testing.T) {
	bg := context.Background()
	substrates := []struct {
		name string
		open func(t *testing.T, stop bool) *Session
	}{
		{"native", func(t *testing.T, stop bool) *Session {
			if !stop {
				return openTestSession(t, "native-tl2", SessionConfig{Workers: 1, Vars: 2})
			}
			// Reads of values nobody wrote: the live monitor stops the
			// session at its first cut.
			s, err := bogusEngine().Open(SessionConfig{Workers: 1, Vars: 2, Live: true})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	// A path delivers one submission's result to check and returns once
	// check has run.
	paths := []struct {
		name    string
		deliver func(s *Session, body Body, check func(error))
	}{
		{"inline", func(s *Session, body Body, check func(error)) {
			check(s.ExecOn(bg, 0, body))
		}},
		{"queued", func(s *Session, body Body, check func(error)) {
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			check(s.ExecOn(ctx, 0, body))
		}},
		{"async", func(s *Session, body Body, check func(error)) {
			// An interactive transaction, whose result goes to Begin's
			// done callback; the body issues its operations from here.
			done := make(chan struct{})
			it, err := s.Begin(0, func(err error) {
				defer close(done)
				check(err)
			})
			if err != nil {
				check(err)
				return
			}
			for {
				res := body(interactiveTx{it})
				if errors.Is(res, ErrAborted) {
					continue // the attempt ended; the transaction is open again
				}
				if res != nil && !errors.Is(res, ErrNoCommit) {
					break // the transaction is over: done has its result
				}
				if retrying, _ := it.Finish(bg, res == nil); !retrying {
					break
				}
			}
			<-done
		}},
	}
	outcomes := []struct {
		name string
		stop bool
		body Body
	}{
		{"commit", false, counterSessionBody(0)},
		{"no-commit", false, func(tx Tx) error {
			if _, err := tx.Read(1); err != nil {
				return err
			}
			return ErrNoCommit
		}},
		{"stop", true, func(tx Tx) error {
			v, err := tx.Read(0)
			if err != nil {
				return err
			}
			return tx.Write(1, v)
		}},
	}
	for _, sub := range substrates {
		for _, path := range paths {
			for _, out := range outcomes {
				t.Run(sub.name+"/"+path.name+"/"+out.name, func(t *testing.T) {
					s := sub.open(t, out.stop)
					var delivered, commits, noCommits uint64
					stopped := false
					check := func(err error) {
						delivered++
						switch {
						case err == nil:
							commits++
						case errors.Is(err, ErrNoCommit):
							noCommits++
						case errors.Is(err, ErrStopped):
							stopped = true
						default:
							t.Errorf("result %d: %v", delivered, err)
						}
						st := s.Stats()
						if st.Submitted != delivered || st.Completed != delivered ||
							st.Commits != commits || st.NoCommits != noCommits ||
							st.Stopped != stopped {
							t.Errorf("after result %d (%v): submitted %d completed %d commits %d no-commits %d stopped %v, want %d/%d/%d/%d/%v",
								delivered, err, st.Submitted, st.Completed, st.Commits, st.NoCommits, st.Stopped,
								delivered, delivered, commits, noCommits, stopped)
						}
					}
					limit := 20
					if out.stop {
						limit = 200000
					}
					for i := 0; i < limit && !stopped && !t.Failed(); i++ {
						path.deliver(s, out.body, check)
					}
					if out.stop && !stopped {
						t.Errorf("no submission was stopped in %d tries", limit)
					}
					s.Close()
				})
			}
		}
	}
}

// interactiveTx runs a Body's operations on an open interactive
// transaction: an operation that ended the attempt is ErrAborted, and
// one on a finished transaction is its terminal result.
type interactiveTx struct{ it *Interactive }

func (x interactiveTx) Read(i int) (int64, error) {
	v, aborted, err := x.it.Read(context.Background(), i)
	if err == nil && aborted {
		err = ErrAborted
	}
	return v, err
}

func (x interactiveTx) Write(i int, v int64) error {
	aborted, err := x.it.Write(context.Background(), i, v)
	if err == nil && aborted {
		err = ErrAborted
	}
	return err
}
