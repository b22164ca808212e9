package native

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffConcurrentRebias hammers one Backoff policy from three
// sides at once — the monitor's rebias feedback, direct bias writes,
// and the retry loop's wait/shift reads — the exact concurrency the
// live engine and the native adversary driver produce. Run under
// -race; afterwards every bias must still sit inside the policy's
// dynamic range.
func TestBackoffConcurrentRebias(t *testing.T) {
	const procs = 8
	bo := NewBackoff(procs)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			starve := make([]int, procs)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for p := range starve {
					starve[p] = (i*31 + p*p*17 + g) % 257
				}
				bo.Rebias(starve)
			}
		}(g)
	}
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				bo.SetBias(p, i%9-4) // beyond ±MaxBias on purpose: must clamp
				bo.wait(p, i%(backoffCap+2))
				_ = bo.Bias(p)
				_ = bo.BiasSnapshot()
			}
		}(p)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	for p, b := range bo.BiasSnapshot() {
		if b < -MaxBias || b > MaxBias {
			t.Errorf("proc %d bias %d escaped [-%d, %d]", p, b, MaxBias, MaxBias)
		}
	}
}

// stopGate is the gate a live run's stop amounts to: it refuses every
// attempt once its channel is closed.
type stopGate chan struct{}

func (g stopGate) Enter() bool {
	select {
	case <-g:
		return false
	default:
		return true
	}
}

func (stopGate) Leave() {}

// TestStopCancellationWithoutSignal covers the run stop path `livetm
// run` relies on when a live run is cancelled from inside the process
// (the monitor's violation stop) rather than by a signal: a gate that
// starts refusing while every attempt keeps aborting must end the retry
// loop with ErrStopped on every algorithm, promptly and exactly once.
func TestStopCancellationWithoutSignal(t *testing.T) {
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var attempts atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- tm.AtomicallyOpts(RunOpts{Gate: stopGate(stop)}, func(tx Txn) error {
					attempts.Add(1)
					// Keep the transaction aborting so the retry loop
					// spins until the stop lands.
					return ErrAborted
				})
			}()
			for attempts.Load() < 3 {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			select {
			case err := <-done:
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("want ErrStopped, got %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("retry loop did not honour the stop")
			}
		})
	}
}

// scriptGate logs its calls into the observer's event script, so that a
// test sees them in order with the attempts' events; it refuses every
// attempt when refuse is set, and runs leave, if set, inside Leave.
type scriptGate struct {
	obs    *scriptObserver
	refuse bool
	leave  func()
}

func (g *scriptGate) Enter() bool {
	g.obs.events = append(g.obs.events, "enter")
	return !g.refuse
}

func (g *scriptGate) Leave() {
	g.obs.events = append(g.obs.events, "leave")
	if g.leave != nil {
		g.leave()
	}
}

// TestGateContract: on every algorithm the gate brackets every attempt
// — Enter before its first observer event, Leave after its last, on a
// voluntary abort, a commit and a terminal body error alike — and a
// refusing Enter returns ErrStopped with no attempt begun. The mutex's
// lock is free by the time Leave runs: an attempt has released
// everything it held.
func TestGateContract(t *testing.T) {
	decline := errors.New("decline")
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			obs := &scriptObserver{}
			g := &scriptGate{obs: obs}
			if m, ok := tm.(*Mutex); ok {
				g.leave = func() {
					if !m.mu.TryLock() {
						t.Error("Leave ran with the mutex held")
						return
					}
					m.mu.Unlock()
				}
			}
			opts := RunOpts{Observer: obs, Gate: g}
			attempt := 0
			err = tm.AtomicallyOpts(opts, func(tx Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				if attempt++; attempt == 1 {
					return ErrAborted
				}
				return tx.Write(0, v+1)
			})
			if err != nil {
				t.Fatal(err)
			}
			err = tm.AtomicallyOpts(opts, func(tx Txn) error {
				if _, err := tx.Read(0); err != nil {
					return err
				}
				return decline
			})
			if !errors.Is(err, decline) {
				t.Fatalf("body error: got %v", err)
			}
			want := []string{
				"enter", "r0?", "r0=0", "abandon", "leave",
				"enter", "r0?", "r0=0", "w0(1)?", "ok", "tryC", "C", "leave",
				"enter", "r0?", "r0=1", "abandon", "leave",
			}
			if fmt.Sprint(obs.events) != fmt.Sprint(want) {
				t.Fatalf("events = %v, want %v", obs.events, want)
			}

			obs.events, g.refuse = nil, true
			before := tm.Stats()
			err = tm.AtomicallyOpts(opts, func(Txn) error {
				t.Error("body ran behind a refusing gate")
				return nil
			})
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("refused run: got %v, want ErrStopped", err)
			}
			if fmt.Sprint(obs.events) != "[enter]" {
				t.Fatalf("refused run: events = %v, want [enter]", obs.events)
			}
			if st := tm.Stats(); st != before {
				t.Fatalf("refused run moved Stats from %+v to %+v", before, st)
			}
		})
	}
}
