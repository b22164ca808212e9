package native

import (
	"errors"
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
				bo.wait(p, i%(DefaultBackoffCap+2))
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

// TestStopCancellationWithoutSignal covers the run stop path `livetm
// run` relies on when a live run is cancelled from inside the process
// (the monitor's violation stop) rather than by a signal: closing
// RunOpts.Stop while every attempt keeps aborting must end the retry
// loop with ErrStopped on every algorithm, promptly and exactly once.
func TestStopCancellationWithoutSignal(t *testing.T) {
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			if info.Name == "native-mutex" {
				// The mutex never retries; its stop check runs once,
				// before the lock. A stop that landed before the call
				// must refuse the transaction outright.
				close(stop)
				err := tm.AtomicallyOpts(RunOpts{Stop: stop}, func(Txn) error { return nil })
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("want ErrStopped, got %v", err)
				}
				return
			}
			var attempts atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- tm.AtomicallyOpts(RunOpts{Stop: stop}, func(tx Txn) error {
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
