package native

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBackoffShiftCapped: the effective spin shift never exceeds the
// cap, whatever the round or bias — the policy's defined dynamic
// range.
func TestBackoffShiftCapped(t *testing.T) {
	b := NewBackoff(2)
	for round := 0; round < 100; round++ {
		if s := b.shift(0, round); s > b.Cap() {
			t.Fatalf("round %d: shift %d exceeds cap %d", round, s, b.Cap())
		}
	}
	b.SetBias(0, MaxBias)
	if s := b.shift(0, 1000); s != b.Cap() {
		t.Fatalf("saturated shift = %d, want cap %d", s, b.Cap())
	}
	b.SetBias(1, -MaxBias)
	if s := b.shift(1, 1); s != 0 {
		t.Fatalf("favoured shift = %d, want 0", s)
	}
	if s := b.shift(5, 3); s != 3 {
		t.Fatalf("out-of-range proc shift = %d, want round", s)
	}
}

// TestBackoffBiasClamped: SetBias clamps to ±MaxBias, out-of-range
// processes are ignored.
func TestBackoffBiasClamped(t *testing.T) {
	b := NewBackoff(2)
	b.SetBias(0, 100)
	b.SetBias(1, -100)
	b.SetBias(7, 2) // out of range: no-op, no panic
	if got := b.BiasSnapshot(); got[0] != MaxBias || got[1] != -MaxBias {
		t.Fatalf("bias = %v, want [%d %d]", got, MaxBias, -MaxBias)
	}
}

// TestBackoffRebias: a process starved far beyond the mean backs off
// less, a hot process more, a balanced process returns to neutral.
func TestBackoffRebias(t *testing.T) {
	b := NewBackoff(3)
	b.SetBias(2, MaxBias) // must return to neutral
	b.Rebias([]int{1000, 10, 330})
	if got := b.BiasSnapshot(); got[0] != -starveBias || got[1] != starveBias || got[2] != 0 {
		t.Fatalf("bias after rebias = %v, want [%d %d 0]", got, -starveBias, starveBias)
	}
	// All-zero starvation (no signal) leaves the policy untouched.
	b.Rebias([]int{0, 0, 0})
	if got := b.BiasSnapshot(); got[0] != -starveBias {
		t.Fatalf("zero-signal rebias changed bias: %v", got)
	}
}

// TestAtomicallyOptsStopped: a transaction wedged in its retry loop
// returns ErrStopped once the stop channel closes, on every
// algorithm. Run with -race.
func TestAtomicallyOptsStopped(t *testing.T) {
	for _, info := range Algorithms() {
		if info.Name == "native-mutex" {
			continue // no retry loop: a body abort returns, it never wedges
		}
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			otm := tm.(ObservableTM)
			stop := make(chan struct{})
			done := make(chan error, 1)
			var once sync.Once
			go func() {
				done <- otm.AtomicallyOpts(RunOpts{Stop: stop, Backoff: NewBackoff(1)},
					func(tx Txn) error {
						once.Do(func() { close(stop) })
						return ErrAborted // retry forever until stopped
					})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("err = %v, want ErrStopped", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("retry loop did not stop")
			}
		})
	}
}

// TestAtomicallyOptsStoppedBeforeStart: a closed stop channel refuses
// even the first attempt.
func TestAtomicallyOptsStoppedBeforeStart(t *testing.T) {
	for _, info := range Algorithms() {
		tm, err := info.New(1)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		close(stop)
		err = tm.(ObservableTM).AtomicallyOpts(RunOpts{Stop: stop}, func(tx Txn) error {
			t.Fatalf("%s: body ran after stop", info.Name)
			return nil
		})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: err = %v, want ErrStopped", info.Name, err)
		}
	}
}

// TestAtomicallyOptsCommits: a zero-bias policy with a stop channel
// that never fires behaves exactly like plain Atomically.
func TestAtomicallyOptsCommits(t *testing.T) {
	for _, info := range Algorithms() {
		tm, err := info.New(1)
		if err != nil {
			t.Fatal(err)
		}
		otm := tm.(ObservableTM)
		stop := make(chan struct{})
		bo := NewBackoff(1)
		for i := 0; i < 10; i++ {
			err := otm.AtomicallyOpts(RunOpts{Stop: stop, Backoff: bo}, func(tx Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				return tx.Write(0, v+1)
			})
			if err != nil {
				t.Fatalf("%s: %v", info.Name, err)
			}
		}
		var got int64
		if err := tm.Atomically(func(tx Txn) error {
			v, err := tx.Read(0)
			got = v
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got != 10 {
			t.Fatalf("%s: counter = %d, want 10", info.Name, got)
		}
	}
}

// SetBias sets process proc's shift adjustment, clamped to
// [-MaxBias, MaxBias]. Negative bias makes the process back off less.
func (b *Backoff) SetBias(proc, bias int) {
	if proc < 0 || proc >= len(b.bias) {
		return
	}
	if bias > MaxBias {
		bias = MaxBias
	}
	if bias < -MaxBias {
		bias = -MaxBias
	}
	b.bias[proc].Store(int32(bias))
}

// MaxBias bounds the per-process shift adjustment: a bias of ±MaxBias
// scales a process's spin bound by at most 2^MaxBias in either
// direction, which keeps even a maximally favoured process backing off
// and a maximally penalized one below the cap.
const MaxBias = 3
