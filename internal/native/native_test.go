package native

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// both historically returned TL2 and Mutex; it now returns every
// registered algorithm so the whole suite runs across the registry.
func both(t *testing.T, n int) []TM {
	t.Helper()
	var tms []TM
	for _, info := range Algorithms() {
		tm, err := info.New(n)
		if err != nil {
			t.Fatal(err)
		}
		tms = append(tms, tm)
	}
	return tms
}

func TestNewValidation(t *testing.T) {
	for _, info := range Algorithms() {
		if _, err := info.New(0); err == nil {
			t.Errorf("%s: New(0) must fail", info.Name)
		}
		if _, err := info.New(-1); err == nil {
			t.Errorf("%s: New(-1) must fail", info.Name)
		}
	}
	if _, err := New("native-tl2", 4); err != nil {
		t.Errorf("New by name: %v", err)
	}
	if _, err := New("no-such-algorithm", 4); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

// TestRegistry pins the registry shape: at least 5 algorithms with
// unique names, and at least one nonblocking member.
func TestRegistry(t *testing.T) {
	infos := Algorithms()
	if len(infos) < 5 {
		t.Fatalf("registry has %d algorithms, want >= 5", len(infos))
	}
	seen := map[string]bool{}
	nonblocking := 0
	for _, info := range infos {
		if seen[info.Name] {
			t.Errorf("duplicate name %q", info.Name)
		}
		seen[info.Name] = true
		if info.Nonblocking {
			nonblocking++
		}
	}
	if nonblocking == 0 {
		t.Error("registry must include a nonblocking algorithm")
	}
}

// TestStatsCounters checks that commits and aborts are counted.
func TestStatsCounters(t *testing.T) {
	for _, tm := range both(t, 1) {
		for i := 0; i < 5; i++ {
			if err := tm.Atomically(func(tx Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				return tx.Write(0, v+1)
			}); err != nil {
				t.Fatal(err)
			}
		}
		st := tm.Stats()
		if st.Commits != 5 {
			t.Errorf("%s: commits = %d, want 5", tm.Name(), st.Commits)
		}
		if got := st.AbortRate(); got < 0 || got >= 1 {
			t.Errorf("%s: abort rate = %v", tm.Name(), got)
		}
	}
	if (Stats{}).AbortRate() != 0 {
		t.Error("empty stats must have abort rate 0")
	}
}

func TestSequentialSemantics(t *testing.T) {
	for _, tm := range both(t, 4) {
		t.Run(tm.Name(), func(t *testing.T) {
			err := tm.Atomically(func(tx Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				if v != 0 {
					return fmt.Errorf("initial value = %d", v)
				}
				if err := tx.Write(0, 7); err != nil {
					return err
				}
				v, err = tx.Read(0)
				if err != nil {
					return err
				}
				if v != 7 {
					return fmt.Errorf("read own write = %d", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got int64
			err = tm.Atomically(func(tx Txn) error {
				var err error
				got, err = tx.Read(0)
				return err
			})
			if err != nil || got != 7 {
				t.Fatalf("committed value = %d, %v", got, err)
			}
			if tm.Vars() != 4 {
				t.Errorf("Vars = %d", tm.Vars())
			}
		})
	}
}

func TestOutOfRange(t *testing.T) {
	for _, tm := range both(t, 2) {
		err := tm.Atomically(func(tx Txn) error {
			_, err := tx.Read(5)
			return err
		})
		if err == nil || errors.Is(err, ErrAborted) {
			t.Errorf("%s: out-of-range read error = %v", tm.Name(), err)
		}
		err = tm.Atomically(func(tx Txn) error {
			return tx.Write(-1, 0)
		})
		if err == nil {
			t.Errorf("%s: out-of-range write must error", tm.Name())
		}
	}
}

// TestConcurrentCounter: G goroutines × K increments each; the final
// count must be exact. Run with -race.
func TestConcurrentCounter(t *testing.T) {
	const goroutines, each = 8, 200
	for _, tm := range both(t, 1) {
		t.Run(tm.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						err := tm.Atomically(func(tx Txn) error {
							v, err := tx.Read(0)
							if err != nil {
								return err
							}
							return tx.Write(0, v+1)
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			var got int64
			_ = tm.Atomically(func(tx Txn) error {
				var err error
				got, err = tx.Read(0)
				return err
			})
			if got != goroutines*each {
				t.Fatalf("counter = %d, want %d", got, goroutines*each)
			}
		})
	}
}

// TestConcurrentBankConservation: transfers between 8 accounts while
// auditors sum them; every audit must see the conserved total (the
// snapshot guarantee under real concurrency). The audits start only
// after every transfer goroutine has committed once, and keep going
// until at least as many transfers as audits have committed beside
// them, so a schedule that runs the audits alone cannot pass.
func TestConcurrentBankConservation(t *testing.T) {
	const accounts, initial, transferrers, audits = 8, 1000, 4, 200
	for _, tm := range both(t, accounts) {
		t.Run(tm.Name(), func(t *testing.T) {
			err := tm.Atomically(func(tx Txn) error {
				for i := 0; i < accounts; i++ {
					if err := tx.Write(i, initial); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg, started sync.WaitGroup
			var transfers atomic.Int64
			defer func() {
				close(stop)
				wg.Wait()
			}()
			started.Add(transferrers)
			for g := 0; g < transferrers; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					state := seed | 1
					committed := false
					for {
						select {
						case <-stop:
							return
						default:
						}
						state ^= state << 13
						state ^= state >> 7
						state ^= state << 17
						from := int(state % accounts)
						to := int((state >> 8) % accounts)
						if from == to {
							// Both reads precede both writes, so the body
							// below would turn a self-transfer into +1.
							continue
						}
						err := tm.Atomically(func(tx Txn) error {
							fv, err := tx.Read(from)
							if err != nil {
								return err
							}
							tv, err := tx.Read(to)
							if err != nil {
								return err
							}
							if err := tx.Write(from, fv-1); err != nil {
								return err
							}
							return tx.Write(to, tv+1)
						})
						if err != nil {
							continue
						}
						transfers.Add(1)
						if !committed {
							committed = true
							started.Done()
						}
						// On one processor a transfer preempted inside its
						// commit holds its locks for a whole time slice and
						// the audits starve; yield between transfers instead.
						runtime.Gosched()
					}
				}(uint64(g + 1))
			}
			started.Wait()
			before := transfers.Load()
			for audit := 0; audit < audits || transfers.Load()-before < audits; audit++ {
				var total int64
				err := tm.Atomically(func(tx Txn) error {
					total = 0
					for i := 0; i < accounts; i++ {
						v, err := tx.Read(i)
						if err != nil {
							return err
						}
						total += v
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if total != accounts*initial {
					t.Fatalf("audit %d: total = %d, want %d", audit, total, accounts*initial)
				}
				runtime.Gosched() // on one processor, let the transfers in between audits
			}
		})
	}
}

// TestAbandonedBodyWritesInvisible: a body that writes and then
// returns a non-abort error must leave no effects behind, on every
// algorithm (the buffered ones discard, DSTM settles as aborted, the
// mutex baseline buffers until commit).
func TestAbandonedBodyWritesInvisible(t *testing.T) {
	sentinel := errors.New("decline")
	for _, tm := range both(t, 2) {
		err := tm.Atomically(func(tx Txn) error {
			if err := tx.Write(0, 7); err != nil {
				return err
			}
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: err = %v", tm.Name(), err)
		}
		var got int64
		if err := tm.Atomically(func(tx Txn) error {
			var err error
			got, err = tx.Read(0)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("%s: abandoned write leaked, read %d", tm.Name(), got)
		}
		if st := tm.Stats(); st.Commits != 1 {
			t.Errorf("%s: commits = %d, want only the reader's", tm.Name(), st.Commits)
		}
	}
}

// TestBodyErrorPropagates: a non-abort error from the body is
// returned, not retried.
func TestBodyErrorPropagates(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, tm := range both(t, 1) {
		calls := 0
		err := tm.Atomically(func(tx Txn) error {
			calls++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v", tm.Name(), err)
		}
		if calls != 1 {
			t.Errorf("%s: body ran %d times, want 1", tm.Name(), calls)
		}
	}
}
