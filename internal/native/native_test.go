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

// TestSequentialSemantics holds every algorithm to the write-log
// contract, one table row per case on a fresh instance: n distinct
// writes around the log's index threshold (and far past it), each read
// back inside the transaction and after commit; overwrites, where the
// last value wins; two variables sharing a stripe; an abandoned big
// transaction; and a small transaction on the pooled scratch a big one
// just left.
func TestSequentialSemantics(t *testing.T) {
	// Twice the stripe table, so i and i+maxStripes share a stripe.
	const vars = 2 * maxStripes
	sentinel := errors.New("decline")
	keys := func(n int) []int {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	// write writes vals[k] to ks[k] in order, then reads every key back
	// inside the transaction against the last value written to it, and
	// returns end once they all match.
	write := func(tm TM, ks []int, vals []int64, end error) error {
		want := map[int]int64{}
		for k, i := range ks {
			want[i] = vals[k]
		}
		return tm.Atomically(func(tx Txn) error {
			for k, i := range ks {
				if err := tx.Write(i, vals[k]); err != nil {
					return err
				}
			}
			for i, w := range want {
				v, err := tx.Read(i)
				if err != nil {
					return err
				}
				if v != w {
					return fmt.Errorf("read own write of %d = %d, want %d", i, v, w)
				}
			}
			return end
		})
	}
	// check reads every variable after the fact: want's, or 0. It reads
	// in chunks because DSTM revalidates its whole read set per read.
	check := func(t *testing.T, tm TM, want map[int]int64) {
		t.Helper()
		const chunk = 256
		for lo := 0; lo < vars; lo += chunk {
			err := tm.Atomically(func(tx Txn) error {
				for i := lo; i < lo+chunk; i++ {
					v, err := tx.Read(i)
					if err != nil {
						return err
					}
					if v != want[i] {
						return fmt.Errorf("committed value of %d = %d, want %d", i, v, want[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	committed := func(ks []int, vals []int64) map[int]int64 {
		m := map[int]int64{}
		for k, i := range ks {
			m[i] = vals[k]
		}
		return m
	}
	valsOf := func(ks []int, f func(k int) int64) []int64 {
		vs := make([]int64, len(ks))
		for k := range vs {
			vs[k] = f(k)
		}
		return vs
	}
	type row struct {
		name string
		run  func(t *testing.T, tm TM)
	}
	var rows []row
	for _, n := range []int{0, 1, logIndexAt - 1, logIndexAt, logIndexAt + 1, 4096} {
		rows = append(rows, row{fmt.Sprintf("distinct-%d", n), func(t *testing.T, tm TM) {
			ks := keys(n)
			vals := valsOf(ks, func(k int) int64 { return int64(3*k + 1) })
			if err := write(tm, ks, vals, nil); err != nil {
				t.Fatal(err)
			}
			check(t, tm, committed(ks, vals))
		}})
	}
	rows = append(rows,
		row{"overwrite-one", func(t *testing.T, tm TM) {
			ks := []int{5, 5, 5, 5, 5}
			vals := []int64{1, 2, 3, 4, 9}
			if err := write(tm, ks, vals, nil); err != nil {
				t.Fatal(err)
			}
			check(t, tm, map[int]int64{5: 9})
		}},
		row{"overwrite-past-index", func(t *testing.T, tm TM) {
			n := logIndexAt + 4
			ks := append(keys(n), keys(n)...)
			vals := valsOf(ks, func(k int) int64 { return int64(k + 1) })
			if err := write(tm, ks, vals, nil); err != nil {
				t.Fatal(err)
			}
			check(t, tm, committed(ks, vals))
		}},
		row{"shared-stripe", func(t *testing.T, tm TM) {
			const a, b = 7, 7 + maxStripes
			err := tm.Atomically(func(tx Txn) error {
				if err := tx.Write(a, 11); err != nil {
					return err
				}
				// b's stripe is a's: TinySTM owns it now, but b is not
				// in the log and must read its committed value.
				if v, err := tx.Read(b); err != nil || v != 0 {
					return fmt.Errorf("read of unwritten %d in a written stripe = %d, %v", b, v, err)
				}
				if err := tx.Write(b, 22); err != nil {
					return err
				}
				va, err := tx.Read(a)
				if err != nil {
					return err
				}
				vb, err := tx.Read(b)
				if err != nil {
					return err
				}
				if va != 11 || vb != 22 {
					return fmt.Errorf("read own writes = %d, %d", va, vb)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check(t, tm, map[int]int64{a: 11, b: 22})
		}},
		row{"abandoned-big", func(t *testing.T, tm TM) {
			ks := keys(4096)
			vals := valsOf(ks, func(int) int64 { return 99 })
			if err := write(tm, ks, vals, sentinel); !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want the body's", err)
			}
			if c := tm.Stats().Commits; c != 0 {
				t.Fatalf("commits = %d after an abandoned transaction", c)
			}
			check(t, tm, nil)
		}},
		row{"small-after-big", func(t *testing.T, tm TM) {
			big := keys(4096)
			if err := write(tm, big, valsOf(big, func(int) int64 { return 99 }), sentinel); !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want the body's", err)
			}
			// The same goroutine's next transaction gets the scratch the
			// big one left: its log must hold nothing of it, whether the
			// lookup scans or probes the index.
			err := tm.Atomically(func(tx Txn) error {
				for _, i := range []int{0, 1, logIndexAt, 4095} {
					if v, err := tx.Read(i); err != nil || v != 0 {
						return fmt.Errorf("stale read of %d = %d, %v", i, v, err)
					}
				}
				if err := tx.Write(3, 5); err != nil {
					return err
				}
				if v, err := tx.Read(3); err != nil || v != 5 {
					return fmt.Errorf("read own write = %d, %v", v, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check(t, tm, map[int]int64{3: 5})
			// A second big transaction, in the opposite key order, must
			// not find the first one's positions in the kept index.
			rev := make([]int, len(big))
			for k := range rev {
				rev[k] = len(big) - 1 - k
			}
			vals := valsOf(rev, func(k int) int64 { return int64(1000 + k) })
			if err := write(tm, rev, vals, nil); err != nil {
				t.Fatal(err)
			}
			check(t, tm, committed(rev, vals))
		}},
	)
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) {
					tm, err := info.New(vars)
					if err != nil {
						t.Fatal(err)
					}
					if tm.Vars() != vars {
						t.Fatalf("Vars = %d", tm.Vars())
					}
					r.run(t, tm)
				})
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
// count, and the striped commit counter summed by Stats, must be
// exact. Run with -race.
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
			if c := tm.Stats().Commits; c != goroutines*each {
				t.Errorf("Stats().Commits = %d, want %d", c, goroutines*each)
			}
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
