package native

import (
	"testing"

	"livetm/internal/alloctest"
)

// TestAllocBudgetPerCommit pins the steady-state allocation cost of
// one committed read-modify-write transaction per algorithm. The
// pooled scratch (recyclable) keeps TL2, NOrec and TinySTM at zero, and
// the Mutex's one reused handle keeps it there too; DSTM pays for its
// per-attempt descriptor and per-write locator by design. Measured at
// GOMAXPROCS 1, 2 and 4: 0 for mutex, tl2, norec and tinystm, 2 for
// dstm. Budgets are those figures plus one alloc of slack for GC noise
// (a drained sync.Pool refills once).
//
// An observed commit has the same budget: the handle that reports the
// body's operations is part of the attempt's scratch, not an object of
// its own.
func TestAllocBudgetPerCommit(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	budgets := map[string]float64{
		"native-mutex":   1,
		"native-tl2":     1,
		"native-norec":   1,
		"native-tinystm": 1,
		"native-dstm":    3,
	}
	body := func(tx Txn) error {
		v, err := tx.Read(3)
		if err != nil {
			return err
		}
		return tx.Write(3, v+1)
	}
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			budget, ok := budgets[info.Name]
			if !ok {
				t.Fatalf("no allocation budget for %s", info.Name)
			}
			tm, err := info.New(8)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(obs Observer) float64 {
				commit := func() {
					if err := AtomicallyObserved(tm, obs, body); err != nil {
						t.Fatal(err)
					}
				}
				// Warm the pools so the measurement sees the steady state.
				for i := 0; i < 16; i++ {
					commit()
				}
				return testing.AllocsPerRun(200, commit)
			}
			plain := measure(nil)
			t.Logf("%.2f allocs per committed transaction", plain)
			if plain > budget {
				t.Errorf("%.2f allocs per committed transaction, budget %.0f", plain, budget)
			}
			counter := &countingObserver{}
			if observed := measure(counter); observed > plain {
				t.Errorf("%.2f allocs per observed commit, %.2f unobserved", observed, plain)
			}
			if counter.calls != 6*(16+1+200) {
				t.Errorf("observer saw %d callbacks, want 6 per commit", counter.calls)
			}
		})
	}
}

// countingObserver is an observer that allocates nothing itself.
type countingObserver struct{ calls int }

func (o *countingObserver) ReadInv(int)                  { o.calls++ }
func (o *countingObserver) ReadReturn(int, int64, bool)  { o.calls++ }
func (o *countingObserver) WriteInv(int, int64)          { o.calls++ }
func (o *countingObserver) WriteReturn(int, int64, bool) { o.calls++ }
func (o *countingObserver) TryCommitInv()                { o.calls++ }
func (o *countingObserver) TryCommitReturn(bool)         { o.calls++ }
func (o *countingObserver) Abandon()                     { o.calls++ }
