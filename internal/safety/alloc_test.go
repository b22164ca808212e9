package safety

import (
	"testing"

	"livetm/internal/model"
)

// updateStream builds a history of read-modify-write transactions
// (read x, write x+1, tryC), one event per process per tick, each
// process cycling through four variables of its own. In lockstep all
// processes commit on the same tick, so the stream quiesces after
// every round; staggered by one tick per process it never does.
func updateStream(procs, commits int, staggered bool) model.History {
	const varsPerProc = 4
	type cursor struct {
		step, txns int
		val        [varsPerProc]model.Value
	}
	cur := make([]cursor, procs)
	var h model.History
	for tick, done := 0, 0; done < commits; tick++ {
		for i := range cur {
			if staggered && tick < i {
				continue
			}
			c, p := &cur[i], model.Proc(i+1)
			slot := c.txns % varsPerProc
			x := model.TVar(i*varsPerProc + slot)
			switch c.step {
			case 0:
				h = append(h, model.Read(p, x))
			case 1:
				h = append(h, model.ValueResp(p, c.val[slot]))
			case 2:
				h = append(h, model.Write(p, x, c.val[slot]+1))
			case 3:
				h = append(h, model.OK(p))
			case 4:
				h = append(h, model.TryCommit(p))
			case 5:
				h = append(h, model.Commit(p))
				c.val[slot]++
				c.txns++
				done++
			}
			c.step = (c.step + 1) % 6
		}
	}
	return h
}

// TestAllocBudgetPerCheckedCommit pins what the live checker allocates
// per committed transaction once its scratch is warm, on the shapes
// the benchmark's checker-bound workloads have: one transaction per
// segment, which is checked in place, two processes with a quiescent
// cut after every round, and five that never quiesce, so every 49th
// commit forces a frontier. Transactions are assembled in window
// entries that keep their storage, and a forced frontier carries the
// open ones by swapping entries, so no shape allocates at all: a
// one-transaction check that allocates, a search that allocates per
// segment, per transaction or per node, or a frontier that allocates
// per carried process, fails here without a run of bench/.
func TestAllocBudgetPerCheckedCommit(t *testing.T) {
	const (
		runs         = 40
		commitsPer   = 98 // per measured call: an even number of rounds, two forced windows
		eventsPerTxn = 6
	)
	for _, tc := range []struct {
		name      string
		procs     int
		staggered bool
		budget    float64
	}{
		{"one process, a cut per transaction", 1, false, 0},
		{"two processes, a cut per round", 2, false, 0.1},
		{"five processes, cut-starved", 5, true, 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := updateStream(tc.procs, (runs+3)*commitsPer, tc.staggered)
			c, err := NewStreamChecker(48)
			if err != nil {
				t.Fatal(err)
			}
			c.WithApproxFallback()
			at := 0
			feed := func() {
				for _, e := range h[at : at+commitsPer*eventsPerTxn] {
					if err := c.Feed(e); err != nil {
						t.Fatal(err)
					}
				}
				at += commitsPer * eventsPerTxn
			}
			feed() // warm the window, the slots and the kernel
			got := testing.AllocsPerRun(runs, feed) / commitsPer
			t.Logf("%.3f allocs per checked commit (%d segments, %d forced)", got, c.Segments(), c.ForcedCuts())
			if got > tc.budget {
				t.Errorf("%.3f allocs per checked commit, budget %.2f", got, tc.budget)
			}
			if tc.staggered != (c.ForcedCuts() > 0) {
				t.Errorf("%d forced frontiers: the stream does not have the shape this case is for", c.ForcedCuts())
			}
		})
	}
}
