package client

import (
	"context"
	"testing"

	"livetm/internal/alloctest"
	"livetm/internal/server"
)

// TestAllocBudgetPerWireExec pins what one Exec round trip over
// loopback costs the whole process: the client's frame and request,
// net/http's transport and server connection, the handler's admission
// and codec, and the session's commit. Mallocs are counted process-wide,
// so the server's goroutines are in the count.
//
// About 78 of those are made per call at this writing, most of them by
// net/http on both sides (see ROADMAP item 4). The budget is that count
// plus a margin of 4: the server's connection goroutine finishes a
// request (and parks for the next one) concurrently with the client's
// return, so a few of its allocations land in one call or the next
// depending on the schedule, and one AllocsPerRun average moves by a
// count or two between runs and processor counts. The margin stays
// under the 93 that going through http.Client cost.
func TestAllocBudgetPerWireExec(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	const budget = 82
	_, url := startServer(t, server.Config{})
	c := New(Config{Addr: url, Name: "budget"})
	ctx := context.Background()
	ops := []server.Op{{Kind: server.OpRead, Var: 0}, {Kind: server.OpIncr, Var: 1, Val: 1}}
	exec := func() {
		res, err := c.Exec(ctx, 0, ops)
		if err != nil || !res.Committed || len(res.Reads) != len(ops) {
			t.Fatalf("exec = %+v, %v", res, err)
		}
	}
	for i := 0; i < 200; i++ { // the connection, the pools, the handler's scratch
		exec()
	}
	got := testing.AllocsPerRun(2000, exec)
	t.Logf("%.0f allocations per Exec round trip", got)
	if got > budget {
		t.Errorf("%.0f allocations per Exec round trip, budget %d", got, budget)
	}
}
