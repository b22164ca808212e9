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
// About 72 of those are made per call at this writing. A
// -memprofilerate=1 profile of this test splits them, per call, as:
//   - the client's own, 4: the call's one block (both frames, the
//     request frame's bytes and its reader, the reply's Reads),
//     io.NopCloser's wrapper, the GetBody closure and the request that
//     WithContext copies;
//   - net/http's transport, 39: 18 on the caller's goroutine, 15 in the
//     connection's read loop and 5.5 in its write loop;
//   - the server side, 26: 19 in net/http's connection (the request,
//     its header lines, its context, the response), 1 in its background
//     read, and 6 under the handler, all of them net/http's too: the
//     response's header map and writes (4), the body read behind the
//     codec's bounded read (1), and the request context's done channel
//     the session waits on (1).
//
// The profile places about 69 per call; AllocsPerRun, which reads the
// runtime's malloc counter, counts 72. The budget is that count plus a
// margin of 4: the server's connection goroutine finishes a request
// (and parks for the next one) concurrently with the client's return,
// so a few of its allocations land in one call or the next depending
// on the schedule, and one AllocsPerRun average moves by a count or two
// between runs and processor counts.
func TestAllocBudgetPerWireExec(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	const budget = 76
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
