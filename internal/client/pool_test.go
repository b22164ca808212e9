package client

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livetm/internal/engine"
	"livetm/internal/server"
)

// A client built without an HTTPClient keeps a connection per caller
// in its own pool, so callers fanned out of one client — loadgen's
// drivers, `livetm client -clients N` — reuse their connections
// instead of re-dialing whenever more than a couple are in flight.
//
// The callers go in rounds, whatever the schedule: the handler holds
// each request until every caller has one in flight, and a caller
// starts its next call only when every caller is done with its last,
// so all the connections are idle at once. The first round dials a
// connection per caller; a pool that keeps them all dials no more.
// (Left to run freely, callers could finish a call while another's
// dial is still pending, and the transport would pool the spare
// connection it dialed as well.)
func TestDefaultClientPoolsItsConnections(t *testing.T) {
	const callers, calls = 8, 200
	sess, err := engine.Open(engine.SessionConfig{Engine: "native-tl2", Workers: 2, Vars: 4})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	srv := server.New(sess, server.Config{Info: server.InfoResponse{Engine: sess.Name(), Workers: 2, Vars: 4}})
	var dials atomic.Int64
	inFlight, done := newBarrier(callers), newBarrier(callers)
	ctx, stop := context.WithCancel(context.Background()) // a failed caller stops the rounds
	defer stop()
	h := srv.Handler()
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.wait(ctx)
		h.ServeHTTP(w, r)
	}))
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	}()

	c := New(Config{Addr: hs.URL, Name: "pool"})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := c.Exec(ctx, engine.AnyWorker, []server.Op{{Kind: server.OpIncr, Var: 0, Val: 1}}); err != nil {
					errs <- err
					stop()
					return
				}
				done.wait(ctx)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("exec: %v", err)
	}
	if n := dials.Load(); n > callers {
		t.Errorf("%d callers opened %d connections, want at most one each", callers, n)
	}
}

// barrier releases its waiters n at a time, or all of them once ctx
// is done.
type barrier struct {
	mu      sync.Mutex
	n, in   int
	release chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, release: make(chan struct{})} }

func (b *barrier) wait(ctx context.Context) {
	b.mu.Lock()
	ch := b.release
	if b.in++; b.in == b.n {
		close(ch)
		b.in, b.release = 0, make(chan struct{})
	}
	b.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
	}
}
