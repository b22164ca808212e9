package main

import (
	"context"
	"testing"
	"time"

	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/server"
)

// TestRemoteDrainGetsItsReply runs serve's shutdown sequence after a
// remote drain 200 times: the wire server behind listenHTTP, a client's
// POST /v1/drain, then what serve's loop does once the server is Done —
// drain again (which returns the remote drain's outcome) and stop the
// listener. The server closes Done before the drain handler writes its
// reply, so a listener that is closed instead of shut down loses that
// reply (EOF) whenever the loop wins the race, which it does a few
// times in 200 on two or more processors.
func TestRemoteDrainGetsItsReply(t *testing.T) {
	const runs = 200
	failed := 0
	for i := range runs {
		// serve -listen's session: live, 4 workers.
		s, err := engine.Open(engine.SessionConfig{Engine: "native-tl2", Workers: 4, Vars: 8, Live: true})
		if err != nil {
			t.Fatal(err)
		}
		wsrv := server.New(s, server.Config{})
		addr, stop, err := listenHTTP("127.0.0.1:0", wsrv.Handler())
		if err != nil {
			_, _ = s.Close()
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		replied := make(chan error, 1)
		go func() {
			_, err := client.New(client.Config{Addr: addr.String()}).Drain(ctx)
			replied <- err
		}()
		<-wsrv.Done()
		if _, err := wsrv.Drain(ctx); err != nil {
			t.Errorf("run %d: local drain after the remote one: %v", i, err)
		}
		stop()
		if err := <-replied; err != nil {
			if failed == 0 {
				t.Errorf("run %d: remote drain: %v", i, err)
			}
			failed++
		}
		cancel()
	}
	if failed > 0 {
		t.Errorf("%d of %d remote drains lost their reply", failed, runs)
	}
}
