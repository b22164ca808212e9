package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"livetm/internal/engine"
	"livetm/internal/server"
)

func startServer(t *testing.T, scfg server.Config) (*server.Server, string) {
	t.Helper()
	sess, err := engine.Open(engine.SessionConfig{
		Engine: "native-tl2", Workers: 2, Vars: 4,
	})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	if scfg.Info == (server.InfoResponse{}) {
		scfg.Info = server.InfoResponse{Engine: sess.Name(), Workers: 2, Vars: 4}
	}
	srv := server.New(sess, scfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	})
	return srv, hs.URL
}

func TestClientExecAndInteractive(t *testing.T) {
	_, url := startServer(t, server.Config{})
	c := New(Config{Addr: url, Name: "t1"})
	ctx := context.Background()

	info, err := c.Info(ctx)
	if err != nil || info.Workers != 2 {
		t.Fatalf("info = %+v, %v", info, err)
	}

	res, err := c.Exec(ctx, engine.AnyWorker, []server.Op{
		{Kind: server.OpWrite, Var: 0, Val: 5},
		{Kind: server.OpIncr, Var: 0, Val: 2},
	})
	if err != nil || !res.Committed {
		t.Fatalf("exec = %+v, %v", res, err)
	}

	tx, err := c.Begin(ctx, 1)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := tx.Write(ctx, 1, 9); err != nil {
		t.Fatalf("tx write: %v", err)
	}
	v, aborted, err := tx.Read(ctx, 1)
	if err != nil || aborted || v != 9 {
		t.Fatalf("tx read = %d aborted=%v err=%v", v, aborted, err)
	}
	fin, err := tx.Commit(ctx)
	if err != nil || !fin.Committed {
		t.Fatalf("tx commit = %+v, %v", fin, err)
	}

	stats, err := c.Stats(ctx)
	if err != nil || stats.Submitted == 0 {
		t.Fatalf("stats = %+v, %v", stats, err)
	}
}

// TestErrorRoundTrip drives the engine sentinels across the wire and
// back: a refusal raised next to the session surfaces on the client
// as an error for which errors.Is against the same sentinel holds.
func TestErrorRoundTrip(t *testing.T) {
	_, url := startServer(t, server.Config{MaxInflight: 1, RetryAfter: 120 * time.Millisecond})
	c := New(Config{Addr: url, Name: "rt"})
	ctx := context.Background()

	// Occupy the only admission slot with a parked interactive
	// transaction, then overload.
	tx, err := c.Begin(ctx, 0)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	_, err = c.Exec(ctx, engine.AnyWorker, []server.Op{{Kind: server.OpRead, Var: 0}})
	if !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("overloaded exec err = %v, want errors.Is ErrOverloaded", err)
	}
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("err %T does not unwrap to *client.Error", err)
	}
	if we.Code != server.CodeOverloaded {
		t.Fatalf("wire code = %q", we.Code)
	}
	if we.RetryAfter != 120*time.Millisecond {
		t.Fatalf("retry-after = %v, want 120ms", we.RetryAfter)
	}

	if err := tx.Abandon(ctx); err != nil {
		t.Fatalf("abandon: %v", err)
	}

	// Bad requests carry no sentinel but keep their code.
	_, err = c.Exec(ctx, engine.AnyWorker, nil)
	var be *Error
	if !errors.As(err, &be) || be.Code != server.CodeBadRequest {
		t.Fatalf("bad-request err = %v", err)
	}

	// Drain, then every submission path reports ErrClosed.
	if _, err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err = c.Exec(ctx, engine.AnyWorker, []server.Op{{Kind: server.OpRead, Var: 0}})
	if !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("post-drain exec err = %v, want errors.Is ErrClosed", err)
	}
	if _, err := c.Begin(ctx, 0); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("post-drain begin err = %v, want errors.Is ErrClosed", err)
	}
}

// TestEngineOverloadCrossesWire exercises the engine-level MaxQueue
// cap: the session itself refuses an interactive transaction whose lane
// is full (Begin meets the same cap as ExecOn) and the sentinel still
// reaches the client.
func TestEngineOverloadCrossesWire(t *testing.T) {
	sess, err := engine.Open(engine.SessionConfig{
		Engine: "native-tl2", Workers: 1, Vars: 1, MaxQueue: 1,
	})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	srv := server.New(sess, server.Config{Info: server.InfoResponse{Engine: sess.Name(), Workers: 1, Vars: 1}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	}()
	c := New(Config{Addr: hs.URL, Name: "mq"})
	ctx := context.Background()

	// Park the only worker in an interactive transaction so queued
	// ones pile up behind it, then begin more until the engine's
	// MaxQueue refuses one.
	tx, err := c.Begin(ctx, 0)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	overloaded := false
	for i := 0; i < 10; i++ {
		_, err := c.Begin(ctx, engine.AnyWorker)
		if errors.Is(err, engine.ErrOverloaded) {
			overloaded = true
			break
		}
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
	}
	if !overloaded {
		t.Fatalf("MaxQueue=1 never refused a queued transaction")
	}
	if err := tx.Abandon(ctx); err != nil {
		t.Fatalf("abandon: %v", err)
	}
}

// The Reads a caller is handed are its own: neither the server's
// scratch nor the codec's buffers are behind them, so later replies —
// here a few hundred over the same connection — leave them alone.
func TestReadsBelongToTheCaller(t *testing.T) {
	_, url := startServer(t, server.Config{})
	c := New(Config{Addr: url, Name: "reads"})
	ctx := context.Background()
	program := func(v int64) []server.Op {
		return []server.Op{{Kind: server.OpWrite, Var: 0, Val: v}, {Kind: server.OpRead, Var: 0}, {Kind: server.OpIncr, Var: 0, Val: 1}}
	}
	first, err := c.Exec(ctx, 0, program(1000))
	if err != nil || !slices.Equal(first.Reads, []int64{1000, 1000}) {
		t.Fatalf("first exec = %+v, %v", first, err)
	}
	for i := int64(0); i < 300; i++ {
		res, err := c.Exec(ctx, 0, program(i))
		if err != nil || !slices.Equal(res.Reads, []int64{i, i}) {
			t.Fatalf("exec %d = %+v, %v", i, res, err)
		}
		if &res.Reads[0] == &first.Reads[0] {
			t.Fatalf("exec %d was handed the first reply's storage", i)
		}
	}
	if !slices.Equal(first.Reads, []int64{1000, 1000}) {
		t.Fatalf("the first reply's reads changed under its caller: %v", first.Reads)
	}
}

// Commit is Finish(FinishCommit).
func (t *Tx) Commit(ctx context.Context) (server.TxFinishResponse, error) {
	return t.Finish(ctx, server.FinishCommit)
}
