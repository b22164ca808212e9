// Package client is the Go client of the livetm wire API: the
// engine's submission surface (programs, async submissions, and
// interactive transactions) reconstructed over HTTP against
// internal/server. Errors cross the wire as stable codes and come
// back as *Error values wrapping the original engine sentinels, so
// errors.Is(err, engine.ErrOverloaded) holds on the client exactly as
// it does next to the session.
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"livetm/internal/engine"
	"livetm/internal/server"
)

// Config parameterizes a Client.
type Config struct {
	// Addr is the server's base address ("host:port" or a full
	// "http://..." URL).
	Addr string
	// Name is the client identity sent as the X-Livetm-Client header;
	// the server's admission controller accounts fairness against it.
	// Empty falls back to the connection's remote address, which
	// lumps every client behind one NAT together — set it.
	Name string
	// Codec frames the wire bodies; nil defaults to server.JSONCodec.
	// Must match the server's codec.
	Codec server.Codec
	// HTTPClient overrides the transport; nil uses a dedicated
	// client with its own connection pool.
	HTTPClient *http.Client
}

// Error is a wire error decoded back into Go: the stable code, the
// server's message, and the Retry-After hint on overload refusals.
// Unwrap yields the engine sentinel the code encodes, so errors.Is
// against engine.ErrOverloaded, engine.ErrClosed, etc. works across
// the wire.
type Error struct {
	Code       string
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("livetm server: %s (%s)", e.Message, e.Code)
}

// Unwrap maps the wire code back onto its engine sentinel (nil for
// codes with no engine counterpart, e.g. bad-request).
func (e *Error) Unwrap() error { return server.SentinelOf(e.Code) }

// Client talks the wire API v1. Safe for concurrent use.
type Client struct {
	urls  map[string]string // endpoint path → URL, built once
	name  string
	codec server.Codec
	hc    *http.Client
}

// endpoints are the wire API's paths.
var endpoints = []string{
	"/v1/exec", "/v1/submit", "/v1/wait", "/v1/tx/begin", "/v1/tx/op", "/v1/tx/finish",
	"/v1/info", "/v1/stats", "/v1/drain",
}

// New builds a client for the server at cfg.Addr.
func New(cfg Config) *Client {
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	codec := cfg.Codec
	if codec == nil {
		codec = server.JSONCodec{}
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	urls := make(map[string]string, len(endpoints))
	for _, path := range endpoints {
		urls[path] = base + path
	}
	return &Client{urls: urls, name: cfg.Name, codec: codec, hc: hc}
}

// WithName returns a client identical to c but presenting name as its
// wire identity (X-Livetm-Client). The transport and connection pool
// are shared, so fanning one physical client out into many admission
// identities — the loadgen's client-churn mode — costs nothing per
// name.
func (c *Client) WithName(name string) *Client {
	cc := *c
	cc.name = name
	return &cc
}

// do posts one frame and decodes the reply; non-2xx replies decode
// into *Error. in and out are pointers to frames. The request body is
// allocated per call and never pooled: the transport may still be
// writing it after Do has returned.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		var buf bytes.Buffer
		if err := c.codec.Encode(&buf, in); err != nil {
			return fmt.Errorf("client: encode %s: %w", path, err)
		}
		body = &buf
	}
	req, err := http.NewRequestWithContext(ctx, method, c.urls[path], body)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", c.codec.ContentType())
	}
	if c.name != "" {
		req.Header.Set(server.ClientHeader, c.name)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var er server.ErrorResponse
		if derr := c.codec.Decode(resp.Body, &er); derr != nil || er.Code == "" {
			return &Error{Code: server.CodeInternal,
				Message: fmt.Sprintf("%s: http %d", path, resp.StatusCode)}
		}
		return &Error{
			Code:       er.Code,
			Message:    er.Error,
			RetryAfter: time.Duration(er.RetryAfterMS) * time.Millisecond,
		}
	}
	if out != nil {
		if err := c.codec.Decode(resp.Body, out); err != nil {
			return fmt.Errorf("client: decode %s: %w", path, err)
		}
	}
	return nil
}

// Info fetches the serving session's shape.
func (c *Client) Info(ctx context.Context) (server.InfoResponse, error) {
	var out server.InfoResponse
	err := c.do(ctx, http.MethodGet, "/v1/info", nil, &out)
	return out, err
}

// Stats snapshots the session counters.
func (c *Client) Stats(ctx context.Context) (engine.SessionStats, error) {
	var out engine.SessionStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Exec runs one transaction program to completion on worker
// (engine.AnyWorker for the shared lane) and returns its result.
func (c *Client) Exec(ctx context.Context, worker int, ops []server.Op) (server.ExecResponse, error) {
	var out server.ExecResponse
	err := c.do(ctx, http.MethodPost, "/v1/exec", &server.ExecRequest{Worker: worker, Ops: ops}, &out)
	return out, err
}

// Submit enqueues a program asynchronously; the id redeems the result
// through Wait.
func (c *Client) Submit(ctx context.Context, worker int, ops []server.Op) (string, error) {
	var out server.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/submit", &server.ExecRequest{Worker: worker, Ops: ops}, &out)
	return out.ID, err
}

// Wait blocks for an async submission's result; the result is
// consumed (a second Wait on the same id is not-found).
func (c *Client) Wait(ctx context.Context, id string) (server.ExecResponse, error) {
	var out server.ExecResponse
	err := c.do(ctx, http.MethodPost, "/v1/wait", &server.WaitRequest{ID: id}, &out)
	return out, err
}

// Drain asks the server to gracefully drain and close its session,
// returning the final monitor report and closing stats.
func (c *Client) Drain(ctx context.Context) (server.DrainResponse, error) {
	var out server.DrainResponse
	err := c.do(ctx, http.MethodPost, "/v1/drain", &struct{}{}, &out)
	return out, err
}

// Begin opens an interactive transaction pinned to worker. The
// returned Tx spans attempts: an aborted op leaves the transaction
// open (the engine's retry loop re-entered the body) and the next op
// simply lands on the fresh attempt.
func (c *Client) Begin(ctx context.Context, worker int) (*Tx, error) {
	var out server.BeginResponse
	if err := c.do(ctx, http.MethodPost, "/v1/tx/begin", &server.BeginRequest{Worker: worker}, &out); err != nil {
		return nil, err
	}
	return &Tx{c: c, id: out.Txn}, nil
}

// Tx is an open interactive transaction.
type Tx struct {
	c  *Client
	id string
}

// Read reads variable i. aborted reports that this attempt aborted on
// the read — the transaction is still open, retrying.
func (t *Tx) Read(ctx context.Context, i int) (val int64, aborted bool, err error) {
	var out server.TxOpResponse
	err = t.c.do(ctx, http.MethodPost, "/v1/tx/op",
		&server.TxOpRequest{Txn: t.id, Op: server.Op{Kind: server.OpRead, Var: i}}, &out)
	return out.Val, out.Aborted, err
}

// Write writes v into variable i; aborted as for Read.
func (t *Tx) Write(ctx context.Context, i int, v int64) (aborted bool, err error) {
	var out server.TxOpResponse
	err = t.c.do(ctx, http.MethodPost, "/v1/tx/op",
		&server.TxOpRequest{Txn: t.id, Op: server.Op{Kind: server.OpWrite, Var: i, Val: v}}, &out)
	return out.Aborted, err
}

// Finish ends the transaction with the given mode (server.FinishCommit,
// FinishNoCommit, or FinishAbandon) and returns the wire verdict.
// resp.Retrying means a commit attempt aborted and the transaction is
// still open — keep issuing ops or finish again.
func (t *Tx) Finish(ctx context.Context, mode string) (server.TxFinishResponse, error) {
	var out server.TxFinishResponse
	err := t.c.do(ctx, http.MethodPost, "/v1/tx/finish",
		&server.TxFinishRequest{Txn: t.id, Mode: mode}, &out)
	return out, err
}

// Abandon is Finish(FinishAbandon); it never leaves the transaction
// open.
func (t *Tx) Abandon(ctx context.Context) error {
	_, err := t.Finish(ctx, server.FinishAbandon)
	return err
}
