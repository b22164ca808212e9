// Package client is the Go client of the livetm wire API: the
// engine's submission surface (blocking programs and interactive
// transactions) reconstructed over HTTP against
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
	"net/url"
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
	// HTTPClient supplies the transport. Only two of its fields are
	// honoured: Transport (nil means http.DefaultTransport) and
	// Timeout, which bounds each call from sending the request to
	// reading the reply. Redirects and cookies never occur on this
	// API, so CheckRedirect and Jar go unused. The Transport is handed
	// read-only requests that share their headers and URL with other
	// calls; as http.RoundTripper requires, it must not modify them.
	// nil uses a transport of the client's own: a clone of
	// http.DefaultTransport that keeps up to 256 idle connections to
	// the server instead of 2.
	HTTPClient *http.Client
}

// idlePerHost is how many idle connections a client built without an
// HTTPClient keeps to its server: `livetm serve`'s default admission
// cap, so every caller the server would admit at once can keep its
// connection. http.DefaultTransport keeps 2.
const idlePerHost = 256

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
	urls    map[string]*url.URL // endpoint path → URL, parsed once
	addrErr error               // why Addr does not parse, returned by every call
	get     http.Header         // the headers of a GET, read-only
	post    http.Header         // the headers of a POST, read-only
	rt      http.RoundTripper
	timeout time.Duration
}

// endpoints are the wire API's paths.
var endpoints = []string{
	"/v1/exec", "/v1/tx/begin", "/v1/tx/op", "/v1/tx/finish",
	"/v1/info", "/v1/stats", "/v1/drain",
}

// New builds a client for the server at cfg.Addr.
func New(cfg Config) *Client {
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	c := &Client{urls: make(map[string]*url.URL, len(endpoints))}
	for _, path := range endpoints {
		u, err := url.Parse(base + path)
		if err != nil {
			c.addrErr = err
			break
		}
		c.urls[path] = u
	}
	if hc := cfg.HTTPClient; hc != nil {
		c.rt, c.timeout = hc.Transport, hc.Timeout
		if c.rt == nil {
			c.rt = http.DefaultTransport
		}
	} else {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns, t.MaxIdleConnsPerHost = idlePerHost, idlePerHost
		c.rt = t
	}
	c.get, c.post = headers(cfg.Name)
	return c
}

// headers builds the request headers a client named name sends. The
// client asks for an uncompressed reply, which is what the server
// sends; left to itself the transport would negotiate gzip. The empty
// User-Agent keeps the transport from writing its own, a line the
// server would parse and never read.
func headers(name string) (get, post http.Header) {
	get = http.Header{"Accept-Encoding": {"identity"}, "User-Agent": {""}}
	if name != "" {
		get[server.ClientHeader] = []string{name}
	}
	post = get.Clone()
	post["Content-Type"] = []string{server.JSONCodec{}.ContentType()}
	return get, post
}

// WithName returns a client identical to c but presenting name as its
// wire identity (X-Livetm-Client). The transport and connection pool
// are shared, so fanning one physical client out into many admission
// identities — the loadgen's client-churn mode — costs nothing per
// name.
func (c *Client) WithName(name string) *Client {
	cc := *c
	cc.get, cc.post = headers(name)
	return &cc
}

// frameRoom is how many bytes of a request frame a call holds inline;
// only a longer frame allocates its bytes. It is sized from the frames
// of the wire-mixed benchmark, whose largest, eight reads on 32
// variables, is 221 bytes.
const frameRoom = 256

// body is a POST's request frame: its bytes, in room when they fit, and
// the reader the transport takes them from.
type body struct {
	frame []byte
	r     bytes.Reader
	room  [frameRoom]byte
}

// call is everything one POST needs, in one allocation per call: both
// frames and the request's body. It is never pooled: the transport may
// still be writing the body after RoundTrip has returned, and the reply
// frame may hand its caller storage inside it (an Exec's Reads).
type call[In, Out any] struct {
	in   In
	out  Out
	body body
}

// post sends the call's request frame to path and decodes the reply
// into its reply frame.
func (f *call[In, Out]) post(ctx context.Context, c *Client, path string) error {
	frame, err := server.JSONCodec{}.AppendEncode(f.body.room[:0], &f.in)
	if err != nil {
		return fmt.Errorf("client: encode %s: %w", path, err)
	}
	f.body.frame = frame
	f.body.r.Reset(frame)
	return c.do(ctx, http.MethodPost, path, &f.body, &f.out)
}

// do sends one request and decodes the reply into out, a pointer to a
// frame; non-2xx replies decode into *Error. A nil body makes a GET.
// The request goes straight to the transport, since this API never
// redirects and sets no cookies. Its URL and headers are the client's
// own, shared by every call.
func (c *Client) do(ctx context.Context, method, path string, b *body, out any) error {
	if c.addrErr != nil {
		return fmt.Errorf("client: %s: %w", path, c.addrErr)
	}
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req := http.Request{Method: method, URL: c.urls[path], Header: c.get}
	if b != nil {
		// net/http takes io.NopCloser over a *bytes.Reader for a body in
		// memory, and writes it with the headers in one write; a body
		// of any other type has the headers flushed on their own first.
		// GetBody lets the transport resend the frame when a kept-alive
		// connection turns out dead before any of it was written.
		req.Header, req.Body, req.ContentLength = c.post, io.NopCloser(&b.r), int64(len(b.frame))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(b.frame)), nil }
	}
	resp, err := c.rt.RoundTrip(req.WithContext(ctx))
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var er server.ErrorResponse
		if derr := (server.JSONCodec{}).Decode(resp.Body, &er); derr != nil || er.Code == "" {
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
		if err := (server.JSONCodec{}).Decode(resp.Body, out); err != nil {
			return fmt.Errorf("client: decode %s: %w", path, err)
		}
	}
	return nil
}

// post sends one request frame and decodes the reply.
func post[Out, In any](ctx context.Context, c *Client, path string, in In) (Out, error) {
	f := &call[In, Out]{in: in}
	err := f.post(ctx, c, path)
	return f.out, err
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

// execReads is how many read values an Exec's reply holds inline.
const execReads = 8

// Exec runs one transaction program to completion on worker
// (engine.AnyWorker for the shared lane) and returns its result. Reads
// of up to execReads values live in the call's own allocation.
func (c *Client) Exec(ctx context.Context, worker int, ops []server.Op) (server.ExecResponse, error) {
	f := &struct {
		call[server.ExecRequest, server.ExecResponse]
		reads [execReads]int64
	}{}
	f.in = server.ExecRequest{Worker: worker, Ops: ops}
	f.out.Reads = f.reads[:0]
	err := f.post(ctx, c, "/v1/exec")
	if len(f.out.Reads) == 0 {
		f.out.Reads = nil // a reply without reads, as it decodes on its own
	}
	return f.out, err
}

// Drain asks the server to gracefully drain and close its session,
// returning the final monitor report and closing stats.
func (c *Client) Drain(ctx context.Context) (server.DrainResponse, error) {
	return post[server.DrainResponse](ctx, c, "/v1/drain", struct{}{})
}

// Begin opens an interactive transaction pinned to worker. The
// returned Tx spans attempts: an aborted op leaves the transaction
// open (the engine's retry loop re-entered the body) and the next op
// simply lands on the fresh attempt.
func (c *Client) Begin(ctx context.Context, worker int) (*Tx, error) {
	out, err := post[server.BeginResponse](ctx, c, "/v1/tx/begin", server.BeginRequest{Worker: worker})
	if err != nil {
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
	out, err := post[server.TxOpResponse](ctx, t.c, "/v1/tx/op",
		server.TxOpRequest{Txn: t.id, Op: server.Op{Kind: server.OpRead, Var: i}})
	return out.Val, out.Aborted, err
}

// Write writes v into variable i; aborted as for Read.
func (t *Tx) Write(ctx context.Context, i int, v int64) (aborted bool, err error) {
	out, err := post[server.TxOpResponse](ctx, t.c, "/v1/tx/op",
		server.TxOpRequest{Txn: t.id, Op: server.Op{Kind: server.OpWrite, Var: i, Val: v}})
	return out.Aborted, err
}

// Finish ends the transaction with the given mode (server.FinishCommit,
// FinishNoCommit, or FinishAbandon) and returns the wire verdict.
// resp.Retrying means a commit attempt aborted and the transaction is
// still open — keep issuing ops or finish again.
func (t *Tx) Finish(ctx context.Context, mode string) (server.TxFinishResponse, error) {
	return post[server.TxFinishResponse](ctx, t.c, "/v1/tx/finish", server.TxFinishRequest{Txn: t.id, Mode: mode})
}

// Abandon is Finish(FinishAbandon); it never leaves the transaction
// open.
func (t *Tx) Abandon(ctx context.Context) error {
	_, err := t.Finish(ctx, server.FinishAbandon)
	return err
}
