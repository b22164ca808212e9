package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livetm/internal/engine"
	"livetm/internal/server"
)

// seenRequest is what a recording handler keeps of one request.
type seenRequest struct {
	method, path string
	header       http.Header
}

// recordingServer answers every request with an empty frame, which
// decodes into every reply, and keeps what each request carried.
func recordingServer(t *testing.T) (url string, seen func() []seenRequest) {
	t.Helper()
	var mu sync.Mutex
	var reqs []seenRequest
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs = append(reqs, seenRequest{r.Method, r.URL.Path, r.Header.Clone()})
		mu.Unlock()
		w.Header().Set("Content-Type", server.JSONCodec{}.ContentType())
		_, _ = w.Write([]byte("{}\n"))
	}))
	t.Cleanup(hs.Close)
	return hs.URL, func() []seenRequest {
		mu.Lock()
		defer mu.Unlock()
		out := reqs
		reqs = nil
		return out
	}
}

// wireCalls is one call per endpoint of the wire API.
var wireCalls = []struct {
	name, method, path string
	call               func(context.Context, *Client) error
}{
	{"info", http.MethodGet, "/v1/info", func(ctx context.Context, c *Client) error { _, err := c.Info(ctx); return err }},
	{"stats", http.MethodGet, "/v1/stats", func(ctx context.Context, c *Client) error { _, err := c.Stats(ctx); return err }},
	{"exec", http.MethodPost, "/v1/exec", func(ctx context.Context, c *Client) error {
		_, err := c.Exec(ctx, engine.AnyWorker, []server.Op{{Kind: server.OpRead}})
		return err
	}},
	{"begin", http.MethodPost, "/v1/tx/begin", func(ctx context.Context, c *Client) error { _, err := c.Begin(ctx, 0); return err }},
	{"tx read", http.MethodPost, "/v1/tx/op", func(ctx context.Context, c *Client) error {
		_, _, err := (&Tx{c: c, id: "t1"}).Read(ctx, 0)
		return err
	}},
	{"tx write", http.MethodPost, "/v1/tx/op", func(ctx context.Context, c *Client) error {
		_, err := (&Tx{c: c, id: "t1"}).Write(ctx, 0, 1)
		return err
	}},
	{"tx finish", http.MethodPost, "/v1/tx/finish", func(ctx context.Context, c *Client) error {
		_, err := (&Tx{c: c, id: "t1"}).Commit(ctx)
		return err
	}},
	{"drain", http.MethodPost, "/v1/drain", func(ctx context.Context, c *Client) error { _, err := c.Drain(ctx); return err }},
}

// TestWireRequestHeaders holds every endpoint's request to the headers
// the server reads: a body's content type on a POST and none on a GET,
// the identity the client was named with (none when it has no name),
// and an uncompressed reply; and no User-Agent, which it does not read.
func TestWireRequestHeaders(t *testing.T) {
	url, seen := recordingServer(t)
	for _, name := range []string{"alice", ""} {
		c := New(Config{Addr: url, Name: name})
		for _, wc := range wireCalls {
			t.Run(wc.name+"/name="+name, func(t *testing.T) {
				if err := wc.call(context.Background(), c); err != nil {
					t.Fatalf("call: %v", err)
				}
				reqs := seen()
				if len(reqs) != 1 {
					t.Fatalf("%d requests reached the server, want 1", len(reqs))
				}
				r := reqs[0]
				if r.method != wc.method || r.path != wc.path {
					t.Errorf("request %s %s, want %s %s", r.method, r.path, wc.method, wc.path)
				}
				ct, hasCT := r.header["Content-Type"]
				switch {
				case wc.method == http.MethodPost && (len(ct) != 1 || ct[0] != server.JSONCodec{}.ContentType()):
					t.Errorf("POST Content-Type %q, want %q", ct, server.JSONCodec{}.ContentType())
				case wc.method == http.MethodGet && hasCT:
					t.Errorf("GET carries Content-Type %q", ct)
				}
				id, hasID := r.header[server.ClientHeader]
				switch {
				case name == "" && hasID:
					t.Errorf("a client without a name sent identity %q", id)
				case name != "" && (len(id) != 1 || id[0] != name):
					t.Errorf("identity %q, want %q", id, name)
				}
				if ae := r.header.Values("Accept-Encoding"); strings.Contains(strings.Join(ae, ","), "gzip") {
					t.Errorf("request asks for gzip: Accept-Encoding %q", ae)
				}
				if ua, ok := r.header["User-Agent"]; ok {
					t.Errorf("request carries User-Agent %q, which the server never reads", ua)
				}
			})
		}
	}
}

// WithName presents its own identity and leaves its parent's, which
// shares its transport, as it was.
func TestWithNameKeepsTheParentsHeaders(t *testing.T) {
	url, seen := recordingServer(t)
	parent := New(Config{Addr: url, Name: "parent"})
	get, post := parent.get.Clone(), parent.post.Clone()
	child := parent.WithName("child")
	for _, tc := range []struct {
		c    *Client
		want string
	}{{child, "child"}, {parent, "parent"}, {parent.WithName(""), ""}} {
		for _, wc := range wireCalls[:3] { // a GET and a POST
			if err := wc.call(context.Background(), tc.c); err != nil {
				t.Fatalf("%s as %q: %v", wc.name, tc.want, err)
			}
			if got := seen()[0].header.Get(server.ClientHeader); got != tc.want {
				t.Errorf("%s as %q sent identity %q", wc.name, tc.want, got)
			}
		}
	}
	if !maps.EqualFunc(parent.get, get, slices.Equal) || !maps.EqualFunc(parent.post, post, slices.Equal) {
		t.Errorf("the parent's headers changed: GET %v, POST %v; were %v, %v", parent.get, parent.post, get, post)
	}
	if child.rt != parent.rt {
		t.Errorf("WithName built a transport of its own")
	}
}

// countingTransport decorates a transport the way bench's tracer does:
// it counts each call and stamps a header of its own on a copy of the
// request, leaving the client's shared request alone.
type countingTransport struct {
	next  http.RoundTripper
	calls atomic.Int64
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.calls.Add(1)
	r2 := req.Clone(req.Context())
	r2.Header.Set("X-Decorated", "yes")
	return ct.next.RoundTrip(r2)
}

// The HTTPClient a Config names supplies the transport; nil, or one
// without a Transport, falls back to a working one.
func TestHTTPClientTransport(t *testing.T) {
	url, seen := recordingServer(t)
	decorated := &countingTransport{next: &http.Transport{}}
	defer decorated.next.(*http.Transport).CloseIdleConnections()
	for _, tc := range []struct {
		name      string
		hc        *http.Client
		decorated bool
	}{
		{"nil HTTPClient", nil, false},
		{"HTTPClient without a Transport", &http.Client{}, false},
		{"decorating Transport", &http.Client{Transport: decorated}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Addr: url, Name: "tr", HTTPClient: tc.hc})
			before := decorated.calls.Load()
			for _, wc := range wireCalls {
				if err := wc.call(context.Background(), c); err != nil {
					t.Fatalf("%s: %v", wc.name, err)
				}
			}
			reqs := seen()
			if len(reqs) != len(wireCalls) {
				t.Fatalf("%d requests reached the server for %d calls", len(reqs), len(wireCalls))
			}
			calls := decorated.calls.Load() - before
			stamped := 0
			for _, r := range reqs {
				if r.header.Get("X-Decorated") != "" {
					stamped++
				}
			}
			switch {
			case tc.decorated && (calls != int64(len(wireCalls)) || stamped != len(wireCalls)):
				t.Errorf("the decorator saw %d and stamped %d of %d calls", calls, stamped, len(wireCalls))
			case !tc.decorated && (calls != 0 || stamped != 0):
				t.Errorf("a client without the decorator went through it: %d calls, %d stamped", calls, stamped)
			}
			if _, ok := c.post["X-Decorated"]; ok {
				t.Errorf("the decorator's header leaked into the client's shared headers")
			}
		})
	}
}

// HTTPClient.Timeout bounds a call from sending the request to reading
// the reply, as http.Client's does.
func TestHTTPClientTimeout(t *testing.T) {
	block := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()
	defer close(block)
	c := New(Config{Addr: hs.URL, Name: "slow", HTTPClient: &http.Client{Timeout: 50 * time.Millisecond}})
	start := time.Now()
	_, err := c.Exec(context.Background(), engine.AnyWorker, []server.Op{{Kind: server.OpRead}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exec against a blocked handler: err = %v, want a deadline", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the 50ms timeout took %v to fire", took)
	}
}

// An address that does not parse fails every call, naming the
// endpoint, instead of failing New.
func TestBadAddrFailsEveryCall(t *testing.T) {
	c := New(Config{Addr: "http://[::1", Name: "bad"})
	for _, wc := range wireCalls {
		if err := wc.call(context.Background(), c); err == nil || !strings.Contains(err.Error(), wc.path) {
			t.Errorf("%s: err = %v, want a parse error naming %s", wc.name, err, wc.path)
		}
	}
}

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rewindingTransport asks each request, once its reply is in and so
// its Body has been read, for the frame GetBody gives back: the frame
// the transport would resend over a fresh connection.
type rewindingTransport struct {
	next   http.RoundTripper
	frames [][]byte
}

func (rt *rewindingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rc, err := req.GetBody()
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	frame, err := io.ReadAll(rc)
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	rt.frames = append(rt.frames, frame)
	return resp, nil
}

// An Exec goes out in one write, headers and frame together, which
// net/http does only for a body it knows to be in memory. GetBody,
// which the transport calls to resend a request, gives back the very
// frame the server read, after Body has been read to its end.
func TestExecIsOneWrite(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read body: %v", err)
		}
		mu.Lock()
		got = append(got, frame)
		mu.Unlock()
		_, _ = w.Write([]byte("{}\n"))
	}))
	defer hs.Close()
	var writes atomic.Int64
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, &writes}, nil
	}}
	defer tr.CloseIdleConnections()
	rt := &rewindingTransport{next: tr}
	c := New(Config{Addr: hs.URL, Name: "one-write", HTTPClient: &http.Client{Transport: rt}})
	const n = 20
	for i := 0; i < n; i++ {
		ops := make([]server.Op, 1+i) // frames on both sides of the inline room
		for j := range ops {
			ops[j] = server.Op{Kind: server.OpIncr, Var: j, Val: int64(i)}
		}
		if _, err := c.Exec(context.Background(), 0, ops); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	if w := writes.Load(); w != n {
		t.Errorf("%d Execs made %d writes, want %d", n, w, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n || len(rt.frames) != n {
		t.Fatalf("the server read %d frames and GetBody gave %d, for %d Execs", len(got), len(rt.frames), n)
	}
	for i := range got {
		if !bytes.Equal(rt.frames[i], got[i]) {
			t.Errorf("exec %d: GetBody gave %q, the server read %q", i, rt.frames[i], got[i])
		}
	}
}
