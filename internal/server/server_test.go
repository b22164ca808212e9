package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"livetm/internal/engine"
	"livetm/internal/telemetry"
)

// openBackend opens a plain native session for wire tests.
func openBackend(t *testing.T, cfg engine.SessionConfig) *engine.Session {
	t.Helper()
	if cfg.Engine == "" {
		cfg.Engine = "native-tl2"
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Vars == 0 {
		cfg.Vars = 4
	}
	s, err := engine.Open(cfg)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	return s
}

// testServer wires a Server over a fresh session behind httptest.
func testServer(t *testing.T, scfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sess := openBackend(t, engine.SessionConfig{})
	if scfg.Info == (InfoResponse{}) {
		scfg.Info = InfoResponse{Engine: sess.Name(), Workers: 2, Vars: 4}
	}
	srv := New(sess, scfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	})
	return srv, hs
}

// post sends one wire frame and decodes the response body into out,
// returning the HTTP status.
func post(t *testing.T, url string, in, out any) int {
	t.Helper()
	return postAs(t, url, "", in, out)
}

func postAs(t *testing.T, url, client string, in, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := (JSONCodec{}).Encode(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(ClientHeader, client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := (JSONCodec{}).Decode(resp.Body, out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestExecProgram(t *testing.T) {
	_, hs := testServer(t, Config{})
	var resp ExecResponse
	status := post(t, hs.URL+"/v1/exec", ExecRequest{
		Worker: engine.AnyWorker,
		Ops: []Op{
			{Kind: OpWrite, Var: 0, Val: 41},
			{Kind: OpIncr, Var: 0, Val: 1},
			{Kind: OpRead, Var: 0},
		},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("exec status = %d", status)
	}
	if !resp.Committed {
		t.Fatalf("exec did not commit: %+v", resp)
	}
	if len(resp.Reads) != 2 || resp.Reads[0] != 41 || resp.Reads[1] != 42 {
		t.Fatalf("reads = %v, want [41 42]", resp.Reads)
	}
}

func TestExecBadProgram(t *testing.T) {
	_, hs := testServer(t, Config{})
	var er ErrorResponse
	status := post(t, hs.URL+"/v1/exec", ExecRequest{
		Worker: engine.AnyWorker,
		Ops:    []Op{{Kind: OpRead, Var: 99}},
	}, &er)
	if status != http.StatusBadRequest || er.Code != CodeBadRequest {
		t.Fatalf("out-of-range var: status %d code %q", status, er.Code)
	}
	status = post(t, hs.URL+"/v1/exec", ExecRequest{
		Worker: engine.AnyWorker,
		Ops:    []Op{{Kind: "frob", Var: 0}},
	}, &er)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", status)
	}
}

func TestInteractiveCommit(t *testing.T) {
	_, hs := testServer(t, Config{})
	var begin BeginResponse
	if status := post(t, hs.URL+"/v1/tx/begin", BeginRequest{Worker: 0}, &begin); status != http.StatusOK {
		t.Fatalf("begin status = %d", status)
	}
	var opResp TxOpResponse
	status := post(t, hs.URL+"/v1/tx/op", TxOpRequest{
		Txn: begin.Txn, Op: Op{Kind: OpWrite, Var: 2, Val: 13},
	}, &opResp)
	if status != http.StatusOK || opResp.Aborted {
		t.Fatalf("write: status %d resp %+v", status, opResp)
	}
	status = post(t, hs.URL+"/v1/tx/op", TxOpRequest{
		Txn: begin.Txn, Op: Op{Kind: OpRead, Var: 2},
	}, &opResp)
	if status != http.StatusOK || opResp.Val != 13 {
		t.Fatalf("read: status %d resp %+v", status, opResp)
	}
	var fin TxFinishResponse
	status = post(t, hs.URL+"/v1/tx/finish", TxFinishRequest{Txn: begin.Txn, Mode: FinishCommit}, &fin)
	if status != http.StatusOK || !fin.Committed || fin.Retrying {
		t.Fatalf("finish: status %d resp %+v", status, fin)
	}
	// The committed value is visible to a fresh program.
	var res ExecResponse
	post(t, hs.URL+"/v1/exec", ExecRequest{Worker: engine.AnyWorker, Ops: []Op{{Kind: OpRead, Var: 2}}}, &res)
	if len(res.Reads) != 1 || res.Reads[0] != 13 {
		t.Fatalf("post-commit read = %v, want [13]", res.Reads)
	}
}

func TestInteractiveNoCommitAndAbandon(t *testing.T) {
	_, hs := testServer(t, Config{})
	var begin BeginResponse
	post(t, hs.URL+"/v1/tx/begin", BeginRequest{Worker: 0}, &begin)
	var fin TxFinishResponse
	status := post(t, hs.URL+"/v1/tx/finish", TxFinishRequest{Txn: begin.Txn, Mode: FinishNoCommit}, &fin)
	if status != http.StatusOK || fin.Committed || fin.Code != CodeNoCommit {
		t.Fatalf("nocommit finish: status %d resp %+v", status, fin)
	}

	post(t, hs.URL+"/v1/tx/begin", BeginRequest{Worker: 1}, &begin)
	var opResp TxOpResponse
	post(t, hs.URL+"/v1/tx/op", TxOpRequest{Txn: begin.Txn, Op: Op{Kind: OpWrite, Var: 0, Val: 1}}, &opResp)
	status = post(t, hs.URL+"/v1/tx/finish", TxFinishRequest{Txn: begin.Txn, Mode: FinishAbandon}, &fin)
	if status != http.StatusOK || fin.Code != CodeAbandoned {
		t.Fatalf("abandon finish: status %d resp %+v", status, fin)
	}
	// The id is gone afterwards.
	var er ErrorResponse
	if status = post(t, hs.URL+"/v1/tx/op", TxOpRequest{Txn: begin.Txn, Op: Op{Kind: OpRead, Var: 0}}, &er); status != http.StatusNotFound {
		t.Fatalf("op after abandon: status %d", status)
	}
}

func TestAdmissionOverload(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, hs := testServer(t, Config{MaxInflight: 1, RetryAfter: 80 * time.Millisecond, Registry: reg,
		Info: InfoResponse{Engine: "native-tl2", Workers: 2, Vars: 4}})
	// One interactive transaction occupies the only slot...
	var begin BeginResponse
	if status := postAs(t, hs.URL+"/v1/tx/begin", "greedy", BeginRequest{Worker: 0}, &begin); status != http.StatusOK {
		t.Fatalf("begin status = %d", status)
	}
	// ...so both the same client and a second one are refused with 429.
	var buf bytes.Buffer
	_ = (JSONCodec{}).Encode(&buf, ExecRequest{Worker: engine.AnyWorker, Ops: []Op{{Kind: OpRead, Var: 0}}})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/exec", &buf)
	req.Header.Set(ClientHeader, "greedy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded exec status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := (JSONCodec{}).Decode(resp.Body, &er); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if er.Code != CodeOverloaded || er.RetryAfterMS != 80 {
		t.Fatalf("429 body = %+v", er)
	}
	if errors.Is(SentinelOf(er.Code), engine.ErrOverloaded) == false {
		t.Fatalf("code %q does not map back to ErrOverloaded", er.Code)
	}
	// The per-client instruments moved.
	snap := reg.Snapshot()
	found := false
	for _, fam := range snap.Families {
		if fam.Name == "livetm_server_rejected_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("livetm_server_rejected_total not registered; families: %+v", snap.Families)
	}
	// Freeing the slot readmits.
	var fin TxFinishResponse
	post(t, hs.URL+"/v1/tx/finish", TxFinishRequest{Txn: begin.Txn, Mode: FinishAbandon}, &fin)
	var res ExecResponse
	if status := postAs(t, hs.URL+"/v1/exec", "greedy", ExecRequest{Worker: engine.AnyWorker, Ops: []Op{{Kind: OpRead, Var: 0}}}, &res); status != http.StatusOK {
		t.Fatalf("exec after release: status %d", status)
	}
}

func TestAdmissionFairShare(t *testing.T) {
	a := newAdmission(4, 0, nil)
	must := func(client string) {
		t.Helper()
		if err := a.acquire(client); err != nil {
			t.Fatalf("acquire(%s): %v", client, err)
		}
	}
	must("a")
	must("b")
	must("a") // a at 2 = its share of 4 between 2 actives
	if err := a.acquire("a"); !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("a's 3rd acquire = %v, want ErrOverloaded", err)
	}
	must("b") // b still gets its share while a is refused
	a.release("a")
	a.release("a")
	a.release("b")
	a.release("b")
	if n := a.inflightTotal(); n != 0 {
		t.Fatalf("inflight after release = %d", n)
	}
}

func TestDrainRefusesAndReports(t *testing.T) {
	srv, hs := testServer(t, Config{})
	var begin BeginResponse
	post(t, hs.URL+"/v1/tx/begin", BeginRequest{Worker: 0}, &begin)
	var dr DrainResponse
	if status := post(t, hs.URL+"/v1/drain", struct{}{}, &dr); status != http.StatusOK {
		t.Fatalf("drain status = %d", status)
	}
	if dr.Stats.Submitted == 0 {
		t.Fatalf("drain stats empty: %+v", dr.Stats)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatalf("Done not closed after drain")
	}
	var er ErrorResponse
	if status := post(t, hs.URL+"/v1/exec", ExecRequest{Worker: engine.AnyWorker, Ops: []Op{{Kind: OpRead, Var: 0}}}, &er); status != http.StatusServiceUnavailable || er.Code != CodeClosed {
		t.Fatalf("exec after drain: status %d code %q", status, er.Code)
	}
}

func TestWireCodeTables(t *testing.T) {
	cases := []struct {
		err    error
		code   string
		status int
	}{
		{engine.ErrOverloaded, CodeOverloaded, http.StatusTooManyRequests},
		{engine.ErrClosed, CodeClosed, http.StatusServiceUnavailable},
		{engine.ErrStopped, CodeStopped, http.StatusServiceUnavailable},
		{engine.ErrNoCommit, CodeNoCommit, http.StatusInternalServerError},
		{engine.ErrLiveViolation, CodeViolation, http.StatusServiceUnavailable},
		{engine.ErrAbandoned, CodeAbandoned, http.StatusInternalServerError},
		{fmt.Errorf("%w: 7 (have 2)", engine.ErrNotAdmitted), CodeBadRequest, http.StatusBadRequest},
		{engine.ErrTxDone, CodeNotFound, http.StatusNotFound},
		{errors.New("surprise"), CodeInternal, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.code {
			t.Errorf("CodeOf(%v) = %q, want %q", c.err, got, c.code)
		}
		if got := StatusOf(c.code); got != c.status {
			t.Errorf("StatusOf(%q) = %d, want %d", c.code, got, c.status)
		}
	}
	// Sentinels survive the round trip for every engine sentinel.
	for _, err := range []error{
		engine.ErrOverloaded, engine.ErrClosed, engine.ErrStopped,
		engine.ErrNoCommit, engine.ErrLiveViolation, engine.ErrAbandoned,
	} {
		if back := SentinelOf(CodeOf(err)); !errors.Is(back, err) {
			t.Errorf("sentinel round trip lost %v (got %v)", err, back)
		}
	}
}

// postRaw posts body as it is, on a connection of its own, and returns
// the status and reply bytes. closed reports that the server closed the
// connection after the reply: the reply said Connection: close, and a
// read past it finds the connection closed.
func postRaw(t *testing.T, url string, body []byte) (status int, reply []byte, closed bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request %s: %v", url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	conn, err := net.Dial("tcp", req.URL.Host)
	if err != nil {
		t.Fatalf("dial %s: %v", req.URL.Host, err)
	}
	defer conn.Close()
	// The request goes out on its own goroutine: a server that refuses
	// a body need not read all of it.
	wrote := make(chan error, 1)
	go func() { wrote <- req.Write(conn) }()
	defer func() { <-wrote }()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if reply, err = io.ReadAll(resp.Body); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if resp.Close {
		if n, err := br.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("the connection stays open after a reply that closes it: read %d bytes, %v", n, err)
		}
	}
	return resp.StatusCode, reply, resp.Close
}

// What the server does with bodies that are not a clean frame: too
// large, cut short or empty ones are bad requests; whatever
// json.Decoder accepted before the frames were hand-written — bytes
// after the frame, unknown, repeated and case-folded keys — is
// accepted still, and means what encoding/json says it means. A worker
// the session never admitted is a bad request too, on /v1/exec and on
// /v1/tx/begin alike.
func TestExecBadFrames(t *testing.T) {
	_, hs := testServer(t, Config{})
	for v := 0; v < 4; v++ {
		var ok ExecResponse
		post(t, hs.URL+"/v1/exec", ExecRequest{Worker: engine.AnyWorker, Ops: []Op{{Kind: OpWrite, Var: v, Val: int64(10 + v)}}}, &ok)
	}
	read0 := `{"kind":"read","var":0}`
	for _, c := range []struct {
		name   string
		body   string
		status int
		reply  string // of a refusal: a substring of the error
		path   string // "" is /v1/exec
		closes bool   // the server hangs up after its reply
	}{
		{"oversized", `{"worker":-1,"ops":[` + strings.Repeat(read0+",", maxFrameBytes/len(read0)) + read0 + `]}`,
			http.StatusBadRequest, "request body too large", "", true},
		{"largest accepted", `{"worker":-1,"ops":[` + read0 + `]}` + strings.Repeat(" ", maxFrameBytes-64), http.StatusOK, "", "", false},
		{"truncated", `{"worker":-1,"ops":[{"kind":"re`, http.StatusBadRequest, "unexpected EOF", "", false},
		{"empty", ``, http.StatusBadRequest, "decode: EOF", "", false},
		{"not a frame", `[1,2]`, http.StatusBadRequest, "cannot unmarshal array", "", false},
		{"exponent", `{"worker":-1e0,"ops":[` + read0 + `]}`, http.StatusBadRequest, "cannot unmarshal number", "", false},
		{"trailing bytes", `{"worker":-1,"ops":[` + read0 + `]} {"worker":"x"} ]]garbage`, http.StatusOK, "", "", false},
		{"unknown key", `{"worker":-1,"trace":{"id":[1,"x"]},"ops":[{"kind":"read","var":1,"why":null}]}`, http.StatusOK, "", "", false},
		{"duplicate key", `{"worker":7,"worker":-1,"ops":[{"kind":"read","var":1,"var":2}]}`, http.StatusOK, "", "", false},
		{"case-folded and escaped keys", `{"WORKER":-1,"Ops":[{"KIND":"read","v\u0061r":3}]}`, http.StatusOK, "", "", false},
		{"escaped kind", `{"worker":-1,"ops":[{"kind":"re\u0061d","var":3}]}`, http.StatusOK, "", "", false},
		{"kind in the wrong case", `{"worker":-1,"ops":[{"kind":"Read","var":3}]}`, http.StatusBadRequest, `unknown kind \"Read\"`, "", false},
		{"unadmitted worker", `{"worker":7,"ops":[` + read0 + `]}`, http.StatusBadRequest, "worker not admitted", "", false},
		{"unadmitted worker on begin", `{"worker":7}`, http.StatusBadRequest, "worker not admitted", "/v1/tx/begin", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := c.path
			if path == "" {
				path = "/v1/exec"
			}
			status, reply, closed := postRaw(t, hs.URL+path, []byte(c.body))
			if status != c.status {
				t.Fatalf("status %d, want %d (reply %s)", status, c.status, reply)
			}
			if closed != c.closes {
				t.Fatalf("connection closed after the reply: %v, want %v", closed, c.closes)
			}
			if status != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(reply, &er); err != nil || er.Code != CodeBadRequest || !strings.Contains(string(reply), c.reply) {
					t.Fatalf("reply %s (%v), want code %q and %q", reply, err, CodeBadRequest, c.reply)
				}
				return
			}
			// An accepted frame is the program encoding/json decodes it to.
			var req ExecRequest
			if err := json.NewDecoder(strings.NewReader(c.body)).Decode(&req); err != nil {
				t.Fatalf("encoding/json refuses the frame: %v", err)
			}
			want := ExecResponse{Committed: true}
			for _, op := range req.Ops {
				want.Reads = append(want.Reads, int64(10+op.Var))
			}
			if frame, _ := json.Marshal(want); string(reply) != string(frame)+"\n" {
				t.Fatalf("reply %q, want %q", reply, frame)
			}
		})
	}
}

// recTx is a transaction that records which variables it was asked
// to read; variable i holds 100+i.
type recTx struct{ read []int }

func (tx *recTx) Read(i int) (int64, error) {
	tx.read = append(tx.read, i)
	return int64(100 + i), nil
}

func (tx *recTx) Write(int, int64) error { return nil }

// keepBackend runs a submission at once, or — as a session does with
// one still queued when its caller stops waiting — keeps its body for
// later and answers keepErr.
type keepBackend struct {
	Backend
	keepErr error
	kept    []engine.Body
}

func (b *keepBackend) ExecOn(_ context.Context, _ int, body engine.Body) error {
	if b.keepErr != nil {
		b.kept = append(b.kept, body)
		return b.keepErr
	}
	return body(&recTx{})
}

// A body the engine may still run owns its program: whatever ExecOn
// returned short of completion, later requests must not be decoded
// over it. Everything runs on this goroutine, so a scratch put back
// would be the next one taken.
func TestQueuedBodyKeepsItsProgram(t *testing.T) {
	serve := func(srv *Server, frame string) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", strings.NewReader(frame)))
		return rec.Code, rec.Body.String()
	}
	for _, c := range []struct {
		name    string
		keepErr error
	}{
		{"exec, context cancelled mid-queue", context.Canceled},
		{"exec, deadline mid-queue", context.DeadlineExceeded},
		{"exec, session stopped", engine.ErrStopped},
		{"exec, unknown failure", errors.New("surprise")},
	} {
		t.Run(c.name, func(t *testing.T) {
			backend := &keepBackend{keepErr: c.keepErr}
			srv := New(backend, Config{Info: InfoResponse{Workers: 1, Vars: 8}})
			if status, reply := serve(srv, `{"worker":0,"ops":[{"kind":"read","var":1}]}`); status == http.StatusOK {
				t.Fatalf("kept submission: status %d, reply %s", status, reply)
			}
			backend.keepErr = nil
			for i := 0; i < 8; i++ {
				status, reply := serve(srv, `{"worker":0,"ops":[{"kind":"read","var":2},{"kind":"incr","var":3,"val":1}]}`)
				if want := `{"committed":true,"reads":[102,103]}` + "\n"; status != http.StatusOK || reply != want {
					t.Fatalf("later request %d: status %d, reply %q, want %q", i, status, reply, want)
				}
			}
			if len(backend.kept) != 1 {
				t.Fatalf("%d bodies kept, want 1", len(backend.kept))
			}
			var tx recTx
			if err := backend.kept[0](&tx); err != nil || len(tx.read) != 1 || tx.read[0] != 1 {
				t.Fatalf("the kept body read %v (%v), want its own program's [1]", tx.read, err)
			}
		})
	}
}

// The same hazard against a real one-worker session, for the race
// detector: requests whose contexts end while they are queued behind a
// parked worker, then other clients running their own programs while
// those abandoned bodies are still queued. Every reply must carry its
// own program's reads, and no program may have run twice.
func TestCancelledExecNeverLendsItsScratch(t *testing.T) {
	const victims, survivors, rounds = 6, 4, 8
	sess := openBackend(t, engine.SessionConfig{Workers: 1, Vars: victims + survivors})
	srv := New(sess, Config{Info: InfoResponse{Workers: 1, Vars: victims + survivors}})
	defer func() {
		if _, err := srv.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	serve := func(ctx context.Context, v int) (int, ExecResponse) {
		frame := fmt.Sprintf(`{"worker":0,"ops":[{"kind":"incr","var":%d,"val":1},{"kind":"read","var":%d}]}`, v, v)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", strings.NewReader(frame)).WithContext(ctx))
		var resp ExecResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("reply %q: %v", rec.Body.Bytes(), err)
			}
		}
		return rec.Code, resp
	}
	queued := func(n uint64) {
		for sess.Stats().Submitted < n {
			runtime.Gosched()
		}
	}

	parked, err := sess.Begin(0, nil) // holds the only worker until abandoned
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for v := 0; v < victims; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _ := serve(ctx, v); status == http.StatusOK {
				t.Errorf("victim %d completed behind a parked worker", v)
			}
		}()
	}
	queued(1 + victims)
	cancel()
	wg.Wait() // every victim's handler has returned; its body is still queued

	for s := 0; s < survivors; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := victims + s
			for k := 0; k < rounds; k++ {
				status, resp := serve(context.Background(), v)
				if want := []int64{int64(k), int64(k + 1)}; status != http.StatusOK || !resp.Committed || !slices.Equal(resp.Reads, want) {
					t.Errorf("survivor %d round %d: status %d, reply %+v, want reads %v", s, k, status, resp, want)
					return
				}
			}
		}()
	}
	queued(1 + victims + survivors)
	parked.Abandon()
	wg.Wait()
}
