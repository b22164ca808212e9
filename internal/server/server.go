package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"livetm/internal/engine"
	"livetm/internal/monitor"
	"livetm/internal/telemetry"
)

// Backend is what the server serves: the blocking submission surface,
// the interactive transactions, and the session lifecycle.
// *engine.Session satisfies it directly.
type Backend interface {
	engine.Submitter
	// Begin opens an interactive transaction pinned to a worker; done
	// receives its terminal result (see engine.Session.Begin).
	Begin(worker int, done func(error)) (*engine.Interactive, error)
	// Drain blocks until every accepted submission has completed.
	Drain(ctx context.Context) error
	// Stats snapshots the session counters.
	Stats() engine.SessionStats
	// Close tears the session down and returns the final monitor
	// report (nil when the session is not live).
	Close() (*monitor.Report, error)
}

// Config parameterizes a Server.
type Config struct {
	// MaxInflight is the global admission cap: the total number of
	// submissions (blocking and interactive) the server holds
	// in flight at once, shared fairly among active clients. 0 leaves
	// admission unbounded (the engine's own MaxQueue still applies).
	MaxInflight int
	// RetryAfter is the backoff hint attached to overload refusals
	// (Retry-After header + retry_after_ms body field). 0 defaults to
	// 50ms.
	RetryAfter time.Duration
	// ClientIdleAfter is the grace period after which an idle client's
	// admission account (and its per-client telemetry series) is
	// evicted, bounding server state under ephemeral client names. 0
	// defaults to 30s; negative disables eviction.
	ClientIdleAfter time.Duration
	// Registry, when set, receives the per-client admission
	// instruments and gets its /metrics, /snapshot and /debug/pprof/
	// endpoints mounted on the server's own handler.
	Registry *telemetry.Registry
	// Info describes the serving session to clients (GET /v1/info).
	// Info.Vars also bounds the variable index accepted in programs
	// and interactive ops.
	Info InfoResponse
}

// Server is the wire front of one Backend. Create with New, expose
// via Handler, and end with Drain (directly on SIGTERM, or remotely
// through POST /v1/drain).
type Server struct {
	cfg     Config
	backend Backend
	adm     *admission
	mux     *http.ServeMux
	ctype   []string // the Content-Type header value, shared by every response

	idSeq    atomic.Uint64
	draining atomic.Bool

	mu   sync.Mutex
	itxs map[string]*engine.Interactive

	drainOnce sync.Once
	drainErr  error
	drainRes  DrainResponse
	done      chan struct{}
}

// New builds a Server over backend.
func New(backend Backend, cfg Config) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	idle := cfg.ClientIdleAfter
	if idle == 0 {
		idle = 30 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		backend: backend,
		adm:     newAdmission(cfg.MaxInflight, idle, cfg.Registry),
		mux:     http.NewServeMux(),
		ctype:   []string{JSONCodec{}.ContentType()},
		itxs:    make(map[string]*engine.Interactive),
		done:    make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/exec", s.handleExec)
	s.mux.HandleFunc("POST /v1/tx/begin", s.handleTxBegin)
	s.mux.HandleFunc("POST /v1/tx/op", s.handleTxOp)
	s.mux.HandleFunc("POST /v1/tx/finish", s.handleTxFinish)
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	if cfg.Registry != nil {
		th := telemetry.Handler(cfg.Registry)
		s.mux.Handle("/metrics", th)
		s.mux.Handle("/snapshot", th)
		s.mux.Handle("/debug/pprof/", th)
	}
	return s
}

// Handler is the server's HTTP surface (wire API v1 plus, with a
// registry, the telemetry endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Done is closed once a drain — local or remote — has fully
// completed; serve loops use it to exit after a POST /v1/drain.
func (s *Server) Done() <-chan struct{} { return s.done }

// Drain gracefully ends the service: refuse new work, abandon parked
// interactive transactions (their clients are gone or going), wait
// for every accepted submission to complete, close the session, and
// retain the final monitor report. Idempotent; every call returns
// the same outcome.
func (s *Server) Drain(ctx context.Context) (DrainResponse, error) {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		for _, t := range s.itxs {
			t.Abandon()
		}
		s.mu.Unlock()
		if err := s.backend.Drain(ctx); err != nil {
			s.drainErr = fmt.Errorf("drain: %w", err)
		}
		stats := s.backend.Stats()
		report, err := s.backend.Close()
		if err != nil && s.drainErr == nil {
			s.drainErr = err
		}
		s.drainRes = DrainResponse{Report: report, Stats: stats}
		if err != nil {
			s.drainRes.Code = CodeOf(err)
			s.drainRes.Error = err.Error()
		}
		close(s.done)
	})
	return s.drainRes, s.drainErr
}

// clientOf extracts the client identity fairness accounts against.
func clientOf(r *http.Request) string {
	if c := r.Header.Get(ClientHeader); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// writeErr emits the uniform error frame for err at its mapped
// status, attaching the Retry-After hint to overload refusals.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := CodeOf(err)
	s.writeCode(w, code, err.Error())
}

func (s *Server) writeCode(w http.ResponseWriter, code, msg string) {
	resp := ErrorResponse{Code: code, Error: msg}
	if code == CodeOverloaded {
		resp.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
		secs := int64(s.cfg.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header()["Content-Type"] = s.ctype
	w.WriteHeader(StatusOf(code))
	_ = JSONCodec{}.Encode(w, &resp)
}

func (s *Server) writeOK(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = s.ctype
	_ = JSONCodec{}.Encode(w, v)
}

// maxFrameBytes caps a request body. The codec may read the whole body
// before it decodes a byte of it, so an uncapped one is as much memory
// as a client cares to send; a program of 10 000 ops is about 400 kB.
const maxFrameBytes = 1 << 20

// decode reads the request's frame into v, answering a body that is
// too large, cut short, or not a frame with CodeBadRequest. A body that
// is too large is left unread past the cap, so the connection closes
// after the reply instead of reading on.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v parser) bool {
	err := decodeCapped(r.Body, v, maxFrameBytes)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		w.Header().Set("Connection", "close")
	}
	s.writeCode(w, CodeBadRequest, "decode: "+err.Error())
	return false
}

// checkProgram validates a program against the session shape. The
// worker it is pinned to is the engine's to check (ErrNotAdmitted).
func (s *Server) checkProgram(ops []Op) error {
	if len(ops) == 0 {
		return errors.New("empty program")
	}
	for i, op := range ops {
		switch op.Kind {
		case OpRead, OpWrite, OpIncr:
		default:
			return fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
		if op.Var < 0 || (s.cfg.Info.Vars > 0 && op.Var >= s.cfg.Info.Vars) {
			return fmt.Errorf("op %d: var %d out of range [0,%d)", i, op.Var, s.cfg.Info.Vars)
		}
	}
	return nil
}

// ProgramBody compiles a program into a transaction body for any
// engine.Submitter (internal/loadgen's in-process target runs its
// programs through it; /v1/exec binds the same runProgram into its
// pooled scratch). reads is reset at each attempt entry, so the values
// handed back always come from the attempt that committed.
func ProgramBody(ops []Op, reads *[]int64) engine.Body {
	return func(tx engine.Tx) error { return runProgram(tx, ops, reads) }
}

// runProgram is one attempt of a program.
func runProgram(tx engine.Tx, ops []Op, reads *[]int64) error {
	*reads = (*reads)[:0]
	for _, op := range ops {
		switch op.Kind {
		case OpRead:
			v, err := tx.Read(op.Var)
			if err != nil {
				return err
			}
			*reads = append(*reads, v)
		case OpWrite:
			if err := tx.Write(op.Var, op.Val); err != nil {
				return err
			}
		case OpIncr:
			v, err := tx.Read(op.Var)
			if err != nil {
				return err
			}
			if err := tx.Write(op.Var, v+op.Val); err != nil {
				return err
			}
			*reads = append(*reads, v)
		}
	}
	return nil
}

// execScratch is everything one blocking /v1/exec needs beyond the
// request itself: the decoded program, the values it read, the reply
// frame, and the transaction body over them, bound once. While a
// submission is queued or running the engine owns the body and, through
// it, all of this; see recycle.
type execScratch struct {
	req   ExecRequest
	resp  ExecResponse
	reads []int64
	body  engine.Body
}

var execScratches = sync.Pool{New: func() any {
	sc := new(execScratch)
	sc.body = func(tx engine.Tx) error { return runProgram(tx, sc.req.Ops, &sc.reads) }
	return sc
}}

// recycle hands the scratch to the next request. Only a submission the
// engine has finished with may: ExecOn returned nil or ErrNoCommit, so
// the body ran to its end. After any other return — a done context
// above all — the body may still be queued, and a scratch refilled
// under it would run, and answer with, a stranger's program; that
// scratch is left to the collector. The ops are cleared because a
// decoder that reuses a slice element keeps the members a frame omits.
func (sc *execScratch) recycle() {
	clear(sc.req.Ops)
	sc.req = ExecRequest{Ops: sc.req.Ops[:0]}
	sc.resp = ExecResponse{}
	execScratches.Put(sc)
}

// execResult maps a submission's terminal error onto the wire shape.
func execResult(err error, reads []int64) (ExecResponse, error) {
	switch {
	case err == nil:
		return ExecResponse{Committed: true, Reads: reads}, nil
	case errors.Is(err, engine.ErrNoCommit):
		return ExecResponse{NoCommit: true}, nil
	default:
		return ExecResponse{}, err
	}
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeErr(w, engine.ErrClosed)
		return
	}
	sc := execScratches.Get().(*execScratch)
	if !s.decode(w, r, &sc.req) {
		return
	}
	if err := s.checkProgram(sc.req.Ops); err != nil {
		s.writeCode(w, CodeBadRequest, err.Error())
		return
	}
	client := clientOf(r)
	if err := s.adm.acquire(client); err != nil {
		s.writeErr(w, err)
		return
	}
	defer s.adm.release(client)
	if cap(sc.reads) < len(sc.req.Ops) {
		sc.reads = make([]int64, 0, len(sc.req.Ops))
	}
	err := s.backend.ExecOn(r.Context(), sc.req.Worker, sc.body)
	sc.resp, err = execResult(err, sc.reads)
	if err != nil {
		s.writeErr(w, err)
		return // the engine may still hold sc.body: sc is not recycled
	}
	s.writeOK(w, &sc.resp)
	sc.recycle() // ExecOn returned nil or ErrNoCommit: the body ran to its end
}

func (s *Server) handleTxBegin(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeErr(w, engine.ErrClosed)
		return
	}
	var req BeginRequest
	if !s.decode(w, r, &req) {
		return
	}
	client := clientOf(r)
	if err := s.adm.acquire(client); err != nil {
		s.writeErr(w, err)
		return
	}
	id := "t" + strconv.FormatUint(s.idSeq.Add(1), 10)
	// mu is held across Begin so that the id is registered before the
	// done callback, which runs on a worker, can remove it.
	s.mu.Lock()
	t, err := s.backend.Begin(req.Worker, func(error) {
		s.mu.Lock()
		delete(s.itxs, id)
		s.mu.Unlock()
		s.adm.release(client)
	})
	if err == nil {
		s.itxs[id] = t
	}
	s.mu.Unlock()
	if err != nil {
		s.adm.release(client)
		s.writeErr(w, err)
		return
	}
	s.writeOK(w, BeginResponse{Txn: id})
}

// lookupTx finds an open interactive transaction, answering an unknown
// id with CodeNotFound.
func (s *Server) lookupTx(w http.ResponseWriter, id string) *engine.Interactive {
	s.mu.Lock()
	t := s.itxs[id]
	s.mu.Unlock()
	if t == nil {
		s.writeCode(w, CodeNotFound, "no open transaction "+id)
	}
	return t
}

// writeTxErr answers an interactive call that failed: a done request
// context is a timeout, anything else the transaction's own error.
func (s *Server) writeTxErr(w http.ResponseWriter, what string, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.writeCode(w, CodeTimeout, what+": "+err.Error())
		return
	}
	s.writeErr(w, err)
}

func (s *Server) handleTxOp(w http.ResponseWriter, r *http.Request) {
	var req TxOpRequest
	if !s.decode(w, r, &req) {
		return
	}
	t := s.lookupTx(w, req.Txn)
	if t == nil {
		return
	}
	if req.Op.Kind != OpRead && req.Op.Kind != OpWrite {
		s.writeCode(w, CodeBadRequest, "interactive op must be read or write, got "+req.Op.Kind)
		return
	}
	if req.Op.Var < 0 || (s.cfg.Info.Vars > 0 && req.Op.Var >= s.cfg.Info.Vars) {
		s.writeCode(w, CodeBadRequest,
			fmt.Sprintf("var %d out of range [0,%d)", req.Op.Var, s.cfg.Info.Vars))
		return
	}
	var resp TxOpResponse
	var err error
	if req.Op.Kind == OpRead {
		resp.Val, resp.Aborted, err = t.Read(r.Context(), req.Op.Var)
	} else {
		resp.Aborted, err = t.Write(r.Context(), req.Op.Var, req.Op.Val)
	}
	if err != nil {
		s.writeTxErr(w, "tx op", err)
		return
	}
	s.writeOK(w, resp)
}

func (s *Server) handleTxFinish(w http.ResponseWriter, r *http.Request) {
	var req TxFinishRequest
	if !s.decode(w, r, &req) {
		return
	}
	t := s.lookupTx(w, req.Txn)
	if t == nil {
		return
	}
	switch req.Mode {
	case FinishAbandon:
		t.Abandon()
		if res := t.Wait(r.Context()); r.Context().Err() != nil {
			s.writeTxErr(w, "abandon", res)
		} else {
			s.writeOK(w, TxFinishResponse{Code: CodeOf(res)})
		}
		return
	case FinishCommit, FinishNoCommit:
	default:
		s.writeCode(w, CodeBadRequest, "unknown finish mode "+req.Mode)
		return
	}
	retrying, res := t.Finish(r.Context(), req.Mode == FinishCommit)
	switch {
	case retrying:
		s.writeOK(w, TxFinishResponse{Retrying: true})
	case res == nil:
		s.writeOK(w, TxFinishResponse{Committed: true})
	case errors.Is(res, engine.ErrNoCommit), errors.Is(res, engine.ErrAbandoned):
		s.writeOK(w, TxFinishResponse{Code: CodeOf(res)})
	default:
		s.writeTxErr(w, "finish", res)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	s.writeOK(w, s.cfg.Info)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeOK(w, s.backend.Stats())
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	res, err := s.Drain(r.Context())
	if err != nil && res.Code == "" {
		res.Code = CodeOf(err)
		res.Error = err.Error()
	}
	s.writeOK(w, res)
}
