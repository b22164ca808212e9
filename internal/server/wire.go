package server

import (
	"errors"
	"net/http"

	"livetm/internal/engine"
	"livetm/internal/monitor"
)

// The wire vocabulary: every frame that crosses the protocol
// boundary, shared verbatim by internal/client. Field names are the
// JSON wire format; JSONCodec decides only how frames are encoded,
// never what they say.

// ClientHeader names the request header carrying the client identity
// the admission controller accounts fairness against. Absent, the
// peer's address identifies the client.
const ClientHeader = "X-Livetm-Client"

// Op kinds of a transaction program.
const (
	// OpRead reads Var and appends the value to the result's Reads.
	OpRead = "read"
	// OpWrite writes the literal Val into Var.
	OpWrite = "write"
	// OpIncr reads Var, writes the value plus Val back, and appends
	// the value read to Reads — the canonical increment transaction.
	OpIncr = "incr"
)

// Op is one operation of a declarative transaction program. Programs
// are how one-shot transactions cross the wire: the server replays
// the ops inside a real transaction body on every attempt, so a
// program is idempotent across retries by construction.
type Op struct {
	Kind string `json:"kind"`
	Var  int    `json:"var"`
	Val  int64  `json:"val,omitempty"`
}

// ExecRequest submits one transaction program. Worker pins the
// submission to a worker lane (engine.AnyWorker, the zero value's
// explicit counterpart -1, submits to whichever worker frees up
// first).
type ExecRequest struct {
	Worker int  `json:"worker"`
	Ops    []Op `json:"ops"`
}

// ExecResponse is a completed program submission. Committed is false
// for a declined (nocommit) program; Reads holds the values read by
// OpRead/OpIncr ops, in op order, from the final attempt.
type ExecResponse struct {
	Committed bool    `json:"committed"`
	NoCommit  bool    `json:"nocommit,omitempty"`
	Reads     []int64 `json:"reads,omitempty"`
}

// BeginRequest opens an interactive transaction pinned to a worker
// lane. The transaction stays open across requests until finished or
// abandoned; its ops arrive one TxOpRequest at a time.
type BeginRequest struct {
	Worker int `json:"worker"`
}

// BeginResponse hands back the interactive transaction's id.
type BeginResponse struct {
	Txn string `json:"txn"`
}

// TxOpRequest is one read or write inside an open interactive
// transaction (OpIncr is not interactive: issue OpRead then OpWrite).
type TxOpRequest struct {
	Txn string `json:"txn"`
	Op  Op     `json:"op"`
}

// TxOpResponse reports one interactive op. Aborted means the current
// attempt aborted on this op: the retry loop re-enters the body and
// the transaction handle stays open, with the next op starting a
// fresh attempt — the wire form of the adversary strategies' "on
// abort, return to Step 1".
type TxOpResponse struct {
	Val     int64 `json:"val"`
	Aborted bool  `json:"aborted,omitempty"`
}

// Finish modes.
const (
	// FinishCommit hands the open attempt to the commit path.
	FinishCommit = "commit"
	// FinishNoCommit declines the transaction without attempting to
	// commit (the parasitic step).
	FinishNoCommit = "nocommit"
	// FinishAbandon tears the transaction down, releasing whatever
	// the open attempt holds.
	FinishAbandon = "abandon"
)

// TxFinishRequest ends (or tries to end) an interactive transaction.
type TxFinishRequest struct {
	Txn  string `json:"txn"`
	Mode string `json:"mode"`
}

// TxFinishResponse reports a finish. Retrying means the commit
// attempt aborted and the retry loop re-entered the body: the
// transaction is still open and the client may keep issuing ops (the
// adversary strategies' failed Finish). Otherwise the transaction is
// over and Code carries its terminal result ("" commit, CodeNoCommit,
// CodeAbandoned, or an error code).
type TxFinishResponse struct {
	Committed bool   `json:"committed"`
	Retrying  bool   `json:"retrying,omitempty"`
	Code      string `json:"code,omitempty"`
}

// InfoResponse describes the serving session.
type InfoResponse struct {
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	Vars    int    `json:"vars"`
	Live    bool   `json:"live"`
}

// DrainResponse is the graceful drain's result: the final monitor
// report (nil when the session was not live), the closing stats
// snapshot, and the session's terminal condition as a wire code.
type DrainResponse struct {
	Report *monitor.Report     `json:"report,omitempty"`
	Stats  engine.SessionStats `json:"stats"`
	Code   string              `json:"code,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx response: a stable code
// (the engine sentinel vocabulary), a human message, and — on
// CodeOverloaded — the retry-after hint also carried by the
// Retry-After header.
type ErrorResponse struct {
	Code         string `json:"code"`
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Wire error codes. The engine's submission sentinels are stable wire
// vocabulary: CodeOf maps an engine error to its code, StatusOf picks
// the HTTP status, and SentinelOf maps a code back to the sentinel on
// the client side, so errors.Is works identically on both ends of the
// connection.
const (
	CodeOverloaded = "overloaded"
	CodeClosed     = "closed"
	CodeStopped    = "stopped"
	CodeNoCommit   = "nocommit"
	CodeAbandoned  = "abandoned"
	CodeViolation  = "live-violation"
	CodeBadRequest = "bad-request"
	CodeNotFound   = "not-found"
	CodeTimeout    = "timeout"
	CodeInternal   = "internal"
)

// CodeOf maps an error to its wire code. Unrecognized errors are
// CodeInternal; their message still crosses the wire.
func CodeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, engine.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, engine.ErrClosed):
		return CodeClosed
	case errors.Is(err, engine.ErrStopped):
		return CodeStopped
	case errors.Is(err, engine.ErrLiveViolation):
		return CodeViolation
	case errors.Is(err, engine.ErrNoCommit):
		return CodeNoCommit
	case errors.Is(err, engine.ErrAbandoned):
		return CodeAbandoned
	case errors.Is(err, engine.ErrNotAdmitted):
		return CodeBadRequest
	case errors.Is(err, engine.ErrTxDone):
		return CodeNotFound
	default:
		return CodeInternal
	}
}

// StatusOf maps a wire code to its HTTP status. Overload is 429 (back
// off and retry), lifecycle refusals are 503 (the service is
// draining or stopped).
func StatusOf(code string) int {
	switch code {
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeClosed, CodeStopped, CodeViolation:
		return http.StatusServiceUnavailable
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// SentinelOf maps a wire code back to the engine sentinel it encodes,
// or nil for codes with no engine counterpart (bad requests,
// timeouts, internal errors). The client wraps the sentinel so
// errors.Is(err, engine.ErrOverloaded) et al. hold across the wire.
func SentinelOf(code string) error {
	switch code {
	case CodeOverloaded:
		return engine.ErrOverloaded
	case CodeClosed:
		return engine.ErrClosed
	case CodeStopped:
		return engine.ErrStopped
	case CodeViolation:
		return engine.ErrLiveViolation
	case CodeNoCommit:
		return engine.ErrNoCommit
	case CodeAbandoned:
		return engine.ErrAbandoned
	default:
		return nil
	}
}
