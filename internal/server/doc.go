// Package server puts a native TM session on the wire: a
// transport-agnostic submission service over an engine.Session,
// serving multiple network clients with admission control, per-client
// fairness, and a graceful drain that finishes every accepted
// transaction and returns the resident monitor's final report.
//
// # Layering
//
// The server serves a Backend: engine.Submitter's ExecOn, Begin and
// the session lifecycle. *engine.Session satisfies it directly, and a
// decorator (a tracing wrapper, a test double) can stand in front of
// it.
// Sessions are native: a simulated engine runs batches only, so there
// is no simulated session to serve. The wire itself is HTTP, with
// JSONCodec framing the bodies on both sides.
//
// JSONCodec treats a frame by its type and by nothing else. The frames
// a transaction crosses — ExecRequest and ExecResponse, ErrorResponse,
// the Begin, TxOp and TxFinish pairs — have hand-written halves
// (frames.go): append-style encoders that write encoding/json's bytes,
// and a scanning decoder (internal/jsonscan, shared with the trace
// reader of internal/model) that accepts the canonical spelling of a
// frame and hands any other input — escapes, unknown, repeated or
// case-folded keys, null, anything malformed — to encoding/json for
// that frame, which therefore still defines every rejection and every
// odd acceptance. The once-per-session frames
// (InfoResponse, engine.SessionStats, DrainResponse with its monitor
// report) are encoding/json's outright. A request body is read into
// the codec's pooled buffer through a bounded read that stops past
// 1 MiB: a larger body is a bad request, refused before any of it is
// decoded, and the connection closes after that reply.
//
// A blocking /v1/exec decodes into pooled scratch that also owns the
// values read, the reply and the transaction body. The scratch returns
// to its pool only when ExecOn reported the submission finished (nil
// or ErrNoCommit); after any other return — a done context above all —
// the engine may still hold the body, and the scratch is left to the
// collector.
//
// # Wire API (v1)
//
//	POST /v1/exec      one-shot transaction program, blocking: the
//	                   response carries the commit verdict and the
//	                   values read (Session.ExecOn over the wire)
//	POST /v1/tx/begin  open an interactive transaction pinned to a
//	                   worker lane; the transaction stays open across
//	                   requests (Session.Begin over the wire)
//	POST /v1/tx/op     one read or write inside the open transaction
//	POST /v1/tx/finish commit, decline (nocommit), or abandon it
//	GET  /v1/info      engine name, worker/variable counts, liveness
//	GET  /v1/stats     engine.SessionStats snapshot
//	POST /v1/drain     graceful drain: stop admitting, finish every
//	                   accepted submission, close the session, and
//	                   return the final monitor report
//
// Besides what net/http's transport writes itself (Host, and
// Content-Length on a POST), internal/client sends these request
// headers:
//
//	Content-Type: application/json   on a POST, which carries a frame
//	X-Livetm-Client: <name>          the admission identity
//	                                 (ClientHeader), when it has one
//	Accept-Encoding: identity        replies are never compressed
//
// It sends no User-Agent: the server reads none, and would allocate
// for the line all the same.
//
// When a telemetry registry is configured the same listener also
// serves /metrics, /snapshot and /debug/pprof/ (telemetry.Handler),
// with per-client admission gauges (inflight, rejected, retry-after
// issued) registered alongside the session's own instruments.
//
// # Admission control and fairness
//
// Every submission — blocking or interactive — occupies one
// admission slot from acceptance to completion. Config.MaxInflight
// caps the slots globally, and each client is limited to its fair
// share (MaxInflight divided by the number of currently-active
// clients), so a flooding client is refused while a light one is
// still admitted. Refusals are engine.ErrOverloaded on the wire:
// HTTP 429 with a Retry-After hint. A session opened with
// SessionConfig.MaxQueue refuses a blocking or an interactive
// submission whose lane is full with the same sentinel, so it surfaces
// through the same path; without it a blocking submission waits for
// room on its lane instead.
package server
