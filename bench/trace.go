package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livetm/internal/engine"
	"livetm/internal/native"
	"livetm/internal/server"
)

// The traced run records spans from the benchmark's own decorators at
// the public boundaries between layers — never inside the program. A
// span's level is its depth on the committed-transaction path; its
// parent is the span of the same transaction one level up, so spans
// recorded on different goroutines (client caller, HTTP connection,
// session worker) join without sharing any state but the id.

// span is one timed interval at a layer boundary.
type span struct {
	name       string
	txn        uint64
	start, end int64 // ns since the tracer's epoch
}

// lane is one driver's span buffer at one level. A closed-loop driver
// has one transaction in flight, so appends are uncontended; the mutex
// only orders the rare hand-over between HTTP connection goroutines.
type lane struct {
	mu    sync.Mutex
	spans []span
}

// tracer holds the spans of one traced trial in memory; nothing is
// written until the trial is over.
type tracer struct {
	epoch time.Time
	// levels names each level's span; a level whose spans carry their
	// own names (check-replay's decode/observe/report) has "".
	levels []string
	lanes  [][]lane // [level][driver]

	// Counts taken at the handler boundary.
	refused  atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	requests atomic.Int64
}

// newTracer preallocates every lane for perLane spans.
func newTracer(levels []string, drivers, perLane int) *tracer {
	t := &tracer{epoch: time.Now(), levels: levels, lanes: make([][]lane, len(levels))}
	for l := range t.lanes {
		t.lanes[l] = make([]lane, drivers)
		for d := range t.lanes[l] {
			t.lanes[l][d].spans = make([]span, 0, perLane)
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// txnID packs the driver and its operation index: the identifier every
// span of one transaction shares.
func txnID(driver, seq int) uint64 { return uint64(driver)<<40 | uint64(seq) }

func driverOf(txn uint64) int { return int(txn >> 40) }

// add records a span under its level's name.
func (t *tracer) add(level int, txn uint64, start, end int64) {
	t.addNamed(level, txn, t.levels[level], start, end)
}

// addNamed records a span at a level whose spans carry their own names.
func (t *tracer) addNamed(level int, txn uint64, name string, start, end int64) {
	ln := &t.lanes[level][driverOf(txn)]
	ln.mu.Lock()
	ln.spans = append(ln.spans, span{name: name, txn: txn, start: start, end: end})
	ln.mu.Unlock()
}

// --- decorators ---

type txnKey struct{}

// txnHeader carries the transaction id from the RoundTripper decorator
// to the handler decorator.
const txnHeader = "X-Bench-Txn"

func withTxn(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, txnKey{}, id)
}

func txnOf(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(txnKey{}).(uint64)
	return id, ok
}

// tracedTransport spans one HTTP round trip on the caller's goroutine
// and stamps the transaction id on the wire.
type tracedTransport struct {
	next  http.RoundTripper
	t     *tracer
	level int
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := txnOf(req.Context())
	if !ok {
		return rt.next.RoundTrip(req)
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set(txnHeader, strconv.FormatUint(id, 10))
	start := rt.t.now()
	resp, err := rt.next.RoundTrip(r2)
	rt.t.add(rt.level, id, start, rt.t.now())
	return resp, err
}

// tracedHandler spans the server's handler, lifts the id into the
// request context for the Backend decorator, and counts request and
// response bytes and refusals where they cross the boundary.
type tracedHandler struct {
	next  http.Handler
	t     *tracer
	level int
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(txnHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.t.now()
	h.next.ServeHTTP(cw, r.WithContext(withTxn(r.Context(), id)))
	h.t.add(h.level, id, start, h.t.now())
	h.t.requests.Add(1)
	h.t.bytesIn.Add(r.ContentLength)
	h.t.bytesOut.Add(cw.n)
	if cw.status == http.StatusTooManyRequests {
		h.t.refused.Add(1)
	}
}

// tracedBackend spans ExecOn at the engine.Submitter boundary and
// wraps the body so every attempt is spanned one level down. The
// benchmark drives sessions through ExecOn only; the other submission
// methods pass through untraced.
type tracedBackend struct {
	server.Backend
	t     *tracer
	level int
}

func (b *tracedBackend) ExecOn(ctx context.Context, worker int, body engine.Body) error {
	id, ok := txnOf(ctx)
	if !ok {
		return b.Backend.ExecOn(ctx, worker, body)
	}
	start := b.t.now()
	err := b.Backend.ExecOn(ctx, worker, b.t.body(b.level+1, id, body))
	b.t.add(b.level, id, start, b.t.now())
	return err
}

// body spans each attempt of an engine.Body.
func (t *tracer) body(level int, id uint64, body engine.Body) engine.Body {
	return func(tx engine.Tx) error {
		start := t.now()
		err := body(tx)
		t.add(level, id, start, t.now())
		return err
	}
}

// nativeFn spans each attempt of a native transaction function.
func (t *tracer) nativeFn(level int, id uint64, fn func(native.Txn) error) func(native.Txn) error {
	return func(tx native.Txn) error {
		start := t.now()
		err := fn(tx)
		t.add(level, id, start, t.now())
		return err
	}
}

// --- self times ---

// selfTimes is the fold of one trial's spans: a layer's self time is
// its span's duration minus the part of that interval its child spans
// cover. Children are clipped to their parent's interval (a handler
// may return after its response was already read), so the self times
// of one transaction sum exactly to its root span.
type selfTimes struct {
	roots   int
	rootNS  int64
	orphans int
	self    map[string]int64 // by span name
	count   map[string]int
}

// layerShare is the share of the root spans' time charged to the layer
// (the span-name prefix up to the first dot).
func (s selfTimes) layerShare(layer string) float64 {
	if s.rootNS == 0 {
		return 0
	}
	var ns int64
	for name, v := range s.self {
		if strings.HasPrefix(name, layer+".") {
			ns += v
		}
	}
	return float64(ns) / float64(s.rootNS)
}

// perRoot is the named span's mean self time per root span, in ns.
func (s selfTimes) perRoot(name string) float64 {
	if s.roots == 0 {
		return 0
	}
	return float64(s.self[name]) / float64(s.roots)
}

func (t *tracer) selfTimes() selfTimes {
	out := selfTimes{self: map[string]int64{}, count: map[string]int{}}
	type interval struct{ start, end int64 }
	drivers := len(t.lanes[0])
	for d := 0; d < drivers; d++ {
		var parents map[uint64]interval
		for l := range t.lanes {
			spans := t.lanes[l][d].spans
			eff := make(map[uint64]interval, len(spans))
			for _, s := range spans {
				iv := interval{s.start, s.end}
				if l == 0 {
					out.roots++
					out.rootNS += iv.end - iv.start
				} else {
					p, ok := parents[s.txn]
					if !ok {
						out.orphans++
						continue
					}
					iv.start, iv.end = max(iv.start, p.start), min(iv.end, p.end)
					if iv.end < iv.start {
						iv.end = iv.start
					}
					out.self[t.levels[l-1]] -= iv.end - iv.start
				}
				out.self[s.name] += iv.end - iv.start
				out.count[s.name]++
				eff[s.txn] = iv
			}
			parents = eff
		}
	}
	return out
}

// --- trace files ---

// traceLine is one span in the trace file.
type traceLine struct {
	Name    string `json:"name"`
	Txn     uint64 `json:"txn"`
	Driver  int    `json:"driver"`
	Level   int    `json:"level"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Schema     string     `json:"schema"`
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	// SpansRecorded is the trial's span count; SpansWritten how many of
	// them follow (the first maxTxnsWritten transactions per driver).
	SpansRecorded int `json:"spans_recorded"`
	SpansWritten  int `json:"spans_written"`
}

// maxTxnsWritten caps the transactions per driver a trace file holds;
// the per-layer metrics are always computed over every span.
const maxTxnsWritten = 20000

// write dumps the trial's spans as JSON Lines: a provenance header,
// then one span per line.
func (t *tracer) write(path, workload string, prov provenance) error {
	recorded, written := 0, 0
	for l := range t.lanes {
		for d := range t.lanes[l] {
			for _, s := range t.lanes[l][d].spans {
				recorded++
				if s.txn&(1<<40-1) < maxTxnsWritten {
					written++
				}
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(traceHeader{
		Schema: "livetm/bench-trace/v1", Workload: workload, Provenance: prov,
		SpansRecorded: recorded, SpansWritten: written,
	})
	for l := range t.lanes {
		for d := range t.lanes[l] {
			for _, s := range t.lanes[l][d].spans {
				if err != nil || s.txn&(1<<40-1) >= maxTxnsWritten {
					continue
				}
				line := traceLine{Name: s.name, Txn: s.txn, Driver: d, Level: l, StartNS: s.start, EndNS: s.end}
				if l > 0 {
					line.Parent = t.levels[l-1]
				}
				err = enc.Encode(line)
			}
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
