// Package record is the low-overhead history recorder for the native
// (real-concurrency) substrate: it turns the linearization-point
// callbacks of internal/native's Observer hooks into a well-formed
// model.History that the safety and liveness checkers can consume.
//
// The design keeps the hot path process-local. Each process appends
// events to its own chunked buffer — no lock, no cross-process cache
// traffic beyond one shared atomic sequence counter that stamps every
// event with a global order. Invocations are stamped immediately
// before the operation runs and responses immediately after it
// returns, so a stamp-order precedence between two transactions
// implies genuine real-time precedence: the drained history's
// real-time partial order is a subrelation of the true one, which
// keeps the opacity checker sound (it may only see fewer ordering
// constraints, never invented ones).
//
// Storage is a list of fixed-size chunks rather than one slice grown
// by append: a filling chunk is never reallocated or copied, and in
// streaming mode with DropStreamed set the filled chunk is recycled in
// place — a ring of reusable chunks — so a live-monitored run of any
// length allocates a bounded number of chunks per process (Chunks
// reports the total, asserted by the recorder-overhead benchmark).
//
// With Options.StreamCapacity a recorder also publishes every stamped
// event into one bounded channel as it is appended, which is how the
// live monitor (internal/engine's native adapter) observes a run while
// it executes. The batches the channel carries are bounded the same
// way: a consumer hands each batch back with Recycle once it has copied
// the events out (monitor.Pump does, after Resequencer.Push returns),
// and the next flush takes it from the recorder's free list instead of
// allocating. The contract is one-sided — a batch that is never handed
// back is simply left to the collector — and neither end can block on
// the list: a flush that finds it empty allocates, a Recycle that finds
// it full drops the batch, and a log muted by Stop drops its batch too
// rather than hand back memory it could not deliver. The list has room
// for every batch that can be in flight at once (the channel's
// capacity, one per process being filled, one with the consumer), and a
// batch is only ever allocated when the list is empty, so a run whose
// consumer hands every batch back allocates at most that many, whatever
// its length.
//
// Draining merges the per-process buffers by sequence number into one
// model.History. A hard per-process cap bounds worst-case retained
// memory, after which the process's log truncates cleanly at an event
// boundary (the history stays well-formed, but verdicts on a truncated
// history are advisory — see Recorder.Truncated). Drop-mode logs retain
// nothing and are exempt from the cap: they record and stream
// indefinitely.
package record

import (
	"sync/atomic"

	"livetm/internal/model"
	"livetm/internal/telemetry"
)

// MaxEventsPerProc is the hard cap on one process's buffer. A process
// that exceeds it stops recording (Truncated reports it) rather than
// growing without bound.
const MaxEventsPerProc = 1 << 22

// chunkEvents is the capacity of one buffer chunk. Chunks are filled
// in place and never copied; retained mode links full chunks into a
// list, drop mode recycles them.
const chunkEvents = 4096

// stamped is one event with its global order.
type stamped struct {
	seq uint64
	ev  model.Event
}

// Streamed is one stamped event published on the live stream. Seq is
// the event's position in the recorded total order (1-based,
// contiguous across processes), which the consumer uses to restore
// that order from the channel's slightly reordered arrivals.
type Streamed struct {
	Seq uint64
	Ev  model.Event
}

// streamBatch is how many events one stream send carries at most.
// Batching amortizes the channel's per-send cost off the hot path;
// a batch always flushes when its process's transaction completes, so
// the monitor never waits on a partial transaction it already has the
// completion event for.
const streamBatch = 16

// Options configures a recorder beyond New's defaults.
type Options struct {
	// CapacityHint pre-sizes each process's first chunk in events (a
	// non-positive hint picks a small default; capped at chunkEvents).
	CapacityHint int
	// StreamCapacity, when positive, publishes every appended event
	// into the bounded channel returned by Stream. Appends block when
	// the channel is full — backpressure, not loss — so the consumer
	// bounds the recorder's memory footprint, not its event rate.
	StreamCapacity int
	// Stop unblocks publishers when the stream consumer stops
	// consuming (the live monitor cancelling a run): once Stop is
	// closed, a blocked publish aborts and the log stops publishing
	// (local recording continues).
	Stop <-chan struct{}
	// DropStreamed recycles each process's chunk once filled instead
	// of retaining it: the streamed copy is the only full record, so
	// History returns nil and steady-state allocation is capped at the
	// chunk ring. Only meaningful with StreamCapacity set.
	DropStreamed bool
	// Metrics, when non-nil, receives the recorder's telemetry. All
	// fields must be set; a nil Metrics records into bare (unregistered)
	// instruments at identical cost, so the hot path has no nil checks.
	Metrics *Metrics
}

// Metrics is the recorder's pre-resolved telemetry handle bundle.
type Metrics struct {
	// Events counts events stamped into the per-process logs.
	Events *telemetry.Counter
	// Chunks tracks buffer chunks currently allocated (mirrors Chunks).
	Chunks *telemetry.Gauge
	// Recycled counts drop-mode ring-chunk reuses.
	Recycled *telemetry.Counter
	// Dropped counts events the live stream lost after Stop fired and
	// muted a blocked publisher.
	Dropped *telemetry.Counter
}

// bareMetrics is the no-registry default: valid zero-value instruments
// nobody reads.
func bareMetrics() *Metrics {
	return &Metrics{
		Events:   &telemetry.Counter{},
		Chunks:   &telemetry.Gauge{},
		Recycled: &telemetry.Counter{},
		Dropped:  &telemetry.Counter{},
	}
}

// Recorder owns the shared sequence counter and the per-process logs
// of one run.
type Recorder struct {
	seq    atomic.Uint64
	logs   []*ProcLog
	stream chan []Streamed
	// free holds consumed batches for the next flush (see Recycle); nil
	// without a stream. Both ends use it without blocking.
	free chan []Streamed
	stop <-chan struct{}
	// chunks and truncated aggregate the per-log figures atomically so
	// Chunks and Truncated can be snapshotted mid-run (a live session's
	// Stats) while the logs are still appending.
	chunks    atomic.Int64
	truncated atomic.Bool
	met       *Metrics
}

// New creates a recorder for procs processes (model.Proc identifiers 1
// through procs), each with a buffer pre-sized to capacityHint events.
func New(procs, capacityHint int) *Recorder {
	return NewWithOptions(procs, Options{CapacityHint: capacityHint})
}

// NewWithOptions creates a recorder with streaming and retention
// control.
func NewWithOptions(procs int, o Options) *Recorder {
	hint := o.CapacityHint
	if hint <= 0 {
		hint = 256
	}
	if hint > chunkEvents {
		hint = chunkEvents
	}
	r := &Recorder{logs: make([]*ProcLog, procs), stop: o.Stop, met: o.Metrics}
	if r.met == nil {
		r.met = bareMetrics()
	}
	if o.StreamCapacity > 0 {
		batches := o.StreamCapacity / streamBatch
		if batches < 1 {
			batches = 1
		}
		r.stream = make(chan []Streamed, batches)
		// Every batch that can exist at once (see the package comment).
		r.free = make(chan []Streamed, batches+procs+1)
	}
	for i := range r.logs {
		l := &ProcLog{
			rec:  r,
			proc: model.Proc(i + 1),
			max:  MaxEventsPerProc,
			drop: o.DropStreamed && r.stream != nil,
		}
		l.cur = l.newChunk(hint)
		r.logs[i] = l
	}
	return r
}

// Stream returns the live event channel (nil unless the recorder was
// created with Options.StreamCapacity). Each receive is one batch of
// up to streamBatch events from a single process. The consumer must
// restore the total order by Streamed.Seq: batches from different
// processes can overtake each other between stamping and publishing,
// by at most the process count plus the channel's buffered events.
func (r *Recorder) Stream() <-chan []Streamed { return r.stream }

// Recycle hands a batch received from Stream back for reuse. The caller
// must be done with it — the next flush overwrites it — and must hand
// each batch back at most once. It never blocks: a full free list (or a
// recorder without a stream) lets the batch go to the collector.
func (r *Recorder) Recycle(batch []Streamed) {
	select {
	case r.free <- batch[:0]:
	default:
	}
}

// newBatch returns an empty batch for a log to fill: a recycled one if
// the free list has any, else a fresh allocation.
func (r *Recorder) newBatch() []Streamed {
	select {
	case b := <-r.free:
		return b
	default:
		return make([]Streamed, 0, streamBatch)
	}
}

// CloseStream flushes every log's partial batch and closes the live
// channel so the consumer's drain loop terminates. Call it only after
// every producing goroutine has quiesced.
func (r *Recorder) CloseStream() {
	if r.stream == nil {
		return
	}
	for _, l := range r.logs {
		l.flushStream()
	}
	close(r.stream)
}

// Log returns the log of process p (1-based). Each log must only be
// used from a single goroutine.
func (r *Recorder) Log(p model.Proc) *ProcLog {
	return r.logs[int(p)-1]
}

// Truncated reports whether any process hit the buffer cap and
// dropped events. A truncated history is still well-formed — each log
// cuts at an event boundary — but it is a prefix of the run per
// process, not of the whole run, so checker verdicts on it are
// advisory. Safe to call while the run is still recording.
func (r *Recorder) Truncated() bool {
	return r.truncated.Load()
}

// Events returns the total number of recorded events (including
// events already recycled in drop mode).
func (r *Recorder) Events() int {
	n := 0
	for _, l := range r.logs {
		n += l.count
	}
	return n
}

// Chunks returns the total number of buffer chunks allocated across
// all processes — the recorder's allocation figure. In drop mode it
// stays at one ring chunk per process no matter how long the run is.
// Safe to call while the run is still recording.
func (r *Recorder) Chunks() int {
	return int(r.chunks.Load())
}

// History drains the recorder: the per-process buffers merged by
// global sequence number into one history. Call it only after the run
// quiesced (no goroutine is still appending). A recorder in drop mode
// retains nothing and returns nil — the stream was the record.
func (r *Recorder) History() model.History {
	bufs := make([][]stamped, len(r.logs))
	total := 0
	for i, l := range r.logs {
		if l.drop {
			return nil
		}
		bufs[i] = l.all()
		total += len(bufs[i])
	}
	heads := make([]int, len(bufs))
	out := make(model.History, 0, total)
	for len(out) < total {
		best := -1
		var bestSeq uint64
		for i, buf := range bufs {
			if heads[i] >= len(buf) {
				continue
			}
			if s := buf[heads[i]].seq; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		out = append(out, bufs[best][heads[best]].ev)
		heads[best]++
	}
	return out
}

// ProcLog is one process's event buffer. It implements
// native.Observer: the engine hands it to the native retry loop, which
// calls it at every linearization point on the process's goroutine.
type ProcLog struct {
	rec   *Recorder
	proc  model.Proc
	done  [][]stamped // filled chunks, in order (retained mode)
	cur   []stamped   // chunk being filled
	count int         // events recorded over the log's lifetime
	max   int         // per-process cap (MaxEventsPerProc; lowered in tests)
	open  bool        // a transaction of this process is open in the log
	full  bool        // hit the cap; recording stopped
	drop  bool        // recycle filled chunks instead of retaining them
	mute  bool        // stop fired during a publish; no further sends
	batch []Streamed  // events stamped but not yet published
}

func (l *ProcLog) newChunk(capacity int) []stamped {
	l.rec.chunks.Add(1)
	l.rec.met.Chunks.Add(1)
	return make([]stamped, 0, capacity)
}

// all returns the log's retained events in order as one slice.
func (l *ProcLog) all() []stamped {
	out := make([]stamped, 0, l.count)
	for _, c := range l.done {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// append stamps, stores and publishes one event. Once the cap is hit
// the log stops recording entirely (after flushing what was already
// stamped): dropping a tail keeps the per-process history a clean
// prefix, while dropping interior events would break well-formedness.
func (l *ProcLog) append(e model.Event) {
	if l.full {
		return
	}
	// The cap protects retained memory; a drop-mode log recycles its
	// ring chunk and retains nothing, so it records (and streams)
	// forever — live monitoring must not silently go blind at 2^22
	// events per process.
	if !l.drop && l.count >= l.max {
		l.full = true
		l.rec.truncated.Store(true)
		l.flushStream()
		return
	}
	if len(l.cur) == cap(l.cur) {
		if l.drop {
			l.cur = l.cur[:0] // the streamed copy is the record; reuse
			l.rec.met.Recycled.Inc()
		} else {
			l.done = append(l.done, l.cur)
			l.cur = l.newChunk(chunkEvents)
		}
	}
	s := stamped{seq: l.rec.seq.Add(1), ev: e}
	l.cur = append(l.cur, s)
	l.count++
	l.rec.met.Events.Inc()
	l.publish(s)
}

// publish batches the stamped event for the live stream. The batch
// flushes when full or when the event completes a transaction, so the
// monitor always sees whole transactions promptly while the channel
// pays one send per batch, not per event.
func (l *ProcLog) publish(s stamped) {
	if l.rec.stream == nil {
		return
	}
	if l.mute {
		l.rec.met.Dropped.Inc()
		return
	}
	if l.batch == nil {
		l.batch = l.rec.newBatch()
	}
	l.batch = append(l.batch, Streamed{Seq: s.seq, Ev: s.ev})
	if len(l.batch) == cap(l.batch) || s.ev.Kind == model.RespCommit || s.ev.Kind == model.RespAbort {
		l.flushStream()
	}
}

// flushStream sends the pending batch, blocking for backpressure; a
// fired stop signal mutes the log instead of blocking forever on a
// departed consumer. A sent batch belongs to the consumer (who may
// Recycle it); a muted log's batch is dropped, never recycled.
func (l *ProcLog) flushStream() {
	r := l.rec
	if r.stream == nil || l.mute || len(l.batch) == 0 {
		return
	}
	out := l.batch
	l.batch = nil // publish takes the next one when there is an event for it
	if r.stop == nil {
		r.stream <- out
		return
	}
	select {
	case r.stream <- out:
	case <-r.stop:
		l.mute = true
		r.met.Dropped.Add(uint64(len(out)))
	}
}

// ReadInv implements native.Observer.
func (l *ProcLog) ReadInv(i int) {
	l.open = true
	l.append(model.Read(l.proc, model.TVar(i)))
}

// ReadReturn implements native.Observer.
func (l *ProcLog) ReadReturn(i int, v int64, aborted bool) {
	if aborted {
		l.open = false
		l.append(model.Abort(l.proc))
		return
	}
	l.append(model.ValueResp(l.proc, model.Value(v)))
}

// WriteInv implements native.Observer.
func (l *ProcLog) WriteInv(i int, v int64) {
	l.open = true
	l.append(model.Write(l.proc, model.TVar(i), model.Value(v)))
}

// WriteReturn implements native.Observer.
func (l *ProcLog) WriteReturn(i int, v int64, aborted bool) {
	if aborted {
		l.open = false
		l.append(model.Abort(l.proc))
		return
	}
	l.append(model.OK(l.proc))
}

// TryCommitInv implements native.Observer.
func (l *ProcLog) TryCommitInv() {
	l.open = true
	l.append(model.TryCommit(l.proc))
}

// TryCommitReturn implements native.Observer.
func (l *ProcLog) TryCommitReturn(committed bool) {
	l.open = false
	if committed {
		l.append(model.Commit(l.proc))
	} else {
		l.append(model.Abort(l.proc))
	}
}

// Abandon implements native.Observer: an attempt ended without a
// tryCommit (body error or declined commit). The native TM discards
// the attempt, recorded as a completion abort so the next attempt
// starts a fresh transaction in the history. Without an open
// transaction there is nothing to complete.
func (l *ProcLog) Abandon() {
	if !l.open {
		return
	}
	l.open = false
	l.append(model.Abort(l.proc))
}
