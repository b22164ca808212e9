// Package record is the low-overhead history recorder for the native
// (real-concurrency) substrate: it turns the linearization-point
// callbacks of internal/native's Observer hooks into a well-formed
// model.History that the safety and liveness checkers can consume.
//
// The design keeps the hot path process-local. Each process appends
// events to its own log — no lock, no cross-process cache traffic
// beyond one shared atomic sequence counter that stamps every event
// with a global order. Invocations are stamped immediately before the
// operation runs and responses immediately after it returns, so a
// stamp-order precedence between two transactions implies genuine
// real-time precedence: the drained history's real-time partial order
// is a subrelation of the true one, which keeps the opacity checker
// sound (it may only see fewer ordering constraints, never invented
// ones).
//
// Retained storage is a list of fixed-size chunks rather than one slice
// grown by append: a filling chunk is never reallocated or copied
// (Chunks reports the total).
//
// # The live stream
//
// With Options.StreamCapacity a recorder also streams every stamped
// event to one consumer while the run executes, which is how the live
// monitor (monitor.Pump, run by every live internal/engine session)
// observes it. Each process owns a
// single-producer/single-consumer ring of Streamed entries, a power of
// two in size; the capacity is split across the processes, so at most
// StreamCapacity events are in flight between the recorder and the
// consumer. The producer writes each entry in place and publishes its
// tail with one atomic store when a transaction completes, or every
// streamBatch events. The consumer (Receive) reads each log's published
// entries in place, hands them to its callback, and then releases the
// slots by storing the log's head. With DropStreamed the ring is the
// log: each event is written once, nothing is retained, and allocation
// is one ring per process however long the run.
//
// Neither side polls. Each sleeps on a one-slot doorbell channel, only
// after it has raised a flag the other side reads and then checked
// once more:
//   - the consumer raises Recorder.parked, rescans every log's tail, and
//     sleeps only if none moved; a producer rings the consumer's bell
//     after a publish only when it sees the flag, so a publish otherwise
//     costs one extra atomic load;
//   - a producer facing a full ring publishes, raises its log's waiting
//     flag, re-reads the head, and sleeps only if the ring is still
//     full; the consumer rings that log's bell after releasing slots
//     only when it sees the flag. A full ring is backpressure, not loss:
//     the producer waits for the consumer. Options.Stop is the escape
//     for a consumer that left — it mutes a waiting producer, and every
//     event the log records from then on is counted in Metrics.Dropped
//     instead of streamed.
//
// Without the re-check either side could sleep on a flag the other
// read a moment too early, and neither would wake. The flags and
// cursors are sequentially consistent atomics, so of two crossing
// "raise flag, read cursor" / "store cursor, read flag" sequences at
// least one side sees the other's write.
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
	"math/bits"
	"sync/atomic"

	"livetm/internal/model"
	"livetm/internal/telemetry"
)

// MaxEventsPerProc is the hard cap on one process's buffer. A process
// that exceeds it stops recording (Truncated reports it) rather than
// growing without bound.
const MaxEventsPerProc = 1 << 22

// chunkEvents is the capacity of one buffer chunk. Chunks are filled
// in place, never copied, and linked into a list.
const chunkEvents = 4096

// Streamed is one stamped event. Seq is the event's position in the
// recorded total order (1-based, contiguous across processes), which
// the stream's consumer uses to restore that order from the per-process
// rings (see Resequencer). It is 24 bytes, the stamp and a 16-byte
// model.Event: the entry of every stream ring slot and retained chunk.
type Streamed struct {
	Seq uint64
	Ev  model.Event
}

// streamBatch is how many events a log stamps at most between two
// publishes. Publishing amortizes the shared writes (the ring's tail,
// Metrics.Events) off the per-event path; a log always publishes when
// its process's transaction completes, so the monitor never waits on a
// partial transaction it already has the completion event for.
const streamBatch = 16

// Options configures a recorder beyond New's defaults.
type Options struct {
	// CapacityHint pre-sizes each process's first chunk in events (a
	// non-positive hint picks a small default; capped at chunkEvents).
	CapacityHint int
	// StreamCapacity, when positive, streams every appended event to the
	// consumer that calls Receive, through one ring per process that
	// together hold at most this many events. An append waits while its
	// ring is full — backpressure, not loss — so the consumer bounds the
	// recorder's memory footprint, not its event rate.
	StreamCapacity int
	// Stop unblocks producers when the stream consumer stops consuming
	// (the live monitor cancelling a run): once Stop is closed, an
	// append waiting on a full ring gives up and the log stops streaming
	// (local recording continues).
	Stop <-chan struct{}
	// DropStreamed makes each process's stream ring its only log: the
	// streamed copy is the only full record, so History returns nil and
	// allocation is one ring per process. Only meaningful with
	// StreamCapacity set.
	DropStreamed bool
	// Metrics, when non-nil, receives the recorder's telemetry. All
	// fields must be set; a nil Metrics records into bare (unregistered)
	// instruments at identical cost, so the hot path has no nil checks.
	Metrics *Metrics
}

// Metrics is the recorder's pre-resolved telemetry handle bundle.
type Metrics struct {
	// Events counts events stamped into the per-process logs. Each log
	// adds its events when it publishes, so between publishes it lags by
	// less than streamBatch events per process, and it is exact once
	// every process's last transaction completed.
	Events *telemetry.Counter
	// Chunks tracks buffer chunks currently allocated (mirrors Chunks).
	Chunks *telemetry.Gauge
	// Laps counts drop-mode ring laps: each time a drop-mode log starts
	// overwriting its ring.
	Laps *telemetry.Counter
	// Dropped counts events the live stream lost after Stop fired and
	// muted a waiting producer.
	Dropped *telemetry.Counter
}

// NewMetrics resolves the recorder's instruments in reg; a nil reg
// gives bare ones, the default of a recorder without Metrics.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Events: reg.Counter("livetm_recorder_events_total",
			"Events stamped into the per-process logs"),
		Chunks: reg.Gauge("livetm_recorder_chunks",
			"Event-buffer chunks currently allocated"),
		Laps: reg.Counter("livetm_recorder_recycled_total",
			"Drop-mode stream-ring laps (slots reused)"),
		Dropped: reg.Counter("livetm_recorder_dropped_total",
			"Events the live stream lost after a stop muted a publisher"),
	}
}

// Recorder owns the shared sequence counter and the per-process logs
// of one run.
type Recorder struct {
	seq atomic.Uint64
	// The pad keeps the consumer's flag off the line every stamp writes:
	// each publish reads the flag.
	_ [64]byte
	// parked is raised while the consumer is about to sleep on bell.
	parked atomic.Bool
	// closed is set by CloseStream once every tail is published.
	closed atomic.Bool
	// bell wakes the consumer (one slot, so ringing it never blocks);
	// nil without a stream.
	bell chan struct{}
	logs []*ProcLog
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
		r.met = NewMetrics(nil)
	}
	size := 0
	if o.StreamCapacity > 0 {
		r.bell = make(chan struct{}, 1)
		// The largest power of two that keeps the rings' total within
		// the capacity (at least one slot each).
		size = 1 << (bits.Len(uint(max(o.StreamCapacity/max(procs, 1), 1))) - 1)
	}
	for i := range r.logs {
		l := &ProcLog{
			rec:  r,
			proc: model.Proc(i + 1),
			max:  MaxEventsPerProc,
			drop: o.DropStreamed && size > 0,
		}
		if size > 0 {
			l.ring = make([]Streamed, size)
			l.mask = uint64(size - 1)
			l.room = make(chan struct{}, 1)
		}
		if l.drop {
			// The ring is the drop-mode log's one chunk.
			r.chunks.Add(1)
			r.met.Chunks.Add(1)
		} else {
			l.cur = l.newChunk(hint)
		}
		r.logs[i] = l
	}
	return r
}

// Receive is the stream's consumer: it waits until some log has
// published events it has not handed out, then calls fn on each such
// log's events, in place and in publish order — one or two contiguous
// slices per log, two when the events wrap around the ring's end. The
// slots are released once fn returns, so fn must copy what it keeps
// (Resequencer.Push does). Receive reports false, without calling fn,
// once CloseStream has run and every event has been handed out.
//
// Only one goroutine may call Receive. Slices from different processes
// can carry sequence numbers out of order, by at most the stream's
// capacity plus streamBatch per process; Resequencer restores the
// total order. On a recorder without a stream, Receive returns false.
func (r *Recorder) Receive(fn func([]Streamed)) bool {
	if r.bell == nil {
		return false
	}
	for !r.take(fn) {
		if r.closed.Load() {
			// CloseStream published every tail before it set closed, so
			// this pass sees everything that is left.
			return r.take(fn)
		}
		r.sleep()
	}
	return true
}

// sleep parks the consumer until a producer publishes or CloseStream
// rings (or a stale bell token wakes it early).
func (r *Recorder) sleep() {
	r.parked.Store(true)
	// The re-check after raising the flag: a producer that published
	// before it could see the flag rang no bell.
	if !r.pending() {
		<-r.bell
	}
	r.parked.Store(false)
}

// take hands fn every event published since the last take, log by log,
// releases their slots, and wakes a producer waiting for room. It
// reports whether there were any events.
func (r *Recorder) take(fn func([]Streamed)) bool {
	got := false
	for _, l := range r.logs {
		head, tail := l.head.Load(), l.pub.Load()
		if head == tail {
			continue
		}
		got = true
		size := uint64(len(l.ring))
		from, n := head&l.mask, tail-head
		if from+n <= size {
			fn(l.ring[from : from+n])
		} else {
			fn(l.ring[from:])
			fn(l.ring[:from+n-size])
		}
		l.head.Store(tail)
		if l.waiting.Load() {
			ring(l.room)
		}
	}
	return got
}

// pending reports whether any log has published events not yet taken.
func (r *Recorder) pending() bool {
	for _, l := range r.logs {
		if l.pub.Load() != l.head.Load() {
			return true
		}
	}
	return false
}

// ring wakes whoever sleeps on a one-slot doorbell, or leaves the
// token for its next sleep; it never blocks.
func ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// CloseStream publishes every log's unpublished tail and ends the
// stream: Receive hands out what is left and then reports false. Call
// it only after every producing goroutine has quiesced.
func (r *Recorder) CloseStream() {
	if r.bell == nil {
		return
	}
	for _, l := range r.logs {
		l.publish()
	}
	r.closed.Store(true)
	ring(r.bell)
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
// events a drop-mode ring has since overwritten). Call it only after
// the run quiesced.
func (r *Recorder) Events() int {
	n := 0
	for _, l := range r.logs {
		n += l.count
	}
	return n
}

// Chunks returns the total number of buffer chunks allocated across
// all processes — the recorder's allocation figure. In drop mode it
// stays at one ring per process no matter how long the run is. Safe to
// call while the run is still recording.
func (r *Recorder) Chunks() int {
	return int(r.chunks.Load())
}

// History drains the recorder: the per-process buffers merged by
// global sequence number into one history. Call it only after the run
// quiesced (no goroutine is still appending). A recorder in drop mode
// retains nothing and returns nil — the stream was the record.
func (r *Recorder) History() model.History {
	bufs := make([][]Streamed, len(r.logs))
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
			if s := buf[heads[i]].Seq; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		out = append(out, bufs[best][heads[best]].Ev)
		heads[best]++
	}
	return out
}

// ProcLog is one process's event buffer. It implements
// native.Observer: the engine hands it to the native retry loop, which
// calls it at every linearization point on the process's goroutine.
type ProcLog struct {
	rec     *Recorder
	proc    model.Proc
	done    [][]Streamed // filled chunks, in order (retained mode)
	cur     []Streamed   // chunk being filled (retained mode)
	count   int          // events recorded over the log's lifetime
	counted int          // events already added to Metrics.Events
	max     int          // per-process cap (MaxEventsPerProc; lowered in tests)
	open    bool         // a transaction of this process is open in the log
	full    bool         // hit the cap; recording stopped
	drop    bool         // the ring is the only log
	mute    bool         // stop fired while waiting for room; no further streaming

	// The producer's side of the stream ring (ring is nil without a
	// stream). tail, sent and seen are producer-local copies: the next
	// slot to write, the tail last published, the head last read.
	ring             []Streamed
	mask             uint64
	tail, sent, seen uint64
	room             chan struct{} // wakes the producer waiting for room

	// The shared cursors, each on its own cache line, away from the
	// producer's fields: pub is stored by the producer and read by the
	// consumer, head and waiting the other way round.
	_       [64]byte
	pub     atomic.Uint64
	_       [56]byte
	head    atomic.Uint64
	waiting atomic.Bool
	_       [48]byte
}

func (l *ProcLog) newChunk(capacity int) []Streamed {
	l.rec.chunks.Add(1)
	l.rec.met.Chunks.Add(1)
	return make([]Streamed, 0, capacity)
}

// all returns the log's retained events in order as one slice.
func (l *ProcLog) all() []Streamed {
	out := make([]Streamed, 0, l.count)
	for _, c := range l.done {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// append stamps, stores and streams one event. Once the cap is hit the
// log stops recording entirely (after publishing what was already
// stamped): dropping a tail keeps the per-process history a clean
// prefix, while dropping interior events would break well-formedness.
func (l *ProcLog) append(e model.Event) {
	if l.full {
		return
	}
	// The cap protects retained memory; a drop-mode log retains nothing,
	// so it records (and streams) forever — live monitoring must not
	// silently go blind at 2^22 events per process.
	if !l.drop && l.count >= l.max {
		l.full = true
		l.rec.truncated.Store(true)
		l.publish()
		return
	}
	if !l.drop && len(l.cur) == cap(l.cur) {
		l.done = append(l.done, l.cur)
		l.cur = l.newChunk(chunkEvents)
	}
	// Room first, stamp second: waiting for the consumer must not stretch
	// the gap between an invocation's stamp and its operation.
	streamed := l.ring != nil && !l.mute && l.reserve()
	s := Streamed{Seq: l.rec.seq.Add(1), Ev: e}
	l.count++
	if !l.drop {
		l.cur = append(l.cur, s)
	}
	switch {
	case streamed:
		if l.drop && l.tail&l.mask == 0 && l.tail > 0 {
			l.rec.met.Laps.Inc()
		}
		l.ring[l.tail&l.mask] = s
		l.tail++
	case l.ring != nil:
		l.rec.met.Dropped.Inc()
	}
	if e.Kind == model.RespCommit || e.Kind == model.RespAbort || l.count-l.counted >= streamBatch {
		l.publish()
	}
}

// reserve makes sure the ring has a free slot, waiting for one if it
// is full. A full ring is published first, since the consumer can only
// free what it can see. It reports false if the log was muted while it
// waited.
func (l *ProcLog) reserve() bool {
	size := uint64(len(l.ring))
	if l.tail-l.seen < size {
		return true
	}
	if l.seen = l.head.Load(); l.tail-l.seen < size {
		return true
	}
	l.publish()
	return l.wait()
}

// wait parks the producer until the consumer frees a slot. It reports
// false, muting the log, if Stop fires first.
func (l *ProcLog) wait() bool {
	for {
		l.waiting.Store(true)
		// The re-check after raising the flag: the consumer may have
		// freed the ring before it could see the flag.
		if l.seen = l.head.Load(); l.tail-l.seen < uint64(len(l.ring)) {
			l.waiting.Store(false)
			return true
		}
		select {
		case <-l.room:
		case <-l.rec.stop: // nil without Options.Stop: never ready
			l.waiting.Store(false)
			l.mute = true
			return false
		}
	}
}

// publish makes the events appended since the last publish visible:
// it adds them to Metrics.Events and, on a stream, stores the ring's
// tail for the consumer, ringing its bell if it is parked.
func (l *ProcLog) publish() {
	if n := l.count - l.counted; n > 0 {
		l.counted = l.count
		l.rec.met.Events.Add(uint64(n))
	}
	if l.tail == l.sent {
		return
	}
	l.sent = l.tail
	l.pub.Store(l.tail)
	if r := l.rec; r.parked.Load() {
		ring(r.bell)
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
