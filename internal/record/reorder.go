package record

import "livetm/internal/model"

// resequencerWindow is the reorder window of a Resequencer: a power of
// two larger than any stream capacity plus streamBatch per process this
// package's consumers use, so the per-event path stays on the ring and
// the overflow map only absorbs the pathological case of a process
// descheduled mid-publish for longer than the whole in-flight window.
const resequencerWindow = 1 << 16

// Resequencer restores the recorder's total order from the live
// stream's per-process slices (Recorder.Receive). Events of different
// processes can overtake each other between stamping and publishing by
// at most the in-flight window (the rings' capacity plus streamBatch
// per process), so a ring indexed by sequence number reorders them
// without a map on the per-event path.
//
// A Resequencer is not safe for concurrent use; feed it from the one
// goroutine that drains the stream.
type Resequencer struct {
	ring     []model.Event
	present  []bool
	overflow map[uint64]model.Event
	next     uint64
}

// NewResequencer creates a resequencer expecting sequence numbers from
// 1 (the recorder's first stamp).
func NewResequencer() *Resequencer {
	return &Resequencer{
		ring:     make([]model.Event, resequencerWindow),
		present:  make([]bool, resequencerWindow),
		overflow: make(map[uint64]model.Event),
		next:     1,
	}
}

// Push absorbs one slice of stamped events and emits every event that
// is now contiguous with the restored order, in sequence order. It
// keeps no reference to the slice.
func (r *Resequencer) Push(batch []Streamed, emit func(model.Event)) {
	for _, s := range batch {
		if s.Seq >= r.next+resequencerWindow {
			r.overflow[s.Seq] = s.Ev
		} else {
			r.ring[s.Seq%resequencerWindow] = s.Ev
			r.present[s.Seq%resequencerWindow] = true
		}
	}
	for {
		slot := r.next % resequencerWindow
		if !r.present[slot] {
			if ev, ok := r.overflow[r.next]; ok {
				delete(r.overflow, r.next)
				r.ring[slot] = ev
			} else {
				return
			}
		}
		ev := r.ring[slot]
		r.present[slot] = false
		r.next++
		emit(ev)
	}
}

// Pending reports how many events are buffered out of order, waiting
// for an earlier sequence number to arrive.
func (r *Resequencer) Pending() int {
	n := len(r.overflow)
	for _, p := range r.present {
		if p {
			n++
		}
	}
	return n
}
