package record

import (
	"testing"

	"livetm/internal/model"
)

// TestResequencerRestoresOrder: batches arriving out of order (as
// per-process publishes legally do) come out in sequence order, each
// event exactly once.
func TestResequencerRestoresOrder(t *testing.T) {
	rs := NewResequencer()
	ev := func(seq uint64) Streamed {
		return Streamed{Seq: seq, Ev: model.Read(model.Proc(seq%3+1), model.TVar(seq))}
	}
	var got []uint64
	emit := func(e model.Event) { got = append(got, uint64(e.Var)) }

	rs.Push([]Streamed{ev(3), ev(4)}, emit)
	if len(got) != 0 {
		t.Fatalf("nothing is contiguous yet, emitted %v", got)
	}
	if rs.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", rs.Pending())
	}
	rs.Push([]Streamed{ev(1)}, emit)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after seq 1: %v", got)
	}
	rs.Push([]Streamed{ev(2)}, emit)
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if rs.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", rs.Pending())
	}
}

// TestResequencerOverflow: a sequence number beyond the ring window
// parks in the overflow map and still comes out in order.
func TestResequencerOverflow(t *testing.T) {
	rs := NewResequencer()
	far := uint64(resequencerWindow) + 5
	var got []uint64
	rs.Push([]Streamed{{Seq: far, Ev: model.OK(1)}}, func(model.Event) { got = append(got, far) })
	if len(got) != 0 {
		t.Fatal("overflow event must wait for its predecessors")
	}
	if rs.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", rs.Pending())
	}
	batch := make([]Streamed, 0, far-1)
	for s := uint64(1); s < far; s++ {
		batch = append(batch, Streamed{Seq: s, Ev: model.OK(2)})
	}
	n := 0
	rs.Push(batch, func(model.Event) { n++ })
	if n != int(far) {
		t.Fatalf("emitted %d events, want %d (overflow included)", n, far)
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
