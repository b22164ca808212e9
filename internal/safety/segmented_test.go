package safety

import (
	"errors"
	"testing"
	"testing/quick"

	"livetm/internal/model"
)

// padded returns h behind 64 committed read-only transactions of a
// process and a variable h does not use. They precede all of h in real
// time and commute with it, so the padded history has h's verdict, but
// at more than 64 transactions the front door decides it segment by
// segment at quiescent cuts instead of in one search.
func padded(h model.History) model.History {
	b := model.NewBuilder()
	for i := 0; i < 64; i++ {
		b.Read(100, 100, 0).Commit(100)
	}
	return append(b.History(), h...)
}

// TestSegmentedAgreesOnFigures: the figures keep their verdicts when
// the front door decides them segment by segment.
func TestSegmentedAgreesOnFigures(t *testing.T) {
	tests := []struct {
		name string
		h    model.History
		want bool
	}{
		{"fig1", fig1(), true},
		{"fig3", fig3(), false},
		{"fig4", fig4(), false},
		{"fig8", figAlg1Termination(0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := CheckOpacity(padded(tt.h))
			if err != nil {
				t.Fatal(err)
			}
			if res.Holds != tt.want {
				t.Errorf("segmented = %v (%s), want %v", res.Holds, res.Reason, tt.want)
			}
		})
	}
}

// Property: the front door's segment path agrees with the reference on
// every small random history.
func TestSegmentedAgreesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := genHistory(raw)
		mono, err := referenceOpacity(h)
		if err != nil {
			return true
		}
		seg, err := CheckOpacity(padded(h))
		if err != nil {
			return false
		}
		return seg.Holds == mono.Holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestSegmentedLongHistory verifies a history far beyond the 64-txn
// search cap: 200 sequential counter transactions.
func TestSegmentedLongHistory(t *testing.T) {
	b := model.NewBuilder()
	for i := 0; i < 200; i++ {
		p := model.Proc(i%3 + 1)
		b.Read(p, 0, model.Value(i)).Write(p, 0, model.Value(i+1)).Commit(p)
	}
	res, err := CheckOpacity(b.History())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("sequential counter chain must be opaque: %s", res.Reason)
	}
	if res.Witness != nil {
		t.Errorf("a history past the cap is decided without a witness, got %d transactions", len(res.Witness))
	}
}

// TestSegmentedLongViolation plants a stale read deep inside a long
// history and checks the front door localizes the failure.
func TestSegmentedLongViolation(t *testing.T) {
	b := model.NewBuilder()
	for i := 0; i < 80; i++ {
		p := model.Proc(i%2 + 1)
		b.Read(p, 0, model.Value(i)).Write(p, 0, model.Value(i+1)).Commit(p)
	}
	// The stale read: value 0 was overwritten 80 commits ago.
	b.Read(1, 0, 0).Commit(1)
	res, err := CheckOpacity(b.History())
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("stale read must be caught")
	}
	if res.Reason == "" {
		t.Error("violation must carry a localized reason")
	}
}

// TestSegmentedSnapshotAmbiguity: two concurrent committed writers
// with no reads can serialize either way, leaving two feasible
// snapshots; the next segment is opaque under only one of them. The
// segment path must keep both and accept.
func TestSegmentedSnapshotAmbiguity(t *testing.T) {
	h := model.History{
		// Segment 1: w1 and w2 concurrent, both commit blind writes.
		model.Write(1, 0, 1), model.OK(1),
		model.Write(2, 0, 2), model.OK(2),
		model.TryCommit(1), model.Commit(1),
		model.TryCommit(2), model.Commit(2),
		// Segment 2: a reader sees 1 — only the w2-then-w1 order fits.
		model.Read(3, 0), model.ValueResp(3, 1),
		model.TryCommit(3), model.Commit(3),
	}
	res, err := CheckOpacity(padded(h))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("must hold via the w2;w1 serialization: %s", res.Reason)
	}
	// Control: reading 3 is infeasible under either order.
	bad := h.Clone()
	bad[9] = model.ValueResp(3, 3)
	res, err = CheckOpacity(padded(bad))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("reading 3 must fail")
	}
}

// concurrentReaders returns n pairwise-concurrent transactions that
// read the initial value and commit.
func concurrentReaders(n int) model.History {
	var h model.History
	for p := model.Proc(1); p <= model.Proc(n); p++ {
		h = append(h, model.Read(p, 0), model.ValueResp(p, 0))
	}
	for p := model.Proc(1); p <= model.Proc(n); p++ {
		h = append(h, model.TryCommit(p), model.Commit(p))
	}
	return h
}

func TestSegmentedNoCut(t *testing.T) {
	// 65 pairwise-concurrent transactions: no cut, and one past the cap.
	_, err := CheckOpacity(concurrentReaders(65))
	if !errors.Is(err, ErrNoQuiescentCut) {
		t.Errorf("err = %v, want ErrNoQuiescentCut", err)
	}
	// 64 fit one search and hold: all transactions read the initial
	// value and write nothing.
	res, err := CheckOpacity(concurrentReaders(64))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("read-only concurrent transactions are opaque: %s", res.Reason)
	}
}

func TestSegmentedValidation(t *testing.T) {
	if _, err := NewStreamChecker(0); err == nil {
		t.Error("budget 0 must be rejected")
	}
	if _, err := NewStreamChecker(65); err == nil {
		t.Error("budget > 64 must be rejected")
	}
	if _, err := CheckOpacity(padded(model.History{model.OK(1)})); err == nil {
		t.Error("malformed history must be rejected")
	}
	res, err := CheckOpacity(nil)
	if err != nil || !res.Holds {
		t.Error("empty history is opaque")
	}
}

// TestSegmentedLiveTransactionBlocksCut: a transaction left live spans
// to the end of the history, so cuts after its start are not
// quiescent, and the final stretch holds 65 transactions.
func TestSegmentedLiveTransactionBlocksCut(t *testing.T) {
	b := model.NewBuilder()
	b.Raw(model.Read(3, 1)) // p3 starts and never finishes
	for i := 0; i < 64; i++ {
		b.Read(1, 0, model.Value(i)).Write(1, 0, model.Value(i+1)).Commit(1)
	}
	_, err := CheckOpacity(b.History())
	if !errors.Is(err, ErrNoQuiescentCut) {
		t.Errorf("err = %v, want ErrNoQuiescentCut (live transaction spans everything)", err)
	}
}
