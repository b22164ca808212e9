package safety

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"livetm/internal/model"
)

// fig1 is Figure 1: T1 reads 0, T2 reads 0 / writes 1 / commits, then
// T1's write is ok'd and its commit aborted. Opaque and strictly
// serializable.
func fig1() model.History {
	return model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Read(2, 0), model.ValueResp(2, 0),
		model.Write(2, 0, 1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
		model.Write(1, 0, 1), model.OK(1),
		model.TryCommit(1), model.Abort(1),
	}
}

// fig3 is Figure 3: both transactions read 0, write 1, and commit —
// neither opaque nor strictly serializable (lost update).
func fig3() model.History {
	return model.NewBuilder().
		Read(1, 0, 0).
		Read(2, 0, 0).Write(2, 0, 1).Commit(2).
		Write(1, 0, 1).Commit(1).
		History()
}

// fig4 is Figure 4: T2 writes 1 and commits while T1 is live; T1 then
// reads 1 and aborts. Strictly serializable (committed part is just
// T2) but not opaque (T1 read 0 then 1: no single consistent point).
func fig4() model.History {
	return model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Write(2, 0, 1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
		model.Read(1, 0), model.ValueResp(1, 1),
		model.TryCommit(1), model.Abort(1),
	}
}

// figAlg1Termination is the Figure 8 / Figure 11 suffix: both
// processes read v, both write v+1, both commit. The proof of Theorem
// 1 shows it is not opaque; with both committed it is not strictly
// serializable either.
func figAlg1Termination(v model.Value) model.History {
	return model.History{
		model.Read(1, 0), model.ValueResp(1, v),
		model.Read(2, 0), model.ValueResp(2, v),
		model.Write(2, 0, v+1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
		model.Write(1, 0, v+1), model.OK(1),
		model.TryCommit(1), model.Commit(1),
	}
}

func TestFigureVerdicts(t *testing.T) {
	tests := []struct {
		name   string
		h      model.History
		opaque bool
		ss     bool
	}{
		{"figure 1", fig1(), true, true},
		{"figure 3", fig3(), false, false},
		{"figure 4", fig4(), false, true},
		{"figures 8 and 11 (v=0)", figAlg1Termination(0), false, false},
		{"figures 8 and 11 (v=41)", figAlg1Termination(41), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			op, err := CheckOpacity(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := CheckStrictSerializability(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if op.Holds != tt.opaque {
				t.Errorf("opaque = %v (%s), want %v", op.Holds, op.Reason, tt.opaque)
			}
			if ss.Holds != tt.ss {
				t.Errorf("strictly serializable = %v (%s), want %v", ss.Holds, ss.Reason, tt.ss)
			}
		})
	}
}

func TestWitnessIsLegalAndEquivalent(t *testing.T) {
	h := fig1()
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("figure 1 must be opaque: %s", res.Reason)
	}
	w := res.WitnessHistory()
	if seq, _ := model.IsSequential(w); !seq {
		t.Error("witness must be sequential")
	}
	if err := model.LegalSequence(res.Witness); err != nil {
		t.Errorf("witness order must be legal: %v", err)
	}
	if !w.Equivalent(model.Complete(h)) {
		t.Error("witness must be equivalent to com(H)")
	}
	// In Figure 1 the only legal order puts aborted T1 first.
	if res.Witness[0].Proc != 1 {
		t.Errorf("figure 1 witness order starts with T%d, want T1", res.Witness[0].Proc)
	}
}

func TestWitnessHistoryNilOnViolation(t *testing.T) {
	res, err := CheckOpacity(fig3())
	if err != nil {
		t.Fatal(err)
	}
	if res.WitnessHistory() != nil {
		t.Error("violating history must have nil witness")
	}
	if res.Reason == "" {
		t.Error("violation must carry a reason")
	}
	if !strings.Contains(res.Reason, "T") {
		t.Errorf("reason should mention transactions: %q", res.Reason)
	}
}

func TestEmptyAndTrivialHistories(t *testing.T) {
	for _, h := range []model.History{
		nil,
		{},
		model.NewBuilder().Read(1, 0, 0).Commit(1).History(),
		model.NewBuilder().ReadAbort(1, 0).History(),
		{model.Read(1, 0)}, // live transaction, pending read
	} {
		op, err := CheckOpacity(h)
		if err != nil {
			t.Fatal(err)
		}
		if !op.Holds {
			t.Errorf("trivial history %v must be opaque: %s", h, op.Reason)
		}
		ss, err := CheckStrictSerializability(h)
		if err != nil {
			t.Fatal(err)
		}
		if !ss.Holds {
			t.Errorf("trivial history %v must be strictly serializable", h)
		}
	}
}

func TestOpacityRequiresRealTimeOrder(t *testing.T) {
	// T1 commits writing 1, then strictly later T2 reads 0: the only
	// legal serialization (T2 before T1) violates real-time order.
	h := model.NewBuilder().
		Write(1, 0, 1).Commit(1).
		Read(2, 0, 0).Commit(2).
		History()
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("stale read after a committed write in strict sequence must not be opaque")
	}
}

func TestOpacityAllowsConcurrentReordering(t *testing.T) {
	// Same reads/writes, but T2 starts before T1 ends: serializing T2
	// first is now allowed.
	h := model.History{
		model.Write(1, 0, 1), model.OK(1),
		model.Read(2, 0), model.ValueResp(2, 0),
		model.TryCommit(1), model.Commit(1),
		model.TryCommit(2), model.Commit(2),
	}
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("concurrent transactions may serialize in either order: %s", res.Reason)
	}
}

func TestAbortedTransactionsMustSeeConsistentState(t *testing.T) {
	// The aborted T1 reads x=1,y=0 while the only committed state
	// transitions are (0,0) -> (1,1). Strictly serializable (T1 is
	// dropped) but not opaque.
	h := model.History{
		model.Read(1, 0), model.ValueResp(1, 1), // T1 reads x=1 ...
		model.Read(1, 1), model.ValueResp(1, 0), // ... and y=0: inconsistent
		model.TryCommit(1), model.Abort(1),
		model.Write(2, 0, 1), model.OK(2),
		model.Write(2, 1, 1), model.OK(2),
		model.TryCommit(2), model.Commit(2),
	}
	op, _ := CheckOpacity(h)
	if op.Holds {
		t.Error("aborted transaction observing a mixed snapshot must break opacity")
	}
	ss, _ := CheckStrictSerializability(h)
	if !ss.Holds {
		t.Errorf("dropping the aborted transaction leaves a serializable history: %s", ss.Reason)
	}
}

func TestOpacityImpliesStrictSerializabilityProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := genHistory(raw)
		op, err := CheckOpacity(h)
		if err != nil {
			return true // oversized histories are out of scope
		}
		if !op.Holds {
			return true
		}
		ss, err := CheckStrictSerializability(h)
		if err != nil {
			return true
		}
		return ss.Holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestNaiveCheckerAgreesProperty: the front door, the pruned reference
// and the naive reference agree on every small random history.
func TestNaiveCheckerAgreesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := genHistory(raw)
		txns, err := model.Transactions(h)
		if err != nil || len(txns) > 6 {
			return true // keep the naive search tractable
		}
		fast, err1 := CheckOpacity(h)
		pruned, err2 := referenceOpacity(h)
		slow, err3 := referenceNaive(h)
		if err1 != nil || err2 != nil || err3 != nil {
			return err1 != nil && err2 != nil && err3 != nil
		}
		return fast.Holds == slow.Holds && pruned.Holds == slow.Holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPruningExploresLess: legality pruning never makes the reference
// search visit more prefixes.
func TestPruningExploresLess(t *testing.T) {
	h := figAlg1Termination(0)
	fast, err := referenceOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := referenceNaive(h)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Explored > slow.Explored {
		t.Errorf("pruning explored %d prefixes, naive %d — pruning should not explore more",
			fast.Explored, slow.Explored)
	}
}

// --- Commit-pending completion (the [18]-style completion) ---

// TestCommitPendingMayCommit: a helper finished the crashed
// committer's transaction, so its writes are visible although its C
// event was never delivered. The completion must be allowed to commit
// the pending tryC (found by the crash-exhaustive model checker).
func TestCommitPendingMayCommit(t *testing.T) {
	h := model.History{
		model.Write(1, 0, 7), model.OK(1),
		model.TryCommit(1), // p1 crashes here; a helper completes the commit
		model.Read(2, 0), model.ValueResp(2, 7),
		model.TryCommit(2), model.Commit(2),
	}
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("commit-pending completion must admit the helped commit: %s", res.Reason)
	}
	// The witness must complete T1.0 as committed.
	if res.Witness[0].ID() != "T1.0" || res.Witness[0].Status != model.Committed {
		t.Errorf("witness[0] = %s, want committed T1.0", res.Witness[0])
	}
	if err := model.LegalSequence(res.Witness); err != nil {
		t.Errorf("witness order must be legal: %v", err)
	}
	c, err := NewStreamChecker(8)
	if err != nil {
		t.Fatal(err)
	}
	if seg := streamVerdict(t, c, h); !seg.Holds {
		t.Errorf("streaming checker must agree: %s", seg.Reason)
	}
}

// TestCommitPendingMayAbort: the same pending tryC completed as
// aborted when committing would be illegal.
func TestCommitPendingMayAbort(t *testing.T) {
	h := model.History{
		model.Write(1, 0, 7), model.OK(1),
		model.TryCommit(1), // pending forever; nothing was published
		model.Read(2, 0), model.ValueResp(2, 0),
		model.TryCommit(2), model.Commit(2),
	}
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("abort-completion must admit the unpublished commit: %s", res.Reason)
	}
}

// TestCommitPendingCannotHaveItBothWays: two readers observing
// contradictory fates of the same pending commit stay non-opaque.
func TestCommitPendingCannotHaveItBothWays(t *testing.T) {
	h := model.History{
		model.Write(1, 0, 7), model.OK(1),
		model.TryCommit(1),
		// Both readers run strictly after each other: r2 sees 7, r3
		// later sees 0 — no single completion explains both.
		model.Read(2, 0), model.ValueResp(2, 7),
		model.TryCommit(2), model.Commit(2),
		model.Read(3, 0), model.ValueResp(3, 0),
		model.TryCommit(3), model.Commit(3),
	}
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("contradictory observations of one pending commit must be rejected")
	}
}

// TestNonCommitPendingLiveStaysAborted: a live transaction whose
// pending invocation is a read or write is still completed by
// aborting; its writes can never become visible.
func TestNonCommitPendingLiveStaysAborted(t *testing.T) {
	h := model.History{
		model.Write(1, 0, 7), model.OK(1),
		model.Read(1, 1), // pending read: not commit-pending
		model.Read(2, 0), model.ValueResp(2, 7),
		model.TryCommit(2), model.Commit(2),
	}
	res, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("a live non-commit-pending transaction's writes must stay invisible")
	}
}

// TestTooManyTransactions: past the search's 64-transaction cap the
// front door decides segment by segment, without a witness, and
// refuses a cut-free stretch past the cap as undecidable, never as a
// violation. A streaming checker asked for a budget beyond the cap is
// refused with ErrTooManyTransactions.
func TestTooManyTransactions(t *testing.T) {
	b := model.NewBuilder()
	for i := 0; i < 70; i++ {
		b.Read(1, 0, 0).Commit(1)
	}
	res, err := CheckOpacity(b.History())
	if err != nil || !res.Holds || res.Witness != nil {
		t.Errorf("70 sequential readers: holds=%v witness=%d err=%v, want opaque without a witness", res.Holds, len(res.Witness), err)
	}
	// p2 stays live across all 70: no quiescent cut anywhere.
	b = model.NewBuilder()
	b.Raw(model.Read(2, 0), model.ValueResp(2, 0))
	for i := 0; i < 70; i++ {
		b.Read(1, 0, 0).Commit(1)
	}
	if _, err := CheckOpacity(b.History()); !errors.Is(err, ErrNoQuiescentCut) {
		t.Errorf("a cut-free stretch of 71 transactions: got %v, want ErrNoQuiescentCut", err)
	}
	if _, err := NewStreamChecker(70); !errors.Is(err, ErrTooManyTransactions) {
		t.Errorf("stream checker: expected ErrTooManyTransactions, got %v", err)
	}
}

func TestMalformedHistoryErrors(t *testing.T) {
	bad := model.History{model.OK(1)}
	if _, err := CheckOpacity(bad); err == nil {
		t.Error("CheckOpacity must reject malformed histories")
	}
	if _, err := CheckStrictSerializability(bad); err == nil {
		t.Error("CheckStrictSerializability must reject malformed histories")
	}
	if _, err := referenceNaive(bad); err == nil {
		t.Error("the naive reference must reject malformed histories")
	}
}

// genHistory derives a small well-formed history from fuzz bytes:
// whole operations of up to three processes over two variables with
// values in {0,1,2}.
func genHistory(raw []uint8) model.History {
	if len(raw) > 24 {
		raw = raw[:24]
	}
	b := model.NewBuilder()
	for _, c := range raw {
		p := model.Proc(c%3 + 1)
		x := model.TVar(c / 3 % 2)
		v := model.Value(c / 6 % 3)
		switch c % 6 {
		case 0, 1:
			b.Read(p, x, v)
		case 2:
			b.Write(p, x, v)
		case 3:
			b.Commit(p)
		case 4:
			b.CommitAbort(p)
		case 5:
			b.ReadAbort(p, x)
		}
	}
	return b.History()
}

// WitnessHistory renders the witness as a complete sequential history,
// or nil when the property does not hold.
func (r Result) WitnessHistory() model.History {
	if !r.Holds {
		return nil
	}
	return model.SequentialHistory(r.Witness)
}
