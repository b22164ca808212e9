package safety

import (
	"math/rand"
	"testing"

	"livetm/internal/model"
)

// genSingle decodes bytes into one completed transaction and the
// snapshot it starts from, over three variables each missing or
// holding 0..3. Reads mostly return what is legal (the transaction's
// own latest write, else the start's value), one in four times an
// arbitrary value; writes store arbitrary small values. An operation
// answered by an abort makes the transaction aborted, and the bytes
// may go on adding operations after it, which no check may look at. A
// transaction with no such operation commits with a final tryC. Every
// byte string decodes to something, so the fuzzer and the seeded test
// share it.
func genSingle(data []byte) (*model.Transaction, model.Snapshot) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	const nvars = 3
	start := model.Snapshot{}
	for x := range nvars {
		if v := next() % 4; v != 3 { // 3 leaves the variable missing, 0 stores an explicit initial value
			start[model.TVar(x)] = model.Value(v)
		}
	}
	t := &model.Transaction{Proc: 1, Status: model.Committed}
	own := map[model.TVar]model.Value{}
	for at < len(data) && len(t.Ops) < 12 {
		x := model.TVar(next() % nvars)
		legal, wrote := own[x]
		if !wrote {
			legal = start.Get(x)
		}
		switch act := next() % 8; {
		case act < 4:
			if next()%4 == 0 {
				legal = model.Value(next() % 4)
			}
			t.Ops = append(t.Ops, model.Op{Kind: model.OpRead, Var: x, Val: legal})
		case act < 7:
			v := model.Value(next() % 4)
			own[x] = v
			t.Ops = append(t.Ops, model.Op{Kind: model.OpWrite, Var: x, Val: v})
		default:
			t.Ops = append(t.Ops, model.Op{Kind: model.OpRead + model.OpKind(next()%3), Var: x, Aborted: true})
			t.Status = model.Aborted
		}
	}
	if t.Status == model.Committed {
		t.Ops = append(t.Ops, model.Op{Kind: model.OpTryCommit})
	}
	return t, start
}

// checkInPlace holds the checker's in-place path to the kernel on one
// transaction from one start: both accept or both reject, an accepted
// transaction leaves the state the kernel's one final is, and a
// rejected one leaves the start untouched. It reports whether the
// kernel accepted.
func checkInPlace(t *testing.T, txn *model.Transaction, start model.Snapshot) bool {
	t.Helper()
	want, err := testKernel.feasibleFinals([]*model.Transaction{txn}, []model.Snapshot{start.Clone()}, 0)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if len(want) > 1 {
		t.Fatalf("kernel: %d finals from one start for %s", len(want), txn)
	}
	c := &StreamChecker{states: []model.Snapshot{start.Clone()}}
	ok := c.inPlace(txn)
	if ok != (len(want) == 1) {
		t.Fatalf("in place accepts=%t, kernel accepts=%t\n%s from %v", ok, len(want) == 1, txn, start)
	}
	got, wantState := canonState(c.states[0]), canonState(start)
	if ok {
		wantState = canonState(want[0])
	}
	if got != wantState {
		t.Fatalf("in place ends in %q, want %q (accepted=%t)\n%s from %v", got, wantState, ok, txn, start)
	}
	return ok
}

// FuzzSingleSegmentAgainstKernel is the differential test of the
// streaming checker's one-transaction path against the exact search.
// The committed corpus under testdata/fuzz holds a seed per shape: a
// read of the transaction's own write and a stale read after it,
// repeated reads and a repeated read that differs, a failed read, an
// abort midway with operations after it, and a tryC that aborts.
func FuzzSingleSegmentAgainstKernel(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 0, 1, 0, 4, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // twelve operations never need more
		}
		txn, start := genSingle(data)
		checkInPlace(t, txn, start)
	})
}

// TestSingleSegmentAgainstKernel runs the differential check on seeded
// random transactions and requires that they reach every shape the
// generator has.
func TestSingleSegmentAgainstKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var accepted, rejected, aborted, after, ownReads, rereads int
	for range 4000 {
		data := make([]byte, 4+rng.Intn(40))
		rng.Read(data)
		txn, start := genSingle(data)
		if checkInPlace(t, txn, start) {
			accepted++
		} else {
			rejected++
		}
		wrote, read := map[model.TVar]bool{}, map[model.TVar]bool{}
		for i, op := range txn.Ops {
			if op.Aborted {
				aborted++
				if i < len(txn.Ops)-1 {
					after++
				}
				break
			}
			switch {
			case op.Kind == model.OpWrite:
				wrote[op.Var] = true
			case op.Kind != model.OpRead:
			case wrote[op.Var]:
				ownReads++
			case read[op.Var]:
				rereads++
			default:
				read[op.Var] = true
			}
		}
	}
	t.Logf("%d accepted, %d rejected, %d aborted (%d with operations after the abort), %d reads of own writes, %d repeated reads",
		accepted, rejected, aborted, after, ownReads, rereads)
	if accepted < 400 || rejected < 400 || aborted < 400 || after < 100 || ownReads < 400 || rereads < 400 {
		t.Fatal("the generator no longer reaches every shape")
	}
}
