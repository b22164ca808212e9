package model

import (
	"testing"
	"testing/quick"
)

// fig1History is the history of Figure 1: p1 reads 0; p2 reads 0,
// writes 1, commits; p1 writes 1 and is aborted.
func fig1History() History {
	return History{
		Read(1, 0), ValueResp(1, 0),
		Read(2, 0), ValueResp(2, 0),
		Write(2, 0, 1), OK(2),
		TryCommit(2), Commit(2),
		Write(1, 0, 1), OK(1),
		TryCommit(1), Abort(1),
	}
}

func TestCheckWellFormed(t *testing.T) {
	tests := []struct {
		name    string
		h       History
		wantErr bool
	}{
		{"empty", History{}, false},
		{"figure1", fig1History(), false},
		{"pending invocation at end", History{Read(1, 0)}, false},
		{"double invocation", History{Read(1, 0), Write(1, 0, 1)}, true},
		{"orphan response", History{ValueResp(1, 0)}, true},
		{"mismatched response", History{Read(1, 0), OK(1)}, true},
		{"commit answers read", History{Read(1, 0), Commit(1)}, true},
		{"abort answers anything", History{Write(1, 0, 1), Abort(1)}, false},
		{"completion abort on open txn", History{Read(1, 0), ValueResp(1, 0), Abort(1)}, false},
		{"abort without open txn", History{Abort(1)}, true},
		{"abort after committed txn", History{Read(1, 0), ValueResp(1, 0), TryCommit(1), Commit(1), Abort(1)}, true},
		{"interleaved ok", History{Read(1, 0), Read(2, 0), ValueResp(2, 0), ValueResp(1, 0)}, false},
		{"cross-process response", History{Read(1, 0), ValueResp(2, 0)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckWellFormed(tt.h)
			if (err != nil) != tt.wantErr {
				t.Errorf("CheckWellFormed() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTransactionsFigure1(t *testing.T) {
	txns, err := Transactions(fig1History())
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 2 {
		t.Fatalf("got %d transactions, want 2", len(txns))
	}
	t1, t2 := txns[0], txns[1]
	if t1.Proc != 1 || t2.Proc != 2 {
		t.Fatalf("transaction order by first event: got procs %d,%d want 1,2", t1.Proc, t2.Proc)
	}
	if t1.Status != Aborted {
		t.Errorf("T1 status = %v, want aborted", t1.Status)
	}
	if t2.Status != Committed {
		t.Errorf("T2 status = %v, want committed", t2.Status)
	}
	if len(t1.Ops) != 3 { // read, write, tryC(aborted)
		t.Errorf("T1 has %d ops, want 3", len(t1.Ops))
	}
	if got := t1.Ops[2]; got.Kind != OpTryCommit || !got.Aborted {
		t.Errorf("T1 last op = %v, want aborted tryC", got)
	}
	ws := t2.WriteSet()
	if len(ws) != 1 || ws[0] != 1 {
		t.Errorf("T2 write set = %v, want {x0:1}", ws)
	}
	reads := t2.Reads()
	if len(reads) != 1 || reads[0].Val != 0 {
		t.Errorf("T2 reads = %v, want one read of 0", reads)
	}
}

func TestTransactionsMultiplePerProcess(t *testing.T) {
	h := NewBuilder().
		Read(1, 0, 0).Commit(1).
		Read(1, 0, 1).CommitAbort(1).
		Write(1, 0, 2).
		History()
	txns, err := Transactions(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 3 {
		t.Fatalf("got %d transactions, want 3", len(txns))
	}
	wantStatus := []TxnStatus{Committed, Aborted, Live}
	wantSeq := []int{0, 1, 2}
	for i, tx := range txns {
		if tx.Status != wantStatus[i] {
			t.Errorf("txn %d status = %v, want %v", i, tx.Status, wantStatus[i])
		}
		if tx.Seq != wantSeq[i] {
			t.Errorf("txn %d seq = %d, want %d", i, tx.Seq, wantSeq[i])
		}
	}
	if txns[0].ID() != "T1.0" || txns[2].ID() != "T1.2" {
		t.Errorf("IDs = %s, %s; want T1.0, T1.2", txns[0].ID(), txns[2].ID())
	}
}

func TestTransactionsPendingInvocation(t *testing.T) {
	h := History{Read(1, 0), ValueResp(1, 0), Write(1, 0, 5)}
	txns, err := Transactions(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 {
		t.Fatalf("got %d transactions, want 1", len(txns))
	}
	tx := txns[0]
	if tx.Status != Live {
		t.Errorf("status = %v, want live", tx.Status)
	}
	if tx.PendingInv == nil || tx.PendingInv.Kind != InvWrite {
		t.Errorf("pending invocation = %v, want the write", tx.PendingInv)
	}
}

func TestTransactionsRejectsMalformed(t *testing.T) {
	if _, err := Transactions(History{OK(1)}); err == nil {
		t.Error("expected error for orphan response")
	}
}

func TestPrecedes(t *testing.T) {
	h := fig1History()
	txns, _ := Transactions(h)
	t1, t2 := txns[0], txns[1]
	// T1 and T2 are concurrent in Figure 1: neither precedes the other.
	if t1.Precedes(t2) || t2.Precedes(t1) {
		t.Error("Figure 1's transactions must be concurrent")
	}

	seq := NewBuilder().Read(1, 0, 0).Commit(1).Read(2, 0, 0).Commit(2).History()
	st, _ := Transactions(seq)
	if !st[0].Precedes(st[1]) {
		t.Error("sequential first transaction must precede the second")
	}
	if st[1].Precedes(st[0]) {
		t.Error("precedence must be antisymmetric for disjoint transactions")
	}
}

func TestLiveTransactionNeverPrecedes(t *testing.T) {
	h := History{Read(1, 0), ValueResp(1, 0), Read(2, 0), ValueResp(2, 0), TryCommit(2), Commit(2)}
	txns, _ := Transactions(h)
	var live, committed *Transaction
	for _, tx := range txns {
		if tx.Status == Live {
			live = tx
		} else {
			committed = tx
		}
	}
	if live == nil || committed == nil {
		t.Fatal("expected one live and one committed transaction")
	}
	if live.Precedes(committed) {
		t.Error("a live transaction precedes nothing")
	}
}

func TestComplete(t *testing.T) {
	h := History{Read(1, 0), ValueResp(1, 0), Read(2, 0)}
	c := Complete(h)
	txns, err := Transactions(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txns {
		if tx.Status == Live {
			t.Errorf("completion left %s live", tx.ID())
		}
	}
	// Completing a complete history is the identity.
	cc := Complete(c)
	if len(cc) != len(c) {
		t.Errorf("completion is not idempotent: %d then %d events", len(c), len(cc))
	}
}

func TestCompleteAddsAbortAtEnd(t *testing.T) {
	h := NewBuilder().Read(1, 0, 0).History() // completed read, live txn
	c := Complete(h)
	if len(c) != len(h)+1 {
		t.Fatalf("completion added %d events, want 1", len(c)-len(h))
	}
	if last := c[len(c)-1]; last.Kind != RespAbort || last.Proc != 1 {
		t.Errorf("completion appended %v, want A_1", last)
	}
}

func TestCommittedProjection(t *testing.T) {
	h := fig1History()
	com, err := CommittedProjection(h)
	if err != nil {
		t.Fatal(err)
	}
	txns, _ := Transactions(com)
	if len(txns) != 1 || txns[0].Proc != 2 || txns[0].Status != Committed {
		t.Fatalf("committed projection = %v, want only p2's committed transaction", com)
	}
}

func TestCommittedProjectionDropsLive(t *testing.T) {
	h := History{Read(1, 0), ValueResp(1, 0), Read(2, 0), ValueResp(2, 0), TryCommit(2), Commit(2)}
	com, err := CommittedProjection(h)
	if err != nil {
		t.Fatal(err)
	}
	if procs := com.Procs(); len(procs) != 1 || procs[0] != 2 {
		t.Errorf("committed projection procs = %v, want [2]", procs)
	}
}

func TestSequentialHistoryRoundTrip(t *testing.T) {
	h := fig1History()
	txns, _ := Transactions(h)
	// Place T2 before T1 — the order that makes Figure 1 legal.
	seq := SequentialHistory([]*Transaction{txns[1], txns[0]})
	ok, err := IsSequential(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("SequentialHistory must produce a sequential history")
	}
	if !seq.Equivalent(h) {
		t.Error("reordered sequential history must stay equivalent to the original")
	}
}

func TestSequentialHistoryCompletesLive(t *testing.T) {
	h := History{Read(1, 0), ValueResp(1, 0), Write(1, 0, 3)}
	txns, _ := Transactions(h)
	seq := SequentialHistory(txns)
	if last := seq[len(seq)-1]; last.Kind != RespAbort {
		t.Errorf("sequentialized live transaction must end in abort, got %v", last)
	}
	if err := CheckWellFormed(seq); err != nil {
		t.Errorf("sequential history not well-formed: %v", err)
	}
}

func TestIsSequential(t *testing.T) {
	if ok, _ := IsSequential(fig1History()); ok {
		t.Error("Figure 1 is concurrent, not sequential")
	}
	seq := NewBuilder().Read(1, 0, 0).Commit(1).Read(2, 0, 0).Commit(2).History()
	if ok, _ := IsSequential(seq); !ok {
		t.Error("back-to-back transactions form a sequential history")
	}
}

// Property: for histories generated from arbitrary completed-op
// sequences, Transactions always yields per-process contiguous,
// status-consistent transactions, and Complete removes all live ones.
func TestTransactionInvariantsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := wellFormedHistory(raw)
		txns, err := Transactions(h)
		if err != nil {
			return false
		}
		perProc := make(map[Proc]int)
		for _, tx := range txns {
			if tx.Seq != perProc[tx.Proc] {
				return false
			}
			perProc[tx.Proc]++
			for i, op := range tx.Ops {
				if op.Aborted && i != len(tx.Ops)-1 {
					return false // only the last op may abort
				}
			}
			if tx.Status == Committed {
				if n := len(tx.Ops); n == 0 || tx.Ops[n-1].Kind != OpTryCommit || tx.Ops[n-1].Aborted {
					return false
				}
			}
		}
		for _, tx := range mustTransactions(Complete(h)) {
			if tx.Status == Live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the real-time order is a strict partial order (irreflexive
// and transitive) on every well-formed history.
func TestPrecedencePartialOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		txns := mustTransactions(wellFormedHistory(raw))
		for _, a := range txns {
			if a.Precedes(a) {
				return false
			}
			for _, b := range txns {
				for _, c := range txns {
					if a.Precedes(b) && b.Precedes(c) && !a.Precedes(c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func mustTransactions(h History) []*Transaction {
	txns, err := Transactions(h)
	if err != nil {
		panic(err)
	}
	return txns
}

// wellFormedHistory builds a well-formed history from fuzz bytes by
// interleaving whole operations of up to three processes.
func wellFormedHistory(raw []uint8) History {
	b := NewBuilder()
	for _, c := range raw {
		p := Proc(c%3 + 1)
		x := TVar(c / 3 % 2)
		v := Value(c / 6 % 3)
		switch c % 5 {
		case 0:
			b.Read(p, x, v)
		case 1:
			b.Write(p, x, v)
		case 2:
			b.Commit(p)
		case 3:
			b.CommitAbort(p)
		case 4:
			b.WriteAbort(p, x, v)
		}
	}
	return b.History()
}

// TestParserReusesStorage: one Parser over many histories yields what
// Transactions does for each, and once it has seen the largest it
// allocates only for a pending invocation.
func TestParserReusesStorage(t *testing.T) {
	var p Parser
	histories := []History{fig1History(), nil, {Read(1, 0)}, fig1History().Append(Read(3, 1), ValueResp(3, 0), Abort(3))}
	f := func(raw []uint8) bool {
		histories = append(histories, wellFormedHistory(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for _, h := range histories {
		want := mustTransactions(h)
		got, err := p.Parse(h)
		if err != nil || len(got) != len(want) {
			t.Fatalf("Parse: %d transactions, err %v; Transactions: %d\n%s", len(got), err, len(want), h)
		}
		for i := range want {
			if got[i].String() != want[i].String() || got[i].First != want[i].First || got[i].Last != want[i].Last ||
				(got[i].PendingInv == nil) != (want[i].PendingInv == nil) {
				t.Fatalf("transaction %d: Parse %s [%d,%d], Transactions %s [%d,%d]\n%s",
					i, got[i], got[i].First, got[i].Last, want[i], want[i].First, want[i].Last, h)
			}
		}
	}
	h := fig1History()
	if n := testing.AllocsPerRun(50, func() {
		if _, err := p.Parse(h); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm Parser allocates %v times per parse", n)
	}
	if _, err := p.Parse(History{OK(1)}); err == nil {
		t.Error("a warm Parser must still reject a malformed history")
	}
}

// TestTransactionsSizedOnce: the transactions and the operations of a
// history are one allocation each, whatever its length, and appending
// to one transaction's Ops cannot reach into its neighbour's.
func TestTransactionsSizedOnce(t *testing.T) {
	var short, long History
	for i := 0; i < 400; i++ {
		p := Proc(i%2 + 1)
		round := History{Read(p, 0), ValueResp(p, Value(i)), Write(p, 0, Value(i+1)), OK(p), TryCommit(p), Commit(p)}
		long = append(long, round...)
		if i < 4 {
			short = append(short, round...)
		}
	}
	parse := func(h History) func() {
		return func() {
			if _, err := Transactions(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	few, many := testing.AllocsPerRun(20, parse(short)), testing.AllocsPerRun(20, parse(long))
	if few != many || many > 6 {
		t.Errorf("%v allocations for 4 transactions, %v for 400: want the same handful", few, many)
	}
	txns := mustTransactions(short)
	first, second := txns[0], txns[2] // p1's first two: neighbours in the operation slab
	before := second.String()
	first.Ops = append(first.Ops, Op{Kind: OpWrite, Var: 9, Val: 9})
	if second.String() != before {
		t.Errorf("appending to %s changed its neighbour to %s", first.ID(), second)
	}
}

// Reads returns the completed reads of the transaction in program
// order (reads that received a value response, not an abort).
func (t *Transaction) Reads() []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Kind == OpRead && !op.Aborted {
			out = append(out, op)
		}
	}
	return out
}
