package model

import (
	"errors"
	"fmt"
	"strings"
)

// TxnStatus is the outcome of a transaction within a finite history.
type TxnStatus int

// Transaction outcomes. A transaction is Live when the history ends
// before the transaction commits or aborts (it is "neither committed
// nor aborted" in the paper's words); completion com(H) turns every
// Live transaction into an Aborted one.
const (
	Committed TxnStatus = iota + 1
	Aborted
	Live
)

// String returns the conventional name of the status.
func (s TxnStatus) String() string {
	switch s {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Live:
		return "live"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// OpKind enumerates the kinds of completed transactional operations.
type OpKind int

// Operation kinds inside a transaction.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpTryCommit
)

// Op is one completed operation of a transaction: an invocation
// together with its response. Operations whose response was an abort
// terminate the transaction and carry Aborted=true.
type Op struct {
	Kind    OpKind
	Var     TVar
	Val     Value // value read (OpRead) or written (OpWrite)
	Aborted bool  // response was A_k
}

// String renders the op in the paper's shorthand, e.g. "r(x0)->3",
// "w(x0,1)", "tryC", with "!A" appended when the response was an abort.
func (o Op) String() string {
	var s string
	switch o.Kind {
	case OpRead:
		s = fmt.Sprintf("r(x%d)->%d", o.Var, o.Val)
		if o.Aborted {
			s = fmt.Sprintf("r(x%d)", o.Var)
		}
	case OpWrite:
		s = fmt.Sprintf("w(x%d,%d)", o.Var, o.Val)
	case OpTryCommit:
		s = "tryC"
	default:
		s = fmt.Sprintf("op(%d)", int(o.Kind))
	}
	if o.Aborted {
		s += "!A"
	}
	return s
}

// Transaction is a maximal transaction of one process within a history,
// as defined in §2.2 of the paper: a maximal run of the process's
// events containing no commit or abort except possibly as its last
// event.
type Transaction struct {
	Proc   Proc
	Seq    int // 0-based index among the process's transactions
	Status TxnStatus
	Ops    []Op

	// First and Last are indices into the source history of the
	// transaction's first and last event. They define the real-time
	// order. For a Live transaction with a pending invocation, Last is
	// the index of that invocation.
	First, Last int

	// PendingInv holds the pending invocation of a Live transaction
	// that ended mid-operation, if any. Completion answers it with an
	// abort.
	PendingInv *Event
}

// ID returns a stable human-readable identifier like "T1.0" (process 1,
// first transaction).
func (t *Transaction) ID() string { return fmt.Sprintf("T%d.%d", t.Proc, t.Seq) }

// String renders the transaction compactly, e.g.
// "T1.0[r(x0)->0 w(x0,1) tryC]:committed".
func (t *Transaction) String() string {
	parts := make([]string, len(t.Ops))
	for i, op := range t.Ops {
		parts[i] = op.String()
	}
	return fmt.Sprintf("%s[%s]:%s", t.ID(), strings.Join(parts, " "), t.Status)
}

// WriteSet returns the last acknowledged write per t-variable; only
// these take effect if the transaction commits.
func (t *Transaction) WriteSet() map[TVar]Value {
	out := make(map[TVar]Value)
	for _, op := range t.Ops {
		if op.Kind == OpWrite && !op.Aborted {
			out[op.Var] = op.Val
		}
	}
	return out
}

// Precedes reports whether t precedes u in the real-time order of the
// source history: t is committed or aborted and t's last event occurs
// before u's first event. Two transactions that do not precede each
// other either way are concurrent.
func (t *Transaction) Precedes(u *Transaction) bool {
	if t.Status == Live {
		return false
	}
	return t.Last < u.First
}

// wfError describes a well-formedness violation found by Transactions
// or CheckWellFormed.
type wfError struct {
	Index int
	Event Event
	Msg   string
}

func (e *wfError) Error() string {
	return fmt.Sprintf("event %d (%s): %s", e.Index, e.Event, e.Msg)
}

// Cursor is one process's place in its alphabet Σ_k: whether it has
// an open transaction, and the invocation, if any, that awaits its
// response. The zero value is a process before its first event.
type Cursor struct {
	Inv     Event // the pending invocation, while Pending
	Pending bool
	InTxn   bool
}

// Step checks e, the process's next event, against Σ_k, with
// CheckWellFormed's one relaxation (a completion abort), and advances
// the cursor over it. When e answers the pending invocation, Step
// returns the operation the two make up and true.
func (c *Cursor) Step(e Event) (Op, bool, error) {
	switch {
	case e.Kind.IsInvocation():
		if c.Pending {
			return Op{}, false, errors.New("invocation while a previous invocation is pending")
		}
		c.Inv, c.Pending, c.InTxn = e, true, true
		return Op{}, false, nil
	case !e.Kind.IsResponse():
		return Op{}, false, errors.New("unknown event kind")
	case !c.Pending:
		if e.Kind == RespAbort && c.InTxn {
			c.InTxn = false
			return Op{}, false, nil
		}
		return Op{}, false, errors.New("response without a pending invocation")
	case !Matches(c.Inv, e):
		return Op{}, false, fmt.Errorf("response does not match invocation %s", c.Inv)
	}
	c.Pending = false
	if StatusAfter(e) != Live {
		c.InTxn = false
	}
	return opOf(c.Inv, e), true, nil
}

// procParse is one process's state while a history is parsed.
type procParse struct {
	cur Cursor

	// Transactions only: the process's completed operations (counted by
	// the first pass, then the next free slot of its run in the
	// operation slab), its transaction count, its open transaction.
	ops  int
	seq  int
	open *Transaction
}

// parser parses histories into transactions for Transactions and
// checks them for CheckWellFormed, in storage that one parse leaves to
// the next. The zero value is ready to use.
type parser struct {
	procs ProcTable[procParse]
	slab  []Transaction
	txns  []*Transaction
	ops   []Op
}

// badProc is the well-formedness error of an event whose process id is
// below 1: only a hand-built event has one, since decoding refuses it.
const badProc = "non-positive process id"

// CheckWellFormed verifies that the history is a valid sequence over
// the per-process alphabets Σ_k: for every process, events strictly
// alternate invocation–response with matching pairs, starting with an
// invocation. A trailing unanswered invocation is permitted (the
// process is mid-operation when the history ends).
//
// One relaxation of Σ_k is accepted: an abort event with no pending
// invocation is legal when the process has an open transaction. This
// is the "completion abort" that com(H) appends to transactions whose
// last operation already returned; the paper defines completion at
// transaction granularity, above the event alphabet.
func CheckWellFormed(h History) error {
	var p parser
	for i, e := range h {
		s := p.procs.At(e.Proc)
		if s == nil {
			return &wfError{i, e, badProc}
		}
		if _, _, err := s.cur.Step(e); err != nil {
			return &wfError{i, e, err.Error()}
		}
	}
	return nil
}

// Transactions parses the history into its transactions, per process
// and in history order of first events. It returns an error when the
// history is not well-formed.
//
// The returned slice is ordered by the index of each transaction's
// first event, which makes iteration deterministic.
func Transactions(h History) ([]*Transaction, error) {
	var p parser
	return p.parse(h)
}

// parse is Transactions.
//
// A first pass checks well-formedness and counts, so the transactions
// and their operations are each sized once for the whole history: a
// process's operations occupy one run of the operation slab, in
// program order, and each transaction's Ops is its stretch of that
// run.
func (p *parser) parse(h History) ([]*Transaction, error) {
	p.procs = p.procs[:0]
	txnCount, opCount := 0, 0
	for i, e := range h {
		s := p.procs.At(e.Proc)
		if s == nil {
			return nil, &wfError{i, e, badProc}
		}
		if e.Kind.IsInvocation() && !s.cur.InTxn {
			txnCount++
		}
		_, answered, err := s.cur.Step(e)
		if err != nil {
			return nil, &wfError{i, e, err.Error()}
		}
		if answered {
			s.ops++
			opCount++
		}
	}
	if txnCount == 0 {
		return nil, nil
	}
	if cap(p.slab) < txnCount {
		p.slab = make([]Transaction, txnCount)
		p.txns = make([]*Transaction, 0, txnCount)
	}
	if cap(p.ops) < opCount {
		p.ops = make([]Op, opCount)
	}
	slab, txns, ops := p.slab[:txnCount], p.txns[:0], p.ops[:opCount]
	next := 0
	for i := range p.procs {
		s := &p.procs[i]
		next, s.ops = next+s.ops, next
		s.cur = Cursor{}
	}

	for i, e := range h {
		s := &p.procs[e.Proc]
		t := s.open
		if t == nil {
			// Well-formedness makes this an invocation.
			t = &slab[len(txns)]
			*t = Transaction{Proc: e.Proc, Seq: s.seq, Status: Live, First: i, Ops: ops[s.ops:s.ops]}
			s.seq++
			s.open = t
			txns = append(txns, t)
		}
		t.Last = i
		// The first pass found the history well-formed.
		if op, answered, _ := s.cur.Step(e); answered {
			t.Ops = append(t.Ops, op)
		}
		if t.Status = StatusAfter(e); t.Status != Live {
			s.close()
		}
	}
	for i := range p.procs {
		s := &p.procs[i]
		if s.open == nil {
			continue
		}
		if s.cur.Pending {
			inv := s.cur.Inv
			s.open.PendingInv = &inv
		}
		s.close()
	}
	return txns, nil
}

// opOf returns the operation that an invocation and its matching
// response make up.
func opOf(inv, resp Event) Op {
	switch resp.Kind {
	case RespValue:
		return Op{Kind: OpRead, Var: inv.Var, Val: resp.Val}
	case RespOK:
		return Op{Kind: OpWrite, Var: inv.Var, Val: inv.Val}
	case RespCommit:
		return Op{Kind: OpTryCommit}
	}
	// An abort answers whichever invocation was pending.
	op := Op{Aborted: true}
	switch inv.Kind {
	case InvRead:
		op.Kind, op.Var = OpRead, inv.Var
	case InvWrite:
		op.Kind, op.Var, op.Val = OpWrite, inv.Var, inv.Val
	case InvTryCommit:
		op.Kind = OpTryCommit
	}
	return op
}

// StatusAfter returns the status a transaction has after event e of its
// process: Committed after a commit, Aborted after an abort, Live
// otherwise.
func StatusAfter(e Event) TxnStatus {
	switch e.Kind {
	case RespCommit:
		return Committed
	case RespAbort:
		return Aborted
	}
	return Live
}

// close ends the process's open transaction: its operations are the
// stretch of the process's run it filled, clipped so that a caller's
// append cannot reach the next transaction's.
func (s *procParse) close() {
	t := s.open
	s.ops += len(t.Ops)
	t.Ops = t.Ops[:len(t.Ops):len(t.Ops)]
	s.open = nil
}

// CommittedProjection returns the longest subsequence of the history
// containing only events of committed transactions (the H_com of the
// strict-serializability definition).
func CommittedProjection(h History) (History, error) {
	txns, err := Transactions(h)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(h))
	for _, t := range txns {
		if t.Status != Committed {
			continue
		}
		for i := t.First; i <= t.Last; i++ {
			if h[i].Proc == t.Proc {
				keep[i] = true
			}
		}
	}
	var out History
	for i, k := range keep {
		if k {
			out = append(out, h[i])
		}
	}
	return out, nil
}
